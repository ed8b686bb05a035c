// Command experiments regenerates the paper's evaluation: every panel of
// Figures 6–8 and 10 as ASCII tables (or CSV), plus the ablation studies
// indexed in EXPERIMENTS.md, and runs the five strategies once on one
// workload (-exp run) for a quick revenue table.
//
// Usage:
//
//	experiments -list
//	experiments -exp E1            # one experiment at paper scale
//	experiments -exp all -scale 20 # everything, populations divided by 20
//	experiments -exp E5 -csv       # machine-readable output
//	experiments -exp ablations
//	experiments -exp run           # one synthetic workload, every strategy
//	experiments -exp run -workload beijing-rush -duration 15 -scale 10
//	experiments -exp run -space road -workload beijing-rush -scale 10
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"spatialcrowd/internal/exp"
	"spatialcrowd/internal/workload"
)

func main() {
	var (
		expID  = flag.String("exp", "", "experiment id (E1..E13, 'all', 'ablations', or 'run')")
		scale  = flag.Int("scale", 1, "divide population sizes by this factor (1 = paper scale)")
		seed   = flag.Int64("seed", 42, "workload seed")
		probes = flag.Int("probes", 0, "base-pricing calibration probes per price (0 = full Hoeffding bound)")
		csv    = flag.Bool("csv", false, "emit CSV instead of tables")
		list   = flag.Bool("list", false, "list available experiments")

		wl       = flag.String("workload", "synthetic", "-exp run: synthetic | beijing-rush | beijing-night")
		space    = flag.String("space", "grid", "-exp run: spatial backend, grid | road (road serves the beijing workloads)")
		workers  = flag.Int("workers", 5000, "-exp run: synthetic worker count |W| (divided by -scale)")
		requests = flag.Int("requests", 20000, "-exp run: synthetic request count |R| (divided by -scale)")
		periods  = flag.Int("periods", 400, "-exp run: synthetic period count T")
		duration = flag.Int("duration", 10, "-exp run: beijing worker duration delta_w")
	)
	flag.Parse()

	if *list || *expID == "" {
		printCatalog()
		if *expID == "" && !*list {
			os.Exit(2)
		}
		return
	}

	r := exp.NewRunner()
	r.Scale = *scale
	r.Seed = *seed
	r.ProbeBudget = *probes

	switch strings.ToLower(*expID) {
	case "ablations":
		runAblations(r)
		return
	case "run":
		s, err := r.Workload(*space, *wl, workload.SyntheticConfig{
			Workers: *workers, Requests: *requests, Periods: *periods,
		}, *duration)
		fail(err)
		if *csv {
			s.WriteCSV(os.Stdout, true)
		} else {
			printRun(s)
		}
		return
	}

	drivers := catalog(r)
	var selected []namedDriver
	if strings.EqualFold(*expID, "all") {
		selected = drivers
	} else {
		for _, d := range drivers {
			if strings.EqualFold(d.id, *expID) {
				selected = []namedDriver{d}
			}
		}
		if len(selected) == 0 {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *expID)
			os.Exit(2)
		}
	}

	header := true
	for _, d := range selected {
		s, err := d.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", d.id, err)
			os.Exit(1)
		}
		if *csv {
			s.WriteCSV(os.Stdout, header)
			header = false
		} else {
			s.WriteAll(os.Stdout)
		}
	}
}

type namedDriver struct {
	id    string
	title string
	run   func() (*exp.Series, error)
}

func catalog(r *exp.Runner) []namedDriver {
	return []namedDriver{
		{"E1", "Fig 6(a,e,i): varying |W|", r.VaryWorkers},
		{"E2", "Fig 6(b,f,j): varying |R|", r.VaryRequests},
		{"E3", "Fig 6(c,g,k): varying temporal mu", r.VaryTemporalMean},
		{"E4", "Fig 6(d,h,l): varying spatial mean", r.VarySpatialMean},
		{"E5", "Fig 7(a,e,i): varying demand mu", r.VaryDemandMean},
		{"E6", "Fig 7(b,f,j): varying demand sigma", r.VaryDemandSigma},
		{"E7", "Fig 7(c,g,k): varying T", r.VaryPeriods},
		{"E8", "Fig 7(d,h,l): varying G", r.VaryGrids},
		{"E9", "Fig 8(a,e,i): varying radius a_w", r.VaryRadius},
		{"E10", "Fig 8(b,f,j): scalability", r.Scalability},
		{"E11", "Fig 8(c,g,k): Beijing-like #1 (rush)", r.BeijingRush},
		{"E12", "Fig 8(d,h,l): Beijing-like #2 (night)", r.BeijingNight},
		{"E13", "Fig 10: exponential demand alpha", r.VaryExpRate},
	}
}

func printCatalog() {
	r := exp.NewRunner()
	fmt.Println("Available experiments (index: EXPERIMENTS.md, \"Running the figure experiments\"):")
	for _, d := range catalog(r) {
		fmt.Printf("  %-4s %s\n", d.id, d.title)
	}
	fmt.Println("  all        run every figure experiment")
	fmt.Println("  ablations  run A1-A7 (oracle demand, no matching, optimality gap,")
	fmt.Println("             ladder alpha, spatial smoothing, parametric demand,")
	fmt.Println("             repositioning)")
	fmt.Println("  run        every strategy once on one workload (-workload, -space,")
	fmt.Println("             -workers, -requests, -periods, -duration)")
}

// printRun renders the one-workload table: revenue and service counts per
// strategy.
func printRun(s *exp.Series) {
	fmt.Printf("%s\n\n", s.Title)
	fmt.Printf("%-10s %12s %9s %9s %9s\n", "strategy", "revenue", "offered", "accepted", "served")
	for _, name := range exp.StrategyOrder {
		res := s.Points[0].Results[name]
		fmt.Printf("%-10s %12.1f %9d %9d %9d\n", name, res.Revenue, res.Offered, res.Accepted, res.Served)
	}
}

func runAblations(r *exp.Runner) {
	rows, err := r.AblationOracleDemand()
	fail(err)
	exp.WriteAblation(os.Stdout, "A1: MAPS learned vs oracle demand", rows)

	rows, err = r.AblationNoMatching()
	fail(err)
	exp.WriteAblation(os.Stdout, "A2: matching-validated vs independent supply", rows)

	gaps, err := r.AblationOptimalityGap(10)
	fail(err)
	fmt.Println("A3: MAPS vs exhaustive optimum on tiny instances (exact E[U])")
	worst := 1.0
	for _, g := range gaps {
		fmt.Printf("  instance %2d: MAPS=%.4f OPT=%.4f ratio=%.3f\n",
			g.Instance, g.MAPSValue, g.OptValue, g.Ratio)
		if g.Ratio < worst {
			worst = g.Ratio
		}
	}
	fmt.Printf("  worst ratio %.3f (Theorem 8 floor: %.3f)\n", worst, 1-1/2.718281828)

	pts, err := r.AblationLadderAlpha()
	fail(err)
	fmt.Println("A4: base-price ladder step alpha vs Theorem 3 bound")
	for _, p := range pts {
		fmt.Printf("  alpha=%.2f achieved=%.3f bound=%.3f\n", p.Alpha, p.Achieved, p.Bound)
	}

	rows, err = r.AblationSmoothing()
	fail(err)
	exp.WriteAblation(os.Stdout, "A5: spatial price smoothing weight", rows)

	rows, err = r.AblationParametricDemand()
	fail(err)
	exp.WriteAblation(os.Stdout, "A6: nonparametric UCB vs logistic demand fit", rows)

	rows, err = r.AblationRepositioning()
	fail(err)
	exp.WriteAblation(os.Stdout, "A7: idle-worker repositioning toward surge prices", rows)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
