// Command bench is the repository's benchmark: four canonical workloads
// driven through the real stack from one process, nine end-to-end metrics
// checked against a reference replay, and a separate traced run that
// attributes time to each module. See README.md in this directory.
//
//	go run ./bench -workload dense-grid -seed 1            # one run, end-to-end metrics
//	go run ./bench -workload ingest-wal -seed 1 -trace     # traced run, per-layer metrics
//	go run ./bench -list                                   # workloads and metrics
//	go run ./bench -all -seed 1                            # every workload, both runs
//	go run ./bench -selfcheck                              # A/A: every workload twice
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// scratchRoot is where WAL segments, checkpoints and trace files go: inside
// the benchmark's own directory, which the checkout's .gitignore covers.
const scratchRoot = "bench/out"

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (see -list)")
		seed      = flag.Int64("seed", 1, "workload seed: the generator's only input")
		seconds   = flag.Float64("seconds", RunSeconds, "nominal length of the measured passes together; the stream scales with it")
		list      = flag.Bool("list", false, "list workloads and metrics and exit")
		all       = flag.Bool("all", false, "run every workload, untraced then traced")
		selfcheck = flag.Bool("selfcheck", false, "A/A: run every workload twice in alternating order and compare with the bounds")
	)
	var trace boolFlag
	flag.Var(&trace, "trace", "traced run: per-layer metrics instead of end-to-end ones (-trace, -trace=1 or -trace 1)")
	flag.CommandLine.Parse(joinTraceValue(os.Args[1:]))

	if !*list {
		if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
			fatal(err)
		}
	}
	switch {
	case *list:
		printList()
	case *selfcheck:
		printHeader(*seed)
		if !selfCheck(*seed, *seconds) {
			os.Exit(1)
		}
	case *all:
		printHeader(*seed)
		ok := true
		for _, w := range workloads {
			ok = runOne(w, *seed, *seconds, false) && ok
			ok = runOne(w, *seed, *seconds, true) && ok
		}
		if !ok {
			os.Exit(1)
		}
	default:
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown -workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
		}
		printHeader(*seed)
		if !runOne(w, *seed, *seconds, bool(trace)) {
			os.Exit(1)
		}
	}
}

// runOne performs one run, prints its report and its last line, and reports
// whether it counts: outputs equal to the reference, every phase valid.
func runOne(w *workload, seed int64, seconds float64, traced bool) bool {
	if traced {
		tr, err := runTraced(w, seed, seconds, scratchRoot)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s (traced): %v\n", w.name, err)
			return false
		}
		tr.print(os.Stdout)
		if err := writeLastLine(os.Stdout, tr.attempted, tr.failed, perLayer, tr.metrics); err != nil {
			fatal(err)
		}
		return true
	}
	res, err := runWorkload(w, seed, seconds, scratchRoot)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return false
	}
	res.print(os.Stdout)
	if len(res.invalid) > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: run is invalid\n", w.name)
		return false
	}
	attempted, failed := res.totals()
	if err := writeLastLine(os.Stdout, attempted, failed, gated(), res.metrics); err != nil {
		fatal(err)
	}
	return true
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-12s %d windows, r50 %.0f/s, r80 %.0f/s\n               %s\n",
			w.name, w.windows, 0.5*w.satRate, 0.8*w.satRate, w.why)
	}
	fmt.Println("end-to-end metrics (untraced run):")
	for _, d := range endToEnd {
		if d.ungated != "" {
			fmt.Printf("  %-22s %-6s %-6s not gated   %s\n%42s(%s)\n", d.name, d.unit, d.better, d.what, "", d.ungated)
			continue
		}
		fmt.Printf("  %-22s %-6s %-6s bound %.2f  %s\n", d.name, d.unit, d.better, d.bound, d.what)
	}
	fmt.Println("per-layer metrics (-trace):")
	for _, d := range perLayer {
		fmt.Printf("  %-32s %-8s %-6s %s\n", d.name, d.unit, d.better, d.what)
	}
}

// printHeader records what the numbers were taken on.
func printHeader(seed int64) {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	wd, _ := os.Getwd()
	fmt.Printf("bench: nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s seed=%d dir=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		commit, seed, filepath.Base(wd))
}

// boolFlag is a bool flag that the driver may also pass as "-trace 1".
type boolFlag bool

func (b *boolFlag) String() string   { return fmt.Sprint(bool(*b)) }
func (b *boolFlag) IsBoolFlag() bool { return true }
func (b *boolFlag) Set(s string) error {
	switch s {
	case "1", "true":
		*b = true
	case "0", "false":
		*b = false
	default:
		return fmt.Errorf("want 0 or 1")
	}
	return nil
}

// joinTraceValue rewrites "-trace 0|1" to "-trace=0|1": the flag package
// reads a bool flag's value only from the same argument.
func joinTraceValue(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
