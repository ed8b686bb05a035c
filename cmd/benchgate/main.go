// Command benchgate turns `go test -bench` output into a committed JSON
// baseline and gates CI on it: parse a bench run, optionally write the
// parsed results as BENCH_engine.json, and optionally compare them against a
// committed baseline, failing (exit 1) when a benchmark regressed its
// throughput by more than the allowed fraction.
//
// Usage:
//
//	go test -run xxx -bench 'ShardBatch$' -benchmem ./internal/engine | \
//	    go run ./cmd/benchgate -baseline BENCH_engine.json -max-regress 0.20
//	go test -run xxx -bench . -benchmem . | \
//	    go run ./cmd/benchgate -write BENCH_engine.json
//
// Benchmark names are normalized by stripping the -GOMAXPROCS suffix, so a
// baseline recorded on one core count gates runs on another. Two measures
// are gated: ns/op throughput (machine-dependent, generous default budget)
// and allocs/op (machine-independent, so the zero-allocation hot-path wins
// cannot silently rot — a -max-alloc-regress overrun fails the gate; small
// drifts above the baseline are still reported as warnings). B/op is
// recorded in the baseline so the allocation trajectory stays versioned.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line. bytes_per_op and allocs_per_op are
// recorded unconditionally: omitempty on a float64 silently drops a
// legitimate measured 0 (the zero-allocation benchmarks this gate exists to
// protect), making the baseline indistinguishable from "not measured".
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Baseline is the committed BENCH_engine.json schema.
type Baseline struct {
	Note    string   `json:"note,omitempty"`
	Results []Result `json:"results"`
}

var maxprocsSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	input := flag.String("input", "-", "bench output file (- for stdin)")
	baselinePath := flag.String("baseline", "", "committed baseline JSON to gate against")
	writePath := flag.String("write", "", "write parsed results as a new baseline JSON")
	maxRegress := flag.Float64("max-regress", 0.20, "maximum allowed fractional throughput regression")
	maxAllocRegress := flag.Float64("max-alloc-regress", 0.25, "maximum allowed fractional allocs/op regression")
	allocSlack := flag.Float64("alloc-slack", 16, "absolute allocs/op slack added to the limit: near-zero baselines (3-4 allocs/op) see warm-up noise worth a few allocs at short benchtimes, while the rot this gate exists to catch reintroduces hundreds of per-item allocations")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	results, err := parse(r)
	if err != nil {
		fatal(err)
	}
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}
	for _, res := range results {
		fmt.Printf("parsed %-55s %12.0f ns/op %10.0f allocs/op\n",
			res.Name, res.NsPerOp, res.AllocsPerOp)
	}

	if *writePath != "" {
		out := Baseline{
			Note:    "micro-gates for 0-alloc and format properties (end-to-end numbers live in BENCHMARK.json / go run ./bench); regenerate with: go test -run xxx -bench 'ShardBatch$|BipartiteBuild|RoadSpaceDistContended$|RoadSpaceDistCached$|LowChurnWindow|WorkerIndexBuild|WALAppend|MAPSPricesOnePeriod|MaxWeightMatching' -benchmem -benchtime 0.5s ./... | go run ./cmd/benchgate -write BENCH_engine.json",
			Results: results,
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fatal(err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*writePath, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d results)\n", *writePath, len(results))
	}

	if *baselinePath == "" {
		return
	}
	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fatal(fmt.Errorf("parse %s: %w", *baselinePath, err))
	}
	baseByName := make(map[string]Result, len(base.Results))
	for _, res := range base.Results {
		baseByName[res.Name] = res
	}

	failed := false
	compared := 0
	for _, cur := range results {
		old, ok := baseByName[cur.Name]
		if !ok || old.NsPerOp <= 0 {
			continue
		}
		compared++
		// Throughput regression: ops/s dropping by fraction f means ns/op
		// growing to old/(1-f).
		limit := old.NsPerOp / (1 - *maxRegress)
		change := cur.NsPerOp/old.NsPerOp - 1
		status := "ok"
		if cur.NsPerOp > limit {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%-4s %-55s ns/op %12.0f -> %12.0f (%+.1f%%, limit %+.1f%%)\n",
			status, cur.Name, old.NsPerOp, cur.NsPerOp, change*100,
			(limit/old.NsPerOp-1)*100)
		// Gate even on a zero-alloc baseline (slack alone is the limit):
		// exempting zero would exempt exactly the benchmarks this gate
		// protects. Baselines must therefore be recorded with -benchmem.
		allocLimit := old.AllocsPerOp*(1+*maxAllocRegress) + *allocSlack
		switch {
		case cur.AllocsPerOp > allocLimit:
			failed = true
			fmt.Printf("FAIL %-55s allocs/op %10.0f -> %10.0f (limit %.0f)\n",
				cur.Name, old.AllocsPerOp, cur.AllocsPerOp, allocLimit)
		case cur.AllocsPerOp > old.AllocsPerOp*1.05+1:
			fmt.Printf("warn %-55s allocs/op %10.0f -> %10.0f (limit %.0f)\n",
				cur.Name, old.AllocsPerOp, cur.AllocsPerOp, allocLimit)
		}
	}
	if compared == 0 {
		fatal(fmt.Errorf("no benchmarks in common between run and baseline %s", *baselinePath))
	}
	if failed {
		fmt.Println("benchgate: regression beyond the allowed budget (throughput or allocs/op)")
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmark(s) within the budgets (%.0f%% ns/op, %.0f%% allocs/op)\n",
		compared, *maxRegress*100, *maxAllocRegress*100)
}

// parse extracts benchmark result lines from go test -bench output.
func parse(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			continue
		}
		res := Result{
			Name:       maxprocsSuffix.ReplaceAllString(fields[0], ""),
			Iterations: iters,
			NsPerOp:    ns,
		}
		// Remaining fields come in (value, unit) pairs: -benchmem's B/op and
		// allocs/op plus any b.ReportMetric units.
		for i := 4; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			default:
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[fields[i+1]] = v
			}
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
