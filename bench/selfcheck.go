package main

import (
	"fmt"
	"math"
	"os"
)

// selfCheck is the A/A mode: every workload is run twice on the same commit,
// once in listed order and once in reverse, so that slow drift of the box
// lands on different workloads in the two sets. For every end-to-end metric
// it prints both values, how far apart they are as a share of their mean, and
// the bound; it reports false if any pair disagrees by more than its bound
// (failed_share: by more than its absolute bound). The unresolved tail
// metrics are printed with their spread and judged by nothing. A metric that
// fails this at the commit that defines it needs a longer phase or a wider
// stated bound, not a retry.
func selfCheck(seed int64, seconds float64) bool {
	order := append([]*workload(nil), workloads...)
	for i := len(workloads) - 1; i >= 0; i-- {
		order = append(order, workloads[i])
	}
	runs := map[string][]*result{}
	ok := true
	for _, w := range order {
		res, err := runWorkload(w, seed, seconds, scratchRoot)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return false
		}
		res.print(os.Stdout)
		if len(res.invalid) > 0 {
			ok = false
		}
		runs[w.name] = append(runs[w.name], res)
	}
	fmt.Printf("\nA/A on seed %d: value A, value B, |A-B| / mean, bound\n", seed)
	for _, w := range workloads {
		a, b := runs[w.name][0], runs[w.name][1]
		fmt.Printf("== %s\n", w.name)
		for _, d := range endToEnd {
			va, vb := a.metrics[d.name], b.metrics[d.name]
			spread := 0.0
			if mean := (va + vb) / 2; mean != 0 {
				spread = math.Abs(va-vb) / mean
			}
			verdict, bound := "ok", d.bound
			switch {
			case d.name == "failed_share":
				bound = failedShareBound
				if math.Abs(va-vb) > bound {
					verdict, ok = "DISAGREE", false
				}
			case d.ungated != "":
				verdict = "not gated"
			case spread > bound:
				verdict, ok = "DISAGREE", false
			}
			fmt.Printf("   %-22s %14.6g %14.6g  %6.3f  %5.3f  %s\n", d.name, va, vb, spread, bound, verdict)
		}
	}
	return ok
}
