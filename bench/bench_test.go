package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"

	"spatialcrowd/bench/gen"
)

func TestTailQuantileNeedsTenUnitsBeyond(t *testing.T) {
	for _, c := range []struct {
		units int
		want  float64
	}{
		{19, 0.5}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {2000, 0.99}, {9999, 0.99}, {10000, 0.99},
	} {
		if got := tailQuantile(c.units, 0.99); got != c.want {
			t.Errorf("tailQuantile(%d units, want p99) = p%g, want p%g", c.units, got*100, c.want*100)
		}
	}
	if got := tailQuantile(10000, 0.999); got != 0.999 {
		t.Errorf("10000 units support p99.9, got p%g", got*100)
	}
	samples := make([]float64, 0, 3000)
	for i := 1; i <= 3000; i++ {
		samples = append(samples, float64(i))
	}
	d := summarize(samples, 1000, 0.99)
	if d.n != 3000 || d.units != 1000 || d.tailQ != 0.99 || d.p50 != 1500 || d.tail != 2970 || d.max != 3000 {
		t.Errorf("summarize = %+v", d)
	}
}

// nameRE is the contract's rule for workload and metric names.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func validName(s string) bool { return nameRE.MatchString(s) }

func TestNamesFollowTheRule(t *testing.T) {
	for _, bad := range []string{"", "-x", ".x", "a b", "a/b", "ms%", string(make([]byte, 65))} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	seen := map[string]bool{}
	check := func(n string) {
		if !validName(n) {
			t.Errorf("name %q breaks the rule [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, limit 200", w.name, len(w.why))
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.name)
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better = %q", d.name, d.better)
		}
	}
	for _, d := range endToEnd {
		if (d.bound > 0) == (d.ungated != "") {
			t.Errorf("%s: wants either a bound or a reason for having none", d.name)
		}
		if d.bound > 0.25 || d.bound > endToEnd[0].bound {
			t.Errorf("%s: bound %v above 0.25 or above setup_s's, which the contract wants largest", d.name, d.bound)
		}
	}
}

// benchmarkDoc is BENCHMARK.json as the code's tables would write it. The
// file at the repository root is the contract the driver reads; the
// consistency test holds the two equal and prints this one when they differ.
func benchmarkDoc() map[string]any {
	var ws, e2e, pl []map[string]any
	for _, w := range workloads {
		ws = append(ws, map[string]any{"name": w.name, "why": w.why})
	}
	for _, d := range gated() {
		e2e = append(e2e, map[string]any{"name": d.name, "unit": d.unit, "better": d.better, "bound": d.bound})
	}
	for _, d := range perLayer {
		pl = append(pl, map[string]any{"name": d.name, "unit": d.unit, "better": d.better})
	}
	return map[string]any{
		"command":     []string{"go", "run", "./bench"},
		"paths":       []string{"bench"},
		"run_seconds": RunSeconds,
		"workloads":   ws,
		"end_to_end":  e2e,
		"per_layer":   pl,
	}
}

func benchmarkJSON() []byte {
	b, err := json.MarshalIndent(benchmarkDoc(), "", "  ")
	if err != nil {
		panic(err) // plain maps of strings and numbers
	}
	return append(b, '\n')
}

// TestBenchmarkJSONMatchesCode holds the contract file and the code to each
// other: every workload and metric named in BENCHMARK.json is one the code
// emits on its last line, with the same unit, direction and bound, and
// nothing else.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file, code any
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(benchmarkJSON(), &code); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file, code) {
		t.Errorf("BENCHMARK.json differs from the code, which expects:\n%s", benchmarkJSON())
	}
	if len(workloads) != 4 || len(endToEnd) != 9 {
		t.Errorf("%d workloads and %d end-to-end metrics, want 4 and 9", len(workloads), len(endToEnd))
	}
}

func TestJoinTraceValue(t *testing.T) {
	got := joinTraceValue([]string{"--workload", "x", "--seed", "3", "--seconds", "10", "--trace", "1"})
	want := []string{"--workload", "x", "--seed", "3", "--seconds", "10", "--trace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("joinTraceValue = %v, want %v", got, want)
	}
	if got := joinTraceValue([]string{"-trace", "-seed", "1"}); !reflect.DeepEqual(got, []string{"-trace", "-seed", "1"}) {
		t.Errorf("a bare -trace must stay a bare flag, got %v", got)
	}
}

// smokeSeconds scales every stream down to a few dozen windows (the Beijing
// workloads to their minimum of 120).
const smokeSeconds = 0.3

// TestSmokeAllWorkloads runs every workload end to end at toy scale, untraced
// and traced. Both runs compare every pass with the reference replay and fail
// on a mismatch, so this is also the transparency test of the tracing
// wrappers: the traced pass (strategy and space wrapped) and the submit pass
// (WAL store wrapped) must reproduce the untraced revenue exactly. It then
// checks that each run emits exactly the metrics BENCHMARK.json names.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, 7, smokeSeconds, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if _, failed := res.totals(); failed != 0 {
				t.Errorf("%d operations failed", failed)
			}
			for _, d := range endToEnd {
				v, ok := res.metrics[d.name]
				if d.name == "failed_share" {
					if !ok || v != 0 {
						t.Errorf("failed_share = %v (present %v), want 0", v, ok)
					}
				} else if !ok || !(v > 0) {
					t.Errorf("end-to-end metric %s = %v (present %v), want a positive number", d.name, v, ok)
				}
			}
			if len(res.metrics) != len(endToEnd) {
				t.Errorf("run computed %d metrics, the issue names %d", len(res.metrics), len(endToEnd))
			}
			var line bytes.Buffer
			attempted, failed := res.totals()
			if err := writeLastLine(&line, attempted, failed, gated(), res.metrics); err != nil {
				t.Fatal(err)
			}
			var ll lastLine
			if err := json.Unmarshal(line.Bytes(), &ll); err != nil {
				t.Fatal(err)
			}
			if len(ll.Metrics) != len(gated()) {
				t.Errorf("last line carries %d metrics, BENCHMARK.json names %d", len(ll.Metrics), len(gated()))
			}
			for _, d := range gated() {
				if mv, ok := ll.Metrics[d.name]; !ok || mv.Unit != d.unit || !(mv.Value > 0) {
					t.Errorf("last line: %s = %+v (present %v)", d.name, mv, ok)
				}
			}

			tr, err := runTraced(w, 7, smokeSeconds, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			known := map[string]bool{}
			for _, d := range perLayer {
				known[d.name] = true
				_, emitted := tr.metrics[d.name]
				if emitted == tr.absent[d.name] {
					t.Errorf("per-layer metric %s: emitted %v, marked absent %v — want exactly one", d.name, emitted, tr.absent[d.name])
				}
			}
			for name := range tr.metrics {
				if !known[name] {
					t.Errorf("traced run emitted %s, which BENCHMARK.json does not name", name)
				}
			}
			for _, layer := range bypassed[w.name] {
				for _, d := range perLayer {
					if layerOf(d.name) == layer && !tr.absent[d.name] {
						t.Errorf("%s bypasses %s, yet %s is reported", w.name, layer, d.name)
					}
				}
			}
			if w.kind == gen.RoadQuoted {
				if tr.metrics["match.augment_ns_per_reply"] <= 0 {
					t.Error("the quoted workload must show augmentation work")
				}
				if tr.metrics["spatial.dist_calls_per_task"] != 0 {
					t.Errorf("the engine called Space.Dist at run time: %v calls per task", tr.metrics["spatial.dist_calls_per_task"])
				}
			} else if !tr.absent["match.augment_ns_per_reply"] {
				t.Error("augmentation reported on an auto-decide workload")
			}
		})
	}
}

// bypassed lists, per workload, the layers it does not run at all.
var bypassed = map[string][]string{
	"dense-grid":  {"wire", "server", "wal", "spatial"},
	"ingest-wal":  {"spatial"},
	"road-quoted": {"wal"},
	"city-steady": {"wal", "spatial"},
}
