package exp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"spatialcrowd/internal/core"
	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/sim"
	"spatialcrowd/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/strategy_golden.json from the current code")

const goldenPath = "testdata/strategy_golden.json"

// goldenRun is one pinned run: the exact revenue and a SHA-256 over every
// window's price vector, in window order.
type goldenRun struct {
	Revenue string `json:"revenue"`
	Prices  string `json:"prices,omitempty"`
}

// priceHash folds each window's price vector (its length, then every price's
// IEEE bits) into one running SHA-256.
type priceHash struct{ h hash.Hash }

func (p *priceHash) add(prices []float64) {
	if p.h == nil {
		p.h = sha256.New()
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(prices)))
	p.h.Write(b[:])
	for _, x := range prices {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		p.h.Write(b[:])
	}
}

func (p *priceHash) sum() string {
	if p.h == nil {
		return ""
	}
	return hex.EncodeToString(p.h.Sum(nil))
}

// hashedMAPS embeds the concrete strategy so sim.Run still finds every
// optional interface MAPS implements (grid prices for repositioning).
type hashedMAPS struct {
	*core.MAPS
	ph priceHash
}

func (s *hashedMAPS) Prices(ctx *core.PeriodContext) []float64 {
	out := s.MAPS.Prices(ctx)
	s.ph.add(out)
	return out
}

type hashedStrategy struct {
	core.Strategy
	ph priceHash
}

func (s *hashedStrategy) Prices(ctx *core.PeriodContext) []float64 {
	out := s.Strategy.Prices(ctx)
	s.ph.add(out)
	return out
}

// goldenRuns replays fixed seeds through sim.Run on one small grid and one
// small road instance, for MAPS (smoothing and repositioning on and off) and
// the three baselines, plus the two ablations whose variants live outside
// core (A2, A6).
func goldenRuns(t *testing.T) map[string]goldenRun {
	t.Helper()
	grid, gridModel, err := workload.Synthetic(workload.SyntheticConfig{
		Workers: 300, Requests: 1200, Periods: 60, GridSide: 5, WorkerDuration: 3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	road, roadModel, _, err := workload.BeijingRoad(workload.RoadConfig{
		Variant: workload.BeijingRush, WorkerDuration: 4, Scale: 200, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	r.ProbeBudget = 40
	out := map[string]goldenRun{}
	for _, inst := range []struct {
		name  string
		in    *market.Instance
		model market.ValuationModel
	}{{"grid", grid, gridModel}, {"road", road, roadModel}} {
		for _, v := range []struct {
			name      string
			strategy  int // index into buildStrategies' result
			smoothing float64
			speed     float64
		}{
			{"MAPS", 0, 0, 0},
			{"MAPS/smooth0.3", 0, 0.3, 0},
			{"MAPS/reposition", 0, 0, 2},
			{"MAPS/smooth0.3/reposition", 0, 0.3, 2},
			{"SDR", 2, 0, 0},
			{"SDE", 3, 0, 0},
			{"CappedUCB", 4, 0, 0},
		} {
			strategies, _, err := r.buildStrategies(inst.model, inst.in.Spatial().NumCells())
			if err != nil {
				t.Fatal(err)
			}
			var s core.Strategy
			var ph *priceHash
			if m, ok := strategies[v.strategy].(*core.MAPS); ok {
				m.Smoothing = v.smoothing
				h := &hashedMAPS{MAPS: m}
				s, ph = h, &h.ph
			} else {
				h := &hashedStrategy{Strategy: strategies[v.strategy]}
				s, ph = h, &h.ph
			}
			cfg := r.Sim
			cfg.RepositionSpeed = v.speed
			res, err := sim.Run(inst.in, s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			out[inst.name+"/"+v.name] = goldenRun{Revenue: fmt.Sprintf("%.17g", res.Revenue), Prices: ph.sum()}
		}
	}

	for _, v := range []struct {
		name      string
		smoothing float64
	}{{"tie/MAPS", 0}, {"tie/MAPS/smooth0.3", 0.3}} {
		m, err := core.NewMAPS(core.DefaultParams(), 2)
		if err != nil {
			t.Fatal(err)
		}
		m.Smoothing = v.smoothing
		for cell := 0; cell < 2; cell++ {
			cs := m.CellStats(cell)
			for _, p := range cs.Ladder() {
				cs.Seed(p, 400, int(math.Min(400, 400*(1.3-0.3*p))))
			}
		}
		h := &hashedMAPS{MAPS: m}
		res, err := sim.Run(tieInstance(), h, sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		out[v.name] = goldenRun{Revenue: fmt.Sprintf("%.17g", res.Revenue), Prices: h.ph.sum()}
	}

	// At quickRunner's scale the two A2 variants tie; 20 keeps them apart.
	small := quickRunner()
	small.Scale = 20
	a2, err := small.AblationNoMatching()
	if err != nil {
		t.Fatal(err)
	}
	a6, err := small.AblationParametricDemand()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range a2 {
		out["A2/"+row.Variant] = goldenRun{Revenue: fmt.Sprintf("%.17g", row.Revenue)}
	}
	for _, row := range a6 {
		out["A6/"+row.Variant] = goldenRun{Revenue: fmt.Sprintf("%.17g", row.Revenue)}
	}
	return out
}

// tieInstance is a two-cell market built so that MAPS's grids tie on a
// positive Δ while competing for a shared worker, which makes deltaHeap's
// (Δ, cell) tie-break decide prices. Every period each cell gets two tasks
// of distance 2, an inner one by the boundary and an outer one, with the
// same valuations as their mirror images. One worker on the boundary reaches
// only the two inner tasks; each outer task has a worker of its own. The
// cell that wins the shared worker reaches two units of supply, the other
// one. goldenRuns seeds both cells with the same acceptance table, on which
// one and two units price differently (3.375 against 2.25), so flipping the
// tie-break swaps the two cells' prices.
func tieInstance() *market.Instance {
	rng := rand.New(rand.NewSource(32))
	in := &market.Instance{Grid: geo.NewGrid(geo.NewRect(geo.Point{}, geo.Point{X: 20, Y: 10}), 2, 1), Periods: 60}
	for t := 0; t < in.Periods; t++ {
		inner, outer := 1+4*rng.Float64(), 1+4*rng.Float64()
		for _, task := range []market.Task{
			{Origin: geo.Point{X: 9, Y: 5}, Distance: 2, Valuation: inner},
			{Origin: geo.Point{X: 1, Y: 5}, Distance: 2, Valuation: outer},
			{Origin: geo.Point{X: 11, Y: 5}, Distance: 2, Valuation: inner},
			{Origin: geo.Point{X: 19, Y: 5}, Distance: 2, Valuation: outer},
		} {
			task.ID, task.Period, task.Dest = len(in.Tasks), t, task.Origin
			in.Tasks = append(in.Tasks, task)
		}
		for _, w := range []market.Worker{
			{Loc: geo.Point{X: 10, Y: 5}, Radius: 1.5},
			{Loc: geo.Point{X: 1, Y: 5.5}, Radius: 1},
			{Loc: geo.Point{X: 19, Y: 5.5}, Radius: 1},
		} {
			w.ID, w.Period, w.Duration = len(in.Workers), t, 1
			in.Workers = append(in.Workers, w)
		}
	}
	return in
}

// TestStrategyGolden pins absolute revenues and price streams across
// commits: every other bit-identity check compares two runs of the same
// binary. Regenerate with `go test ./internal/exp -run TestStrategyGolden
// -update` only for an intended pricing change.
func TestStrategyGolden(t *testing.T) {
	got := goldenRuns(t)
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: got %+v, want %+v", k, got[k], want[k])
		}
	}
}
