package workload

import (
	"fmt"
	"math"
	"math/rand"

	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/spatial"
	"spatialcrowd/internal/stats"
)

// The paper's real datasets (Table 4) are taxi-calling logs from a large
// Chinese ride-hailing platform, covering the rectangle (116.30, 39.84) to
// (116.50, 40.0) in Beijing with 10x8 grids of 0.02 degrees, 120 one-minute
// periods, and a 3 km worker radius. The logs are proprietary, so BeijingLike
// synthesizes a workload reproducing the published marginals: the same
// region geometry (converted to kilometres), the same population counts, a
// rush-hour or late-night temporal profile, hotspot-mixture spatial
// distributions, and urban-taxi trip lengths. See EXPERIMENTS.md, "Running
// the figure experiments", for where it stands in for the Didi data.

// Geometry of the Table 4 rectangle, converted to kilometres at Beijing's
// latitude (1 deg lat ~ 111.0 km, 1 deg lon ~ 85.2 km at 39.9 N).
const (
	BeijingWidthKM  = 0.20 * 85.2 // ~17.0 km
	BeijingHeightKM = 0.16 * 111  // ~17.8 km
	BeijingCols     = 10
	BeijingRows     = 8
	BeijingRadiusKM = 3.0
	BeijingPeriods  = 120
)

// BeijingVariant selects which of the two published time windows to emulate.
type BeijingVariant int

const (
	// BeijingRush is dataset #1: 5pm-7pm, heavy demand
	// (|W| = 28210, |R| = 113372).
	BeijingRush BeijingVariant = iota
	// BeijingNight is dataset #2: 0am-2am, light demand
	// (|W| = 19006, |R| = 55659).
	BeijingNight
)

// BeijingConfig parameterizes the Beijing-like generator.
type BeijingConfig struct {
	Variant BeijingVariant
	// WorkerDuration is delta_w: how many periods each worker stays
	// available (the x-axis of Fig. 8c/d; 5..25).
	WorkerDuration int
	// Scale shrinks both populations by the given divisor (0 or 1 = full
	// Table 4 size). The benchmark harness uses Scale to keep per-iteration
	// cost sane while preserving the demand:supply ratio.
	Scale int
	Seed  int64
}

// populations returns the Table 4 counts for the variant.
func (c BeijingConfig) populations() (workers, requests int) {
	switch c.Variant {
	case BeijingNight:
		return 19006, 55659
	default:
		return 28210, 113372
	}
}

// BeijingLike generates a Beijing-like market instance. It returns the
// instance and the valuation model used for calibration oracles.
func BeijingLike(cfg BeijingConfig) (*market.Instance, market.ValuationModel, error) {
	if cfg.WorkerDuration <= 0 {
		return nil, nil, fmt.Errorf("workload: need positive WorkerDuration, got %d", cfg.WorkerDuration)
	}
	scale := cfg.Scale
	if scale <= 0 {
		scale = 1
	}
	nw, nr := cfg.populations()
	nw, nr = nw/scale, nr/scale
	if nw == 0 || nr == 0 {
		return nil, nil, fmt.Errorf("workload: scale %d leaves an empty market", cfg.Scale)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	region := geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: BeijingWidthKM, Y: BeijingHeightKM})
	grid := geo.NewGrid(region, BeijingCols, BeijingRows)

	hot := hotspots(cfg.Variant)
	model, err := beijingDemandModel(cfg.Variant, grid, hot, rng)
	if err != nil {
		return nil, nil, err
	}
	timeOf := beijingTemporal(cfg.Variant)

	in := &market.Instance{
		Grid:    grid,
		Periods: BeijingPeriods,
		Tasks:   make([]market.Task, 0, nr),
		Workers: make([]market.Worker, 0, nw),
	}
	// Trip lengths: log-normal with median ~4 km, clipped to the region
	// scale — the shape of urban taxi trip statistics.
	tripLen := func() float64 {
		d := math.Exp(math.Log(4.0) + 0.55*rng.NormFloat64())
		return math.Min(d, 15)
	}
	for i := 0; i < nr; i++ {
		origin := hot.sample(rng, region)
		ang := rng.Float64() * 2 * math.Pi
		d := tripLen()
		dest := region.Clamp(geo.Point{
			X: origin.X + d*math.Cos(ang),
			Y: origin.Y + d*math.Sin(ang),
		})
		cell := grid.CellOf(origin)
		in.Tasks = append(in.Tasks, market.Task{
			ID:        i,
			Period:    timeOf(rng),
			Origin:    origin,
			Dest:      dest,
			Distance:  origin.Dist(dest),
			Valuation: model.Dist(cell).Sample(rng),
		})
	}
	for i := 0; i < nw; i++ {
		in.Workers = append(in.Workers, market.Worker{
			ID:       i,
			Period:   timeOf(rng),
			Loc:      hot.sample(rng, region),
			Radius:   BeijingRadiusKM,
			Duration: cfg.WorkerDuration,
		})
	}
	return in, model, nil
}

// hotspotMix is a mixture of 2-D Gaussian hotspots.
type hotspotMix struct {
	centers []geo.Point
	sigmas  []float64
	weights []float64 // cumulative
}

func (h hotspotMix) sample(rng *rand.Rand, region geo.Rect) geo.Point {
	u := rng.Float64()
	k := len(h.centers) - 1
	for i, w := range h.weights {
		if u <= w {
			k = i
			break
		}
	}
	return region.Clamp(geo.Point{
		X: h.centers[k].X + h.sigmas[k]*rng.NormFloat64(),
		Y: h.centers[k].Y + h.sigmas[k]*rng.NormFloat64(),
	})
}

// hotspots returns the spatial mixture per variant: the rush window is
// CBD-heavy (office districts, transport hubs); the night window clusters
// around nightlife areas with a wide diffuse component.
func hotspots(v BeijingVariant) hotspotMix {
	w, h := BeijingWidthKM, BeijingHeightKM
	if v == BeijingNight {
		return hotspotMix{
			centers: []geo.Point{{X: 0.55 * w, Y: 0.5 * h}, {X: 0.3 * w, Y: 0.65 * h}, {X: 0.5 * w, Y: 0.5 * h}},
			sigmas:  []float64{1.2, 1.5, 6},
			weights: []float64{0.45, 0.75, 1},
		}
	}
	return hotspotMix{
		centers: []geo.Point{{X: 0.6 * w, Y: 0.55 * h}, {X: 0.35 * w, Y: 0.4 * h}, {X: 0.75 * w, Y: 0.7 * h}, {X: 0.5 * w, Y: 0.5 * h}},
		sigmas:  []float64{1.5, 1.8, 1.2, 5},
		weights: []float64{0.35, 0.6, 0.8, 1},
	}
}

// beijingTemporal returns the start-period sampler: rush hour swells toward
// the middle of the two-hour window; the night window decays from midnight.
func beijingTemporal(v BeijingVariant) func(*rand.Rand) int {
	if v == BeijingNight {
		return func(rng *rand.Rand) int {
			// Exponential decay over the window.
			t := int(rng.ExpFloat64() * BeijingPeriods / 2.5)
			if t >= BeijingPeriods {
				t = BeijingPeriods - 1
			}
			return t
		}
	}
	return func(rng *rand.Rand) int {
		for {
			t := int(0.5*BeijingPeriods + 0.25*BeijingPeriods*rng.NormFloat64())
			if t >= 0 && t < BeijingPeriods {
				return t
			}
		}
	}
}

// beijingDemandModel assigns per-cell valuation distributions: hotspot cells
// (with more competition for rides) carry slightly higher willingness to
// pay, matching the paper's observation that imbalanced areas sustain
// higher prices. It works over any spatial backend: cells are whatever the
// space partitions the region into (uniform grid or road clusters).
func beijingDemandModel(v BeijingVariant, space spatial.Space, hot hotspotMix, rng *rand.Rand) (market.ValuationModel, error) {
	base := 2.0
	if v == BeijingNight {
		base = 2.3 // late-night riders pay more
	}
	cells := make(map[int]stats.Dist, space.NumCells())
	for g := 0; g < space.NumCells(); g++ {
		center := space.CellCenter(g)
		// Proximity to the nearest hotspot raises the local mean.
		nearest := math.Inf(1)
		for _, c := range hot.centers {
			if d := center.Dist(c); d < nearest {
				nearest = d
			}
		}
		mu := base + 0.6*math.Exp(-nearest/3.0) + 0.15*rng.NormFloat64()
		d, err := stats.NewTruncNormal(mu, 1.0, 1, 5)
		if err != nil {
			return nil, err
		}
		cells[g] = d
	}
	def, err := stats.NewTruncNormal(base, 1.0, 1, 5)
	if err != nil {
		return nil, err
	}
	return market.PerCellModel{Cells: cells, Default: def}, nil
}
