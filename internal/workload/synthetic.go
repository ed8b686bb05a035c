// Package workload generates the market instances of the paper's evaluation:
// the synthetic parameter grid of Table 3 and a Beijing-like taxi workload
// standing in for the proprietary Didi dataset of Table 4 (see the experiment
// index in EXPERIMENTS.md for the substitution).
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/roadnet"
	"spatialcrowd/internal/stats"
)

// DemandKind selects the family of the valuation (demand) distribution.
type DemandKind int

const (
	// DemandNormal draws valuations from a per-grid normal conditioned on
	// [VMin, VMax] — the paper's default demand model.
	DemandNormal DemandKind = iota
	// DemandExponential draws valuations from a shifted exponential
	// conditioned on [VMin, VMax] — the appendix-D variant (Figure 10).
	DemandExponential
)

// Metric selects how task travel distances d_r are computed (Section 2.1
// allows "Euclidean or road-network distance").
type Metric int

const (
	// MetricEuclidean is the straight-line distance (the default).
	MetricEuclidean Metric = iota
	// MetricManhattan is the L1 distance, a cheap road proxy.
	MetricManhattan
	// MetricRoadNetwork routes trips over a synthetic jittered grid city
	// (see internal/roadnet) with nearest-node snapping.
	MetricRoadNetwork
)

// SyntheticConfig mirrors Table 3. Zero values are replaced by the bold
// defaults of the table.
type SyntheticConfig struct {
	Workers  int // |W|, default 5000
	Requests int // |R|, default 20000
	Periods  int // T, default 400
	GridSide int // default 10 (G = 10x10 grids)

	// TemporalMu positions the mean of task start times as a fraction of the
	// horizon (0.1..0.9, default 0.5). Worker start times always center at
	// T/2, matching the evaluation ("The mean for the workers is fixed at
	// T/2").
	TemporalMu float64
	// TemporalSigma is the start-time standard deviation as a fraction of
	// the horizon (default 0.2).
	TemporalSigma float64

	// SpatialMean positions the mean of task origins on the diagonal of the
	// 100x100 region (0.1..0.9, default 0.5); workers always center at 0.5.
	SpatialMean float64
	// SpatialSigma is the origin standard deviation (default 20 units).
	SpatialSigma float64

	// DemandMu is the global mean of the valuation distribution (1..3,
	// default 2); each grid's own mean is drawn N(DemandMu, GridMuSigma).
	DemandMu float64
	// DemandSigma is the valuation standard deviation (0.5..2.5, default 1).
	DemandSigma float64
	// GridMuSigma is the across-grid dispersion of per-grid demand means
	// (default 0.3); it creates the heterogeneous local markets dynamic
	// pricing exploits.
	GridMuSigma float64
	// Demand selects the distribution family (default DemandNormal).
	Demand DemandKind
	// ExpRate is the exponential rate alpha for DemandExponential
	// (0.5..1.5, default 1).
	ExpRate float64

	// Radius is the worker range constraint a_w (5..25, default 10).
	Radius float64
	// WorkerDuration is how many periods a worker stays available if not
	// consumed (default 1: workers are per-period supply, as in the paper's
	// synthetic model where only start times are drawn; the real-data
	// experiments sweep multi-period durations explicitly).
	WorkerDuration int
	// DistanceMetric selects how d_r is computed (default MetricEuclidean).
	DistanceMetric Metric
	// VMin, VMax bound valuations (default [1, 5]).
	VMin, VMax float64

	// Seed drives all randomness; runs with equal configs are identical.
	Seed int64
}

// withDefaults returns cfg with zero fields replaced by Table 3's bold
// defaults.
func (cfg SyntheticConfig) withDefaults() SyntheticConfig {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	deff := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	def(&cfg.Workers, 5000)
	def(&cfg.Requests, 20000)
	def(&cfg.Periods, 400)
	def(&cfg.GridSide, 10)
	deff(&cfg.TemporalMu, 0.5)
	deff(&cfg.TemporalSigma, 0.2)
	deff(&cfg.SpatialMean, 0.5)
	deff(&cfg.SpatialSigma, 20)
	deff(&cfg.DemandMu, 2)
	deff(&cfg.DemandSigma, 1)
	deff(&cfg.GridMuSigma, 0.3)
	deff(&cfg.ExpRate, 1)
	deff(&cfg.Radius, 10)
	def(&cfg.WorkerDuration, 1)
	deff(&cfg.VMin, 1)
	deff(&cfg.VMax, 5)
	return cfg
}

// Validate rejects nonsensical configurations after defaulting.
func (cfg SyntheticConfig) Validate() error {
	c := cfg.withDefaults()
	if c.Workers < 0 || c.Requests < 0 {
		return fmt.Errorf("workload: negative population (%d workers, %d requests)", c.Workers, c.Requests)
	}
	if c.Periods <= 0 || c.GridSide <= 0 {
		return fmt.Errorf("workload: need positive periods and grid side, got %d/%d", c.Periods, c.GridSide)
	}
	if c.TemporalMu < 0 || c.TemporalMu > 1 || c.SpatialMean < 0 || c.SpatialMean > 1 {
		return fmt.Errorf("workload: temporal/spatial means are fractions in [0,1]")
	}
	if c.VMin >= c.VMax {
		return fmt.Errorf("workload: need VMin < VMax, got [%v,%v]", c.VMin, c.VMax)
	}
	if c.Radius <= 0 {
		return fmt.Errorf("workload: need positive radius, got %v", c.Radius)
	}
	return nil
}

// RegionSide is the synthetic region's extent (Table 3: a 100x100 square).
const RegionSide = 100.0

// Synthetic generates a complete market instance per Table 3, including
// hidden private valuations, and returns it with the valuation model used
// (for oracle calibration).
func Synthetic(cfg SyntheticConfig) (*market.Instance, market.ValuationModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	c := cfg.withDefaults()
	rng := rand.New(rand.NewSource(c.Seed))
	grid := geo.SquareGrid(RegionSide, c.GridSide)

	model, err := buildDemandModel(c, grid, rng)
	if err != nil {
		return nil, nil, err
	}

	in := &market.Instance{
		Grid:    grid,
		Periods: c.Periods,
		Tasks:   make([]market.Task, 0, c.Requests),
		Workers: make([]market.Worker, 0, c.Workers),
	}

	taskTime := truncTime(c.TemporalMu, c.TemporalSigma, c.Periods)
	workerTime := truncTime(0.5, c.TemporalSigma, c.Periods)
	taskCenter := geo.Point{X: c.SpatialMean * RegionSide, Y: c.SpatialMean * RegionSide}
	workerCenter := geo.Point{X: 0.5 * RegionSide, Y: 0.5 * RegionSide}

	distance, err := distanceFunc(c, rng)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < c.Requests; i++ {
		origin := gaussPoint(taskCenter, c.SpatialSigma, rng)
		dest := geo.Point{X: rng.Float64() * RegionSide, Y: rng.Float64() * RegionSide}
		cell := grid.CellOf(origin)
		in.Tasks = append(in.Tasks, market.Task{
			ID:        i,
			Period:    taskTime(rng),
			Origin:    origin,
			Dest:      dest,
			Distance:  distance(origin, dest),
			Valuation: model.Dist(cell).Sample(rng),
		})
	}
	for i := 0; i < c.Workers; i++ {
		in.Workers = append(in.Workers, market.Worker{
			ID:       i,
			Period:   workerTime(rng),
			Loc:      gaussPoint(workerCenter, c.SpatialSigma, rng),
			Radius:   c.Radius,
			Duration: c.WorkerDuration,
		})
	}
	return in, model, nil
}

// buildDemandModel draws one valuation distribution per grid cell.
func buildDemandModel(c SyntheticConfig, grid geo.Grid, rng *rand.Rand) (market.ValuationModel, error) {
	cells := make(map[int]stats.Dist, grid.NumCells())
	for g := 0; g < grid.NumCells(); g++ {
		switch c.Demand {
		case DemandNormal:
			mu := c.DemandMu + c.GridMuSigma*rng.NormFloat64()
			d, err := stats.NewTruncNormal(mu, c.DemandSigma, c.VMin, c.VMax)
			if err != nil {
				return nil, err
			}
			cells[g] = d
		case DemandExponential:
			rate := c.ExpRate * math.Exp(0.15*rng.NormFloat64()) // mild per-grid variety
			d, err := stats.NewTruncated(stats.Exponential{Rate: rate, Shift: c.VMin}, c.VMin, c.VMax)
			if err != nil {
				return nil, err
			}
			cells[g] = d
		default:
			return nil, fmt.Errorf("workload: unknown demand kind %d", c.Demand)
		}
	}
	def, err := stats.NewTruncNormal(c.DemandMu, c.DemandSigma, c.VMin, c.VMax)
	if err != nil {
		return nil, err
	}
	return market.PerCellModel{Cells: cells, Default: def}, nil
}

// distanceFunc builds the d_r metric for the configured DistanceMetric.
func distanceFunc(c SyntheticConfig, rng *rand.Rand) (func(a, b geo.Point) float64, error) {
	switch c.DistanceMetric {
	case MetricEuclidean:
		return func(a, b geo.Point) float64 { return a.Dist(b) }, nil
	case MetricManhattan:
		return func(a, b geo.Point) float64 {
			return math.Abs(a.X-b.X) + math.Abs(a.Y-b.Y)
		}, nil
	case MetricRoadNetwork:
		city, err := roadnet.GridCity(roadnet.GridCityConfig{
			Region:   geo.Square(RegionSide),
			Cols:     20,
			Rows:     20,
			Jitter:   0.25,
			DropProb: 0.05,
			Seed:     c.Seed + 1,
		})
		if err != nil {
			return nil, err
		}
		return city.Distance, nil
	default:
		return nil, fmt.Errorf("workload: unknown distance metric %d", c.DistanceMetric)
	}
}

// truncTime returns a sampler of start periods from a normal centered at
// muFrac*T with sd sigmaFrac*T, conditioned on [0, T).
func truncTime(muFrac, sigmaFrac float64, periods int) func(*rand.Rand) int {
	mu := muFrac * float64(periods)
	sigma := sigmaFrac * float64(periods)
	return func(rng *rand.Rand) int {
		for i := 0; i < 1000; i++ {
			t := int(mu + sigma*rng.NormFloat64())
			if t >= 0 && t < periods {
				return t
			}
		}
		// Pathological window: clamp.
		t := int(mu)
		if t < 0 {
			t = 0
		}
		if t >= periods {
			t = periods - 1
		}
		return t
	}
}

// gaussPoint samples a 2-D Gaussian point clamped into the region.
func gaussPoint(center geo.Point, sigma float64, rng *rand.Rand) geo.Point {
	p := geo.Point{
		X: center.X + sigma*rng.NormFloat64(),
		Y: center.Y + sigma*rng.NormFloat64(),
	}
	return geo.Square(RegionSide).Clamp(p)
}
