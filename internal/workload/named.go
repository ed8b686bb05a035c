package workload

import (
	"fmt"
	"strings"

	"spatialcrowd/internal/market"
)

// Named generates a workload by its command-line name on a spatial backend:
// the one switch behind cmd/serve and `experiments -exp run`. The grid
// backend serves "synthetic" (configured by syn), "beijing-rush" and
// "beijing-night"; the road backend serves the two Beijing-like workloads
// only, street-snapped. syn.Seed seeds every workload; duration is the
// Beijing worker duration delta_w and scale divides the Beijing populations
// (the synthetic populations are syn's, scaled or not by the caller).
func Named(space, name string, syn SyntheticConfig, duration, scale int) (*market.Instance, market.ValuationModel, error) {
	name = strings.ToLower(name)
	var variant BeijingVariant
	switch name {
	case "synthetic":
	case "beijing-rush":
		variant = BeijingRush
	case "beijing-night":
		variant = BeijingNight
	default:
		return nil, nil, fmt.Errorf("unknown workload %q (want synthetic, beijing-rush or beijing-night)", name)
	}
	switch strings.ToLower(space) {
	case "grid":
		if name == "synthetic" {
			return Synthetic(syn)
		}
		return BeijingLike(BeijingConfig{Variant: variant, WorkerDuration: duration, Scale: scale, Seed: syn.Seed})
	case "road":
		if name == "synthetic" {
			return nil, nil, fmt.Errorf("the road backend serves beijing-rush or beijing-night, not %s", name)
		}
		in, model, _, err := BeijingRoad(RoadConfig{Variant: variant, WorkerDuration: duration, Scale: scale, Seed: syn.Seed})
		return in, model, err
	}
	return nil, nil, fmt.Errorf("unknown space backend %q (known backends: grid, road)", space)
}
