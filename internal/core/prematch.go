package core

import "spatialcrowd/internal/match"

// preMatcher maintains MAPS's pre-matching M′ (Algorithm 2): an incremental
// matching over the period's bipartite graph used purely to validate that a
// grid can absorb one more unit of supply without violating the range
// constraints or double-booking a worker. The matcher and its candidate
// buffer are reused across periods (reset re-arms them), so steady-state
// validation allocates nothing.
type preMatcher struct {
	inc *match.Incremental
	buf []int // unassigned-candidate buffer, reused across probes
}

// reset re-arms the pre-matcher over a new period's graph, reusing the
// incremental matcher's arrays.
func (pm *preMatcher) reset(ctx *PeriodContext) {
	if pm.inc == nil {
		pm.inc = match.NewIncremental(ctx.Graph)
	} else {
		pm.inc.Reset(ctx.Graph)
	}
}

// unassigned collects the cell's tasks that are not yet in M′, preserving the
// distance-descending order so the supply curve consumes the largest
// distances first. The returned slice is the reused buffer, valid until the
// next unassigned call.
func (pm *preMatcher) unassigned(cr *cellRound) []int {
	pm.buf = pm.buf[:0]
	for _, ti := range cr.tasks {
		if !pm.inc.Matched(ti) {
			pm.buf = append(pm.buf, ti)
		}
	}
	return pm.buf
}

// augmentOne commits one more of the cell's tasks into M′ via an augmenting
// path (Algorithm 2, line 10). It reports whether a path existed.
func (pm *preMatcher) augmentOne(cr *cellRound) bool {
	return pm.inc.TryAugmentAny(pm.unassigned(cr)) >= 0
}

// canAugment reports whether some unassigned task of the cell admits an
// augmenting path, without mutating M′ (Algorithm 2, line 16).
func (pm *preMatcher) canAugment(cr *cellRound) bool {
	return pm.inc.CanAugmentAny(pm.unassigned(cr))
}
