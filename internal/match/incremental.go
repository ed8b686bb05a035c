package match

// Incremental maintains a matching under one-at-a-time left-vertex
// augmentations using Kuhn's algorithm. MAPS keeps one Incremental as the
// pre-matching M' of Algorithm 2: each time a grid wants one more unit of
// supply, it asks whether some still-unassigned task of that grid admits an
// augmenting path, and commits the flip if so (line 10).
//
// Failed searches are remembered until the matching changes in a way that
// could revive them. When a search from a free left vertex finds no
// augmenting path, the right vertices it visited form a closed region: every
// one is matched, its mate was searched too, and every neighbour of that mate
// lies in the region, is removed, or sits in an earlier such region. No
// augmenting path can enter a closed region, so a flip never touches it, and
// RemoveRight only shrinks it. Later searches skip these dead vertices. That
// skips only walks that would fail, so every search finds the same path, in
// the same order, as one that re-walks them. Reset forgets the dead regions,
// and so do Release and RestoreRight, which can free a matched right vertex
// or re-admit a removed one and so open a path. RestorePair forgets too, as
// a precaution on the restore path; it only pairs a free right vertex, which
// no dead region holds. TestIncrementalEqualsReference checks all of this
// against the matcher that re-walks every search.
type Incremental struct {
	g       *Graph
	m       *Matching
	visited []int // stamp of the last search that reached each right vertex
	removed []int // stamp-based removal marks (worker churn); see removedGen
	stamp   int
	// removedGen is the stamp meaning "removed in the current generation".
	// Reset bumps it instead of clearing the array, so re-arming the matcher
	// for a new batch is O(1) in the removal state.
	removedGen int
	// failed[s-deadFloor-1] records that search s ended without a path. A
	// right vertex is dead while the search that last reached it is one of
	// those; forget raises deadFloor past every stamp issued so far.
	failed    []bool
	deadFloor int
}

// NewIncremental returns an incremental matcher over g with an empty
// matching.
func NewIncremental(g *Graph) *Incremental {
	in := &Incremental{}
	in.Reset(g)
	return in
}

// Reset re-arms the matcher over a (possibly different) graph with an empty
// matching, reusing the visited, removal, failure and pairing arrays. The
// epoch stamps make the old marks unreadable without clearing them, so a
// per-batch reset costs O(nLeft + nRight) for the pairing fill and nothing
// else.
func (in *Incremental) Reset(g *Graph) {
	in.g = g
	if in.m == nil {
		in.m = NewMatching(g.NLeft(), g.NRight())
	} else {
		in.m.Reset(g.NLeft(), g.NRight())
	}
	in.visited = growStamps(in.visited, g.NRight())
	in.removed = growStamps(in.removed, g.NRight())
	in.removedGen++
	in.forget()
}

// forget revives every dead region: stamps up to the current one no longer
// count as failed.
func (in *Incremental) forget() {
	in.deadFloor = in.stamp
	in.failed = in.failed[:0]
}

// fail records that the current search found no augmenting path.
func (in *Incremental) fail() {
	for len(in.failed) < in.stamp-in.deadFloor-1 {
		in.failed = append(in.failed, false)
	}
	in.failed = append(in.failed, true)
}

// skip reports whether a search must not enter right vertex r: it is
// removed, already visited by the current search, or dead.
func (in *Incremental) skip(r int) bool {
	v := in.visited[r]
	if v == in.stamp || in.removed[r] == in.removedGen {
		return true
	}
	i := v - in.deadFloor - 1
	return uint(i) < uint(len(in.failed)) && in.failed[i]
}

// growStamps returns a length-n stamp array, reusing s when large enough.
// Stale stamps in the reused prefix stay: generations only move forward, so
// they can never equal a current stamp again.
func growStamps(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	grown := make([]int, n)
	copy(grown, s)
	return grown
}

// Matching exposes the current matching. Callers must treat it as read-only;
// mutating it corrupts the augmentation state.
func (in *Incremental) Matching() *Matching { return in.m }

// Matched reports whether left vertex l is currently matched.
func (in *Incremental) Matched(l int) bool { return in.m.LeftTo[l] >= 0 }

// Size returns the current matching size.
func (in *Incremental) Size() int { return in.m.Size() }

// TryAugment attempts to add left vertex l to the matching by finding an
// augmenting path from l. It returns true and flips the path if found; the
// matching is unchanged otherwise. Already-matched vertices return false.
// Complexity O(E) per call.
func (in *Incremental) TryAugment(l int) bool {
	if l < 0 || l >= in.g.NLeft() || in.Matched(l) {
		return false
	}
	in.stamp++
	if in.dfs(l) {
		return true
	}
	in.fail()
	return false
}

// TryAugmentAny attempts TryAugment on each candidate in order and returns
// the first left vertex that was successfully matched, or -1. MAPS calls it
// with the unassigned tasks of one grid.
func (in *Incremental) TryAugmentAny(candidates []int) int {
	for _, l := range candidates {
		if in.TryAugment(l) {
			return l
		}
	}
	return -1
}

// CanAugmentAny reports whether at least one candidate admits an augmenting
// path without committing any change. MAPS uses it for the "is there an
// augmenting path for any unassigned r in R^tg" test of Algorithm 2 line 16.
func (in *Incremental) CanAugmentAny(candidates []int) bool {
	for _, l := range candidates {
		if l < 0 || l >= in.g.NLeft() || in.Matched(l) {
			continue
		}
		in.stamp++
		if in.probe(l) {
			return true
		}
		in.fail()
	}
	return false
}

// dfs searches for an augmenting path from l and flips it when found. It
// walks l's list as materialised so far and extends a lazy one only when it
// has read every entry, so the search reads the complete list's entries in
// the same order and stops as early as ever.
func (in *Incremental) dfs(l int) bool {
	adj := in.g.adj[l]
	for {
		for _, r := range adj {
			if in.skip(r) {
				continue
			}
			in.visited[r] = in.stamp
			if in.m.RightTo[r] < 0 || in.dfs(in.m.RightTo[r]) {
				in.m.LeftTo[l] = r
				in.m.RightTo[r] = l
				return true
			}
		}
		if adj = in.g.more(l); adj == nil {
			return false
		}
	}
}

// probe is dfs without committing the flip.
func (in *Incremental) probe(l int) bool {
	adj := in.g.adj[l]
	for {
		for _, r := range adj {
			if in.skip(r) {
				continue
			}
			in.visited[r] = in.stamp
			if in.m.RightTo[r] < 0 || in.probe(in.m.RightTo[r]) {
				return true
			}
		}
		if adj = in.g.more(l); adj == nil {
			return false
		}
	}
}

// Release unmatches left vertex l if matched, freeing its worker. The
// simulator uses it when a priced task is ultimately rejected by its
// requester, returning the provisional supply to the pool.
func (in *Incremental) Release(l int) {
	if l < 0 || l >= in.g.NLeft() {
		return
	}
	if r := in.m.LeftTo[l]; r >= 0 {
		in.m.LeftTo[l] = -1
		in.m.RightTo[r] = -1
		in.forget()
	}
}

// RemoveRight withdraws right vertex r from service: it is unmatched (if
// matched) and excluded from every future augmentation. The streaming
// dispatch engine uses it when a worker goes offline while a pricing batch
// is in flight. It returns the left vertex that lost its partner, or -1 if r
// was unmatched, already removed, or out of range; callers typically try to
// re-augment the freed left vertex to repair the matching.
func (in *Incremental) RemoveRight(r int) int {
	if r < 0 || r >= in.g.NRight() || in.removed[r] == in.removedGen {
		return -1
	}
	in.removed[r] = in.removedGen
	l := in.m.RightTo[r]
	if l < 0 {
		return -1
	}
	in.m.RightTo[r] = -1
	in.m.LeftTo[l] = -1
	return l
}

// RestoreRight re-admits a previously removed right vertex (unmatched). It
// reports whether the vertex was in the removed state.
func (in *Incremental) RestoreRight(r int) bool {
	if r < 0 || r >= in.g.NRight() || in.removed[r] != in.removedGen {
		return false
	}
	in.removed[r] = 0
	in.forget()
	return true
}

// Removed reports whether right vertex r has been withdrawn from service.
func (in *Incremental) Removed(r int) bool {
	return r >= 0 && r < in.g.NRight() && in.removed[r] == in.removedGen
}

// RestorePair force-installs the pairing (l, r) without searching for an
// augmenting path. It exists for checkpoint restore: a matcher re-armed
// over a deterministically rebuilt graph is brought back to its recorded
// matching pair by pair. Both vertices must be unmatched and r not removed;
// violations report false and change nothing.
func (in *Incremental) RestorePair(l, r int) bool {
	if l < 0 || l >= in.g.NLeft() || r < 0 || r >= in.g.NRight() {
		return false
	}
	if in.m.LeftTo[l] >= 0 || in.m.RightTo[r] >= 0 || in.removed[r] == in.removedGen {
		return false
	}
	in.m.LeftTo[l] = r
	in.m.RightTo[r] = l
	in.forget()
	return true
}
