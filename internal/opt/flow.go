package opt

import (
	"fmt"
	"slices"
	"sort"
)

// flowSegment builds the FOO min-cost flow graph (Figure 4 of the paper)
// over one segment's intervals and marks Admit[i] for every interval whose
// bytes are routed entirely along the cache (central) path.
//
// The graph uses the per-interval formulation, which is equivalent to the
// paper's first-to-last-request formulation after supply cancellation at
// interior nodes: each interval injects size bytes at its start request and
// withdraws them at its end request; a bypass arc of capacity size and
// per-byte cost C/S models a miss, while central arcs of zero cost model
// storing bytes in the cache. A central arc's capacity is the cache size
// minus the bytes already reserved by stitched boundary intervals over the
// arc's time span, so segments never overcommit shared capacity.
//
// Only request indices that appear as interval endpoints become nodes
// (consecutive endpoints are joined by a single central arc), which keeps
// the graph small when rank selection drops intervals.
//
// sc.occ must be sized for the segment and pre-seeded with the boundary
// occupancy (indices relative to sg.lo); the graph, solver, and buffers in
// sc are reused across calls.
func flowSegment(sg *segment, cfg Config, res *Result, sc *solveScratch) error {
	// Collect endpoint request indices and compress to node ids: sort,
	// dedup in place, and look nodes up by binary search — no maps, so the
	// hot path stays allocation-free across reuses.
	idx := slices.Grow(sc.idx[:0], 2*len(sg.ivs))
	for _, iv := range sg.ivs {
		idx = append(idx, iv.from, iv.to)
	}
	sort.Ints(idx)
	m := 0
	for _, v := range idx {
		if m == 0 || v != idx[m-1] {
			idx[m] = v
			m++
		}
	}
	idx = idx[:m]
	sc.idx = idx

	g := sc.g
	g.Reset(len(idx))
	// Central path: consecutive compressed nodes, capacity = cache size
	// minus peak boundary occupancy over the gap.
	for k := 0; k+1 < len(idx); k++ {
		free := cfg.CacheSize - sc.occ.Max(idx[k]-sg.lo, idx[k+1]-sg.lo)
		if free < 0 {
			free = 0
		}
		g.AddEdge(k, k+1, free, 0)
	}
	// Bypass arcs and supplies per interval.
	bypass := slices.Grow(sc.bypass[:0], len(sg.ivs))
	for _, iv := range sg.ivs {
		perByte := iv.cost / float64(iv.size) * float64(cfg.CostScale)
		c := int64(perByte + 0.5)
		if c < 1 {
			c = 1
		}
		u := sort.SearchInts(idx, iv.from)
		v := sort.SearchInts(idx, iv.to)
		bypass = append(bypass, g.AddEdge(u, v, iv.size, c))
		g.AddSupply(u, iv.size)
		g.AddSupply(v, -iv.size)
	}
	sc.bypass = bypass

	if _, err := sc.solver.Solve(g); err != nil {
		return fmt.Errorf("FOO flow solve: %w", err)
	}
	for k, iv := range sg.ivs {
		// Cached iff no byte bypassed the cache (§2.1: "verify that all
		// the request's bytes are routed along the central path").
		res.Admit[iv.from] = g.Flow(bypass[k]) == 0
	}
	repairSegment(sg, cfg, res, sc)
	return nil
}

// repairSegment greedily re-admits intervals the flow extraction left
// out. Min-cost flow optima can split an interval's bytes between the
// cache and the bypass (footnote 2 of the paper); the all-bytes-central
// extraction rule then discards the interval even when fully caching it
// would have been feasible. The repair replays occupancy of the admitted
// set on top of the boundary reservation already in sc.occ and adds any
// remaining interval, highest C/(S·L) rank first, that fits at every time
// step. The result is feasible and never worse than the raw extraction.
func repairSegment(sg *segment, cfg Config, res *Result, sc *solveScratch) {
	rest := slices.Grow(sc.rest[:0], len(sg.ivs))
	for _, iv := range sg.ivs {
		if res.Admit[iv.from] {
			sc.occ.Add(iv.from-sg.lo, iv.to-sg.lo, iv.size)
		} else {
			rest = append(rest, iv)
		}
	}
	sortByRank(rest)
	for _, iv := range rest {
		if sc.occ.Max(iv.from-sg.lo, iv.to-sg.lo)+iv.size <= cfg.CacheSize {
			sc.occ.Add(iv.from-sg.lo, iv.to-sg.lo, iv.size)
			res.Admit[iv.from] = true
		}
	}
	sc.rest = rest[:0]
}
