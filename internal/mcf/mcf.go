// Package mcf implements a minimum-cost flow solver using the successive
// shortest path algorithm with Johnson node potentials (Dijkstra on reduced
// costs). It replaces the LEMON C++ library the paper's prototype uses for
// computing OPT's decisions (§2.1).
//
// The solver supports arbitrary directed graphs with integral capacities and
// integral edge costs, and multiple sources/sinks via per-node supplies.
// Edge costs must be non-negative: the OPT (FOO) graphs built by package opt
// only ever need non-negative costs, and this restriction lets every
// shortest-path search use Dijkstra.
package mcf

import (
	"errors"
	"fmt"
	"math"
)

// Graph is a directed graph with capacities, costs, and node supplies.
// The zero value is not usable; create graphs with NewGraph.
type Graph struct {
	n      int
	supply []int64

	// Forward edges in insertion order; Solve builds the residual
	// network from these and writes the routed flow back into flow.
	from []int32
	to   []int32
	cap  []int64
	cost []int64
	flow []int64

	solved bool
}

// NewGraph returns an empty graph with n nodes, numbered 0..n-1.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic("mcf: negative node count")
	}
	return &Graph{n: n, supply: make([]int64, n)}
}

// Reset reuses the graph's arrays for a fresh n-node instance, dropping
// all edges and supplies. Repeated solves over same-shaped problems (the
// per-segment OPT graphs) reuse one Graph instead of reallocating the
// edge arrays each time.
func (g *Graph) Reset(n int) {
	if n < 0 {
		panic("mcf: negative node count")
	}
	if cap(g.supply) < n {
		g.supply = make([]int64, n)
	}
	g.supply = g.supply[:n]
	for i := range g.supply {
		g.supply[i] = 0
	}
	g.n = n
	g.from = g.from[:0]
	g.to = g.to[:0]
	g.cap = g.cap[:0]
	g.cost = g.cost[:0]
	g.flow = g.flow[:0]
	g.solved = false
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of forward edges added via AddEdge.
func (g *Graph) NumEdges() int { return len(g.to) }

// AddEdge adds a directed edge from -> to with the given capacity and
// non-negative per-unit cost, returning an edge handle for Flow.
func (g *Graph) AddEdge(from, to int, capacity, cost int64) int {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("mcf: AddEdge(%d,%d) out of range [0,%d)", from, to, g.n))
	}
	if capacity < 0 {
		panic("mcf: negative capacity")
	}
	if cost < 0 {
		panic("mcf: negative cost")
	}
	g.from = append(g.from, int32(from))
	g.to = append(g.to, int32(to))
	g.cap = append(g.cap, capacity)
	g.cost = append(g.cost, cost)
	g.flow = append(g.flow, 0)
	return len(g.to) - 1
}

// SetSupply sets the flow excess of a node: positive for sources, negative
// for sinks. Supplies must sum to zero across the graph for Solve to
// succeed.
func (g *Graph) SetSupply(node int, supply int64) {
	g.supply[node] = supply
}

// AddSupply adds to the flow excess of a node.
func (g *Graph) AddSupply(node int, delta int64) {
	g.supply[node] += delta
}

// Flow returns the flow routed on a forward edge after Solve.
func (g *Graph) Flow(edge int) int64 {
	return g.flow[edge]
}

// ErrInfeasible is returned when supplies cannot be routed to demands
// within the edge capacities.
var ErrInfeasible = errors.New("mcf: infeasible flow problem")

// ErrUnbalanced is returned when node supplies do not sum to zero.
var ErrUnbalanced = errors.New("mcf: supplies do not sum to zero")

// Solve routes all supply to demand at minimum total cost and returns that
// cost. Solve may be called once per graph. Callers solving many graphs
// should allocate one Solver and reuse it; this convenience wrapper
// allocates fresh scratch every call.
func (g *Graph) Solve() (int64, error) {
	return NewSolver().Solve(g)
}

// arc is one residual arc in the solver's CSR adjacency: every forward
// edge contributes an arc at its origin and a zero-capacity twin (cost
// negated) at its head, and rev links the two. Keeping the fields the
// Dijkstra scan reads in one struct makes each relaxation one cache line.
type arc struct {
	to   int32
	rev  int32
	cap  int64
	cost int64
}

// node is the per-node search state, packed so a relaxation touches one
// struct instead of four parallel arrays.
type node struct {
	dist    int64
	pot     int64
	prev    int32 // arc slot that reached this node on the last search
	visited bool
}

// Solver holds the successive-shortest-path scratch state — the CSR
// residual network, per-node potentials and search state, the Dijkstra
// heap — so that repeated solves (one per OPT window segment) reuse a
// single allocation instead of rebuilding the arrays per graph. A Solver
// is not safe for concurrent use; give each worker its own.
type Solver struct {
	start []int32 // arcs of node u are arcs[start[u]:start[u+1]]
	fill  []int32 // per-node insertion cursor while building
	arcs  []arc
	twin  []int32 // twin arc slot of each forward edge, for flow read-back
	nodes []node
	h     heap
}

// NewSolver returns an empty solver; scratch grows to fit the largest
// graph it solves and is retained between calls.
func NewSolver() *Solver {
	return &Solver{}
}

// Solve routes all supply to demand at minimum total cost and returns
// that cost. Each graph may be solved once; the solver itself is reusable
// across graphs.
func (s *Solver) Solve(g *Graph) (int64, error) {
	if g.solved {
		return 0, errors.New("mcf: Solve called twice")
	}
	g.solved = true

	var balance, totalSupply int64
	for _, sup := range g.supply {
		balance += sup
		if sup > 0 {
			totalSupply += sup
		}
	}
	if balance != 0 {
		return 0, fmt.Errorf("%w: total %d", ErrUnbalanced, balance)
	}

	// Super-source / super-sink reformulation: two extra nodes connected
	// to every source and sink.
	src, t := g.n, g.n+1
	s.build(g, src, t)

	var totalCost int64
	routed := int64(0)
	for routed < totalSupply {
		if !s.dijkstra(src, t) {
			return 0, fmt.Errorf("%w: %d of %d units unroutable", ErrInfeasible, totalSupply-routed, totalSupply)
		}
		// Update potentials. Dijkstra terminated as soon as t was
		// finalized, so tentative distances beyond dist[t] are not
		// final; clamping to dist[t] preserves the reduced-cost
		// invariant (standard early-termination fix).
		dt := s.nodes[t].dist
		for v := range s.nodes {
			nd := &s.nodes[v]
			if nd.dist < dt {
				nd.pot += nd.dist
			} else {
				nd.pot += dt
			}
		}
		n, c := s.augment(src, t, totalSupply-routed)
		routed += n
		totalCost += c
	}
	for k, tw := range s.twin {
		g.flow[k] = s.arcs[tw].cap // residual capacity of the twin = routed flow
	}
	return totalCost, nil
}

// build lays the residual network of g plus the super-source/sink arcs
// out in CSR form. Arc e (forward edge k is arc 2k, its twin 2k+1, and
// the super arcs follow the graph's edges, one per source or sink in
// node order) is placed by a counting sort on its origin, taking slots in
// descending e. Each node therefore scans its arcs newest first — the
// order an adjacency list built by prepending on insert would walk — and
// the search breaks ties between equal-distance paths the same way on
// every solve.
func (s *Solver) build(g *Graph, src, t int) {
	nn := g.n + 2
	m := len(g.to)
	if cap(s.start) < nn+1 {
		s.start = make([]int32, nn+1)
		s.fill = make([]int32, nn+1)
		s.nodes = make([]node, nn)
	}
	s.start = s.start[:nn+1]
	s.fill = s.fill[:nn+1]
	s.nodes = s.nodes[:nn]
	clear(s.start)
	for i := range s.nodes {
		s.nodes[i].pot = 0
	}

	// Out-degree counts, shifted by one so the prefix sum yields starts.
	deg := s.start[1:]
	for k := 0; k < m; k++ {
		deg[g.from[k]]++
		deg[g.to[k]]++
	}
	for v := 0; v < g.n; v++ {
		if g.supply[v] != 0 {
			deg[v]++
			if g.supply[v] > 0 {
				deg[src]++
			} else {
				deg[t]++
			}
		}
	}
	for u := 1; u <= nn; u++ {
		s.start[u] += s.start[u-1]
	}
	copy(s.fill, s.start)
	na := int(s.start[nn])
	if cap(s.arcs) < na {
		s.arcs = make([]arc, na)
	}
	s.arcs = s.arcs[:na]
	if cap(s.twin) < m {
		s.twin = make([]int32, m)
	}
	s.twin = s.twin[:m]

	// Super arcs come last in arc order, so they are placed first,
	// highest node first.
	for v := g.n - 1; v >= 0; v-- {
		switch sup := g.supply[v]; {
		case sup > 0:
			s.place(src, v, sup, 0)
		case sup < 0:
			s.place(v, t, -sup, 0)
		}
	}
	for k := m - 1; k >= 0; k-- {
		s.twin[k] = s.place(int(g.from[k]), int(g.to[k]), g.cap[k], g.cost[k])
	}
}

// place adds one forward edge's arc pair, twin first (the twin has the
// higher arc number), and returns the twin's slot.
func (s *Solver) place(from, to int, capacity, cost int64) int32 {
	tw := s.fill[to]
	s.fill[to]++
	fw := s.fill[from]
	s.fill[from]++
	s.arcs[tw] = arc{to: int32(from), rev: fw, cap: 0, cost: -cost}
	s.arcs[fw] = arc{to: int32(to), rev: tw, cap: capacity, cost: cost}
	return tw
}

// dijkstra runs one shortest-path pass from src over reduced costs,
// filling each node's dist and prev, and reports whether t was reached.
// One pass runs per augmenting path, so this is the solver's hottest loop
// and is held to the zero-allocation discipline.
//
//lfo:hotpath
func (s *Solver) dijkstra(src, t int) bool {
	nodes, arcs, start := s.nodes, s.arcs, s.start
	for i := range nodes {
		nodes[i].dist = math.MaxInt64
		nodes[i].visited = false
		nodes[i].prev = -1
	}
	nodes[src].dist = 0
	h := &s.h
	h.reset()
	h.push(0, int32(src))
	for h.len() > 0 {
		d, u := h.pop()
		nu := &nodes[u]
		if nu.visited {
			continue
		}
		nu.visited = true
		if int(u) == t {
			break
		}
		base := d + nu.pot
		lo := start[u]
		for i, a := range arcs[lo:start[u+1]] {
			if a.cap <= 0 {
				continue
			}
			nv := &nodes[a.to]
			if nv.visited {
				continue
			}
			nd := base + a.cost - nv.pot
			if nd < nv.dist {
				nv.dist = nd
				nv.prev = lo + int32(i)
				h.push(nd, a.to)
			}
		}
	}
	return nodes[t].visited
}

// augment pushes flow along the predecessor path t..src recorded by
// dijkstra, bounded by remaining, and returns the units routed and their
// cost contribution.
//
//lfo:hotpath
func (s *Solver) augment(src, t int, remaining int64) (int64, int64) {
	nodes, arcs := s.nodes, s.arcs
	bottleneck := remaining
	for v := int32(t); int(v) != src; {
		a := &arcs[nodes[v].prev]
		if a.cap < bottleneck {
			bottleneck = a.cap
		}
		v = arcs[a.rev].to
	}
	var cost int64
	for v := int32(t); int(v) != src; {
		a := &arcs[nodes[v].prev]
		a.cap -= bottleneck
		arcs[a.rev].cap += bottleneck
		cost += bottleneck * a.cost
		v = arcs[a.rev].to
	}
	return bottleneck, cost
}
