package mcf

import (
	"math"
	"math/rand"
	"testing"
)

// refGraph is the solver as it stood before the CSR adjacency: edges in
// head/next chains (each node walks its arcs newest first) and a
// struct-of-arrays heap with swap-based sifting. It is kept only as an
// oracle: under uniform bypass costs the min-cost flow has many optima,
// and the production solver must pick exactly the one this code picks.
type refGraph struct {
	n      int
	supply []int64
	to     []int32
	cap    []int64
	cost   []int64
	head   []int32
	next   []int32
}

func newRefGraph(n int) *refGraph {
	head := make([]int32, n)
	for i := range head {
		head[i] = -1
	}
	return &refGraph{n: n, supply: make([]int64, n), head: head}
}

func (g *refGraph) addEdge(from, to int, capacity, cost int64) int {
	id := len(g.to) / 2
	g.to = append(g.to, int32(to))
	g.cap = append(g.cap, capacity)
	g.cost = append(g.cost, cost)
	g.next = append(g.next, g.head[from])
	g.head[from] = int32(len(g.to) - 1)
	g.to = append(g.to, int32(from))
	g.cap = append(g.cap, 0)
	g.cost = append(g.cost, -cost)
	g.next = append(g.next, g.head[to])
	g.head[to] = int32(len(g.to) - 1)
	return id
}

func (g *refGraph) flow(edge int) int64 { return g.cap[2*edge+1] }

type refHeap struct {
	dist []int64
	node []int32
}

func (h *refHeap) push(d int64, n int32) {
	h.dist = append(h.dist, d)
	h.node = append(h.node, n)
	i := len(h.dist) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.dist[p] <= h.dist[i] {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *refHeap) pop() (int64, int32) {
	d, n := h.dist[0], h.node[0]
	last := len(h.dist) - 1
	h.dist[0], h.node[0] = h.dist[last], h.node[last]
	h.dist = h.dist[:last]
	h.node = h.node[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.dist[l] < h.dist[small] {
			small = l
		}
		if r < last && h.dist[r] < h.dist[small] {
			small = r
		}
		if small == i {
			break
		}
		h.swap(i, small)
		i = small
	}
	return d, n
}

func (h *refHeap) swap(i, j int) {
	h.dist[i], h.dist[j] = h.dist[j], h.dist[i]
	h.node[i], h.node[j] = h.node[j], h.node[i]
}

// solve is the successive-shortest-path loop with Johnson potentials and
// early-terminated Dijkstra, exactly as the production solver runs it.
// It reports ok=false when the supplies cannot all be routed.
func (g *refGraph) solve() (int64, bool) {
	src, t := g.n, g.n+1
	g.head = append(g.head, -1, -1)
	var totalSupply int64
	for v := 0; v < g.n; v++ {
		if g.supply[v] > 0 {
			g.addEdge(src, v, g.supply[v], 0)
			totalSupply += g.supply[v]
		} else if g.supply[v] < 0 {
			g.addEdge(v, t, -g.supply[v], 0)
		}
	}
	nn := g.n + 2
	pot := make([]int64, nn)
	dist := make([]int64, nn)
	visited := make([]bool, nn)
	prevEdge := make([]int32, nn)
	var totalCost, routed int64
	for routed < totalSupply {
		for i := range dist {
			dist[i] = math.MaxInt64
			visited[i] = false
			prevEdge[i] = -1
		}
		dist[src] = 0
		h := &refHeap{}
		h.push(0, int32(src))
		for len(h.dist) > 0 {
			d, u := h.pop()
			if visited[u] {
				continue
			}
			visited[u] = true
			if int(u) == t {
				break
			}
			for e := g.head[u]; e != -1; e = g.next[e] {
				if g.cap[e] <= 0 {
					continue
				}
				v := g.to[e]
				if visited[v] {
					continue
				}
				nd := d + g.cost[e] + pot[u] - pot[v]
				if nd < dist[v] {
					dist[v] = nd
					prevEdge[v] = e
					h.push(nd, v)
				}
			}
		}
		if !visited[t] {
			return 0, false
		}
		dt := dist[t]
		for v := 0; v < nn; v++ {
			if dist[v] < dt {
				pot[v] += dist[v]
			} else {
				pot[v] += dt
			}
		}
		bottleneck := totalSupply - routed
		for v := int32(t); int(v) != src; {
			e := prevEdge[v]
			if g.cap[e] < bottleneck {
				bottleneck = g.cap[e]
			}
			v = g.to[e^1]
		}
		for v := int32(t); int(v) != src; {
			e := prevEdge[v]
			g.cap[e] -= bottleneck
			g.cap[e^1] += bottleneck
			totalCost += bottleneck * g.cost[e]
			v = g.to[e^1]
		}
		routed += bottleneck
	}
	return totalCost, true
}

// testEdge is one forward edge of a generated instance.
type testEdge struct {
	from, to  int
	cap, cost int64
}

// testInstance is a generated flow problem, built identically into the
// production Graph and the oracle.
type testInstance struct {
	n      int
	edges  []testEdge
	supply []int64
}

// randomInstance draws a general graph: random arcs (self-loops and
// parallel arcs included) with costs from a small range, so many paths
// tie, and balanced random supplies that may or may not be routable.
func randomInstance(rng *rand.Rand) testInstance {
	n := 2 + rng.Intn(30)
	in := testInstance{n: n, supply: make([]int64, n)}
	for i, m := 0, rng.Intn(4*n); i < m; i++ {
		in.edges = append(in.edges, testEdge{rng.Intn(n), rng.Intn(n), int64(rng.Intn(20)), int64(rng.Intn(4))})
	}
	for i, k := 0, 1+rng.Intn(4); i < k; i++ {
		amt := int64(1 + rng.Intn(15))
		in.supply[rng.Intn(n)] += amt
		in.supply[rng.Intn(n)] -= amt
	}
	return in
}

// fooInstance draws a small FOO-shaped graph; with uniform set, every
// bypass arc costs the same (BHR costs after scaling), which is where tie
// order decides the returned optimum.
func fooInstance(rng *rand.Rand, uniform bool) testInstance {
	n := 4 + rng.Intn(120)
	in := fooShaped(rng, n, n+rng.Intn(2*n))
	if !uniform {
		for k := n - 1; k < len(in.edges); k++ {
			in.edges[k].cost = int64(1 + rng.Intn(3000))
		}
	}
	return in
}

// fooShaped draws an OPT graph like package opt builds for one segment:
// n request nodes joined by a central path of zero-cost arcs at a cache
// capacity (a few lowered, as boundary reservations lower them), and
// intervals reuse intervals, each a bypass arc of the interval's size at
// a uniform cost of 1024 with the size as supply at its start and demand
// at its end.
func fooShaped(rng *rand.Rand, n, intervals int) testInstance {
	in := testInstance{n: n, supply: make([]int64, n)}
	capacity := int64(50 + rng.Intn(400))
	for v := 0; v+1 < n; v++ {
		c := capacity
		if rng.Intn(8) == 0 {
			c -= int64(rng.Intn(int(capacity)))
		}
		in.edges = append(in.edges, testEdge{v, v + 1, c, 0})
	}
	for i := 0; i < intervals; i++ {
		u := rng.Intn(n - 1)
		v := u + 1 + rng.Intn(n-1-u)
		size := int64(1 + rng.Intn(100))
		in.edges = append(in.edges, testEdge{u, v, size, 1024})
		in.supply[u] += size
		in.supply[v] -= size
	}
	return in
}

// TestSolveMatchesHeadNextOracle: on random general graphs and on
// FOO-shaped graphs with uniform and varied bypass costs, the solver must
// return the oracle's total cost and route exactly the oracle's flow on
// every edge, and agree on infeasibility. One Solver and one Graph are
// reused across all instances, as package opt does.
func TestSolveMatchesHeadNextOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := NewSolver()
	g := NewGraph(0)
	for trial := 0; trial < 900; trial++ {
		var in testInstance
		switch trial % 3 {
		case 0:
			in = randomInstance(rng)
		case 1:
			in = fooInstance(rng, true)
		default:
			in = fooInstance(rng, false)
		}
		ref := newRefGraph(in.n)
		g.Reset(in.n)
		for _, e := range in.edges {
			ref.addEdge(e.from, e.to, e.cap, e.cost)
			g.AddEdge(e.from, e.to, e.cap, e.cost)
		}
		copy(ref.supply, in.supply)
		for v, sup := range in.supply {
			g.SetSupply(v, sup)
		}
		want, ok := ref.solve()
		got, err := s.Solve(g)
		if !ok {
			if err == nil {
				t.Fatalf("trial %d: oracle infeasible, solver returned cost %d", trial, got)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: solver: %v, oracle cost %d", trial, err, want)
		}
		if got != want {
			t.Fatalf("trial %d: cost %d, oracle %d", trial, got, want)
		}
		for k := range in.edges {
			if g.Flow(k) != ref.flow(k) {
				t.Fatalf("trial %d: edge %d flow %d, oracle %d", trial, k, g.Flow(k), ref.flow(k))
			}
		}
	}
}
