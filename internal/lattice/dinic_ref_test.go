package lattice

// Dinic's maximum-flow algorithm on small integer-capacity graphs. By
// Menger's theorem the maximum number of disjoint open crossings of an
// M-Path lattice (Section 7 of the paper) equals a max-flow value; the
// package computes it with its own fixed-topology unit-capacity kernel
// (flow.go), and this general implementation is the reference that kernel
// is tested against (TestKernelMatchesDinic) — test-only, so it is not
// part of the non-test build.

import "fmt"

type dinicEdge struct {
	to, rev int
	cap     int
}

// dinicGraph is a flow network under construction. Vertices are integers in
// [0, n). The zero value is not usable; create graphs with newDinic.
type dinicGraph struct {
	n   int
	adj [][]dinicEdge

	// scratch for Dinic
	level []int
	iter  []int
}

// newDinic returns an empty flow network on n vertices.
func newDinic(n int) *dinicGraph {
	return &dinicGraph{
		n:     n,
		adj:   make([][]dinicEdge, n),
		level: make([]int, n),
		iter:  make([]int, n),
	}
}

// AddEdge inserts a directed edge u→v with the given capacity (and the
// implicit residual reverse edge of capacity 0).
func (g *dinicGraph) AddEdge(u, v, capacity int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("dinic: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if capacity < 0 {
		return fmt.Errorf("dinic: negative capacity %d", capacity)
	}
	g.adj[u] = append(g.adj[u], dinicEdge{to: v, rev: len(g.adj[v]), cap: capacity})
	g.adj[v] = append(g.adj[v], dinicEdge{to: u, rev: len(g.adj[u]) - 1, cap: 0})
	return nil
}

// MaxFlow computes the maximum s→t flow, mutating residual capacities.
// Calling it twice continues from the residual network (returns 0 more).
func (g *dinicGraph) MaxFlow(s, t int) (int, error) {
	if s < 0 || s >= g.n || t < 0 || t >= g.n {
		return 0, fmt.Errorf("dinic: terminal out of range")
	}
	if s == t {
		return 0, fmt.Errorf("dinic: source equals sink")
	}
	flow := 0
	for g.bfs(s, t) {
		for i := range g.iter {
			g.iter[i] = 0
		}
		for {
			f := g.dfs(s, t, int(^uint(0)>>1))
			if f == 0 {
				break
			}
			flow += f
		}
	}
	return flow, nil
}

func (g *dinicGraph) bfs(s, t int) bool {
	for i := range g.level {
		g.level[i] = -1
	}
	queue := make([]int, 0, g.n)
	queue = append(queue, s)
	g.level[s] = 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range g.adj[u] {
			if e.cap > 0 && g.level[e.to] < 0 {
				g.level[e.to] = g.level[u] + 1
				queue = append(queue, e.to)
			}
		}
	}
	return g.level[t] >= 0
}

func (g *dinicGraph) dfs(u, t, f int) int {
	if u == t {
		return f
	}
	for ; g.iter[u] < len(g.adj[u]); g.iter[u]++ {
		e := &g.adj[u][g.iter[u]]
		if e.cap > 0 && g.level[e.to] == g.level[u]+1 {
			m := f
			if e.cap < m {
				m = e.cap
			}
			d := g.dfs(e.to, t, m)
			if d > 0 {
				e.cap -= d
				g.adj[e.to][e.rev].cap += d
				return d
			}
		}
	}
	return 0
}
