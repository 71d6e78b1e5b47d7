package lattice

import (
	"math/rand"
	"sync"

	"bqs/internal/bitset"
)

// flowNet is the one max-flow kernel of the package: a unit-capacity
// network whose topology is laid out once, in flat arrays, when a lattice
// is built. By Menger's theorem the maximum number of disjoint open
// crossings equals the max-flow from src to snk, so every disjoint-path
// question about either lattice is one call to disjoint. Per call only the
// residual capacities change; they live in a scratch taken from a pool,
// because pickers run concurrently from many clients.
type flowNet struct {
	first    []int32 // arcs leaving node u are first[u] ≤ a < first[u+1]
	head     []int32 // node arc a enters
	rev      []int32 // a's partner: a unit pushed on a is a unit freed on rev[a]
	cap0     []uint8 // capacity of a when every element is alive
	elem     []int32 // element that closes a when dead, and that a path through a uses; −1 for a structural arc
	src, snk int32
	pool     sync.Pool // *flowScratch
}

// link is one arc pair of a network under construction. A one-way link is
// a unit arc with a zero-capacity residual partner; a two-way link is an
// undirected unit edge (two unit arcs, each the other's partner, so flow in
// opposite directions cancels by itself).
type link struct {
	from, to, elem int
	twoWay         bool
}

// newFlowNet lays the links out as a compressed adjacency array.
func newFlowNet(nodes, src, snk int, links []link) *flowNet {
	net := &flowNet{
		first: make([]int32, nodes+1),
		head:  make([]int32, 2*len(links)),
		rev:   make([]int32, 2*len(links)),
		cap0:  make([]uint8, 2*len(links)),
		elem:  make([]int32, 2*len(links)),
		src:   int32(src), snk: int32(snk),
	}
	for _, l := range links {
		net.first[l.from+1]++
		net.first[l.to+1]++
	}
	for u := 0; u < nodes; u++ {
		net.first[u+1] += net.first[u]
	}
	next := append([]int32(nil), net.first[:nodes]...)
	for _, l := range links {
		a, r := next[l.from], next[l.to]
		next[l.from]++
		next[l.to]++
		net.head[a], net.head[r] = int32(l.to), int32(l.from)
		net.rev[a], net.rev[r] = r, a
		net.elem[a], net.elem[r] = int32(l.elem), int32(l.elem)
		net.cap0[a] = 1
		if l.twoWay {
			net.cap0[r] = 1
		}
	}
	net.pool.New = func() any {
		return &flowScratch{
			cap:    make([]uint8, len(net.head)),
			via:    make([]int32, nodes),
			mark:   make([]uint32, nodes),
			queue:  make([]int32, 0, nodes),
			starts: make([]int32, net.first[src+1]-net.first[src]),
		}
	}
	return net
}

// flowScratch is the per-call state of a flowNet.
type flowScratch struct {
	cap    []uint8  // residual capacities
	via    []int32  // arc by which the current search reached a node
	mark   []uint32 // == stamp for nodes the current search has reached
	stamp  uint32
	queue  []int32
	starts []int32 // the source's arcs, in this call's search order
}

// disjoint finds up to k disjoint crossings that avoid dead, calls
// visit(i, e) for every element e of the i-th one in path order (visit may
// be nil), and returns how many it found — fewer than k exactly when dead
// admits no more. A non-nil rng randomizes which crossings are found by
// shuffling the order the source's boundary line is searched from. Every
// augmenting path is a shortest one in the residual network and ties go to
// the first-laid-out arc — the straight-ahead one — so crossings bend only
// where dead makes them. (Rotating each node's arc order as well was tried
// and dropped: ties then go to the diagonal edges and the paths drift into
// the lattice's corners — the busiest live server of M-Path(10,3) with the
// main diagonal dead sat in 91–97 % of quorums, against 57 % without.)
func (net *flowNet) disjoint(dead bitset.Set, k int, rng *rand.Rand, visit func(path, elem int)) int {
	s := net.pool.Get().(*flowScratch)
	defer net.pool.Put(s)
	for a, c := range net.cap0 {
		if e := net.elem[a]; e >= 0 && dead.Contains(int(e)) {
			c = 0
		}
		s.cap[a] = c
	}
	for i := range s.starts {
		s.starts[i] = net.first[net.src] + int32(i)
	}
	if rng != nil {
		rng.Shuffle(len(s.starts), func(i, j int) { s.starts[i], s.starts[j] = s.starts[j], s.starts[i] })
	}
	found := 0
	for found < k && net.augment(s) {
		found++
	}
	if visit != nil {
		net.walk(s, visit)
	}
	return found
}

// augment pushes one unit along a shortest residual src→snk path (BFS) and
// reports whether one existed. The source's arcs are tried in s.starts
// order, every other node's in the order they were laid out.
func (net *flowNet) augment(s *flowScratch) bool {
	s.stamp++
	if s.stamp == 0 { // wrapped: stale marks could collide
		clear(s.mark)
		s.stamp = 1
	}
	s.mark[net.src] = s.stamp
	queue := s.queue[:0]
	for _, a := range s.starts { // no source arc enters the sink directly
		if s.cap[a] > 0 {
			v := net.head[a]
			s.mark[v], s.via[v] = s.stamp, a
			queue = append(queue, v)
		}
	}
	for i := 0; i < len(queue); i++ {
		for a := net.first[queue[i]]; a < net.first[queue[i]+1]; a++ {
			v := net.head[a]
			if s.cap[a] == 0 || s.mark[v] == s.stamp {
				continue
			}
			s.mark[v], s.via[v] = s.stamp, a
			if v != net.snk {
				queue = append(queue, v)
				continue
			}
			for v != net.src {
				a := s.via[v]
				s.cap[a]--
				s.cap[net.rev[a]]++
				v = net.head[net.rev[a]]
			}
			return true
		}
	}
	return false
}

// walk follows the flow out of the source, one crossing per unit, and
// reports the elements each crossing uses. An arc carries flow exactly when
// its partner holds more than its initial capacity; walking an arc takes
// the unit back, so edge-disjoint crossings that share a node are told
// apart, and flow cycles that touch no crossing are never entered.
func (net *flowNet) walk(s *flowScratch, visit func(path, elem int)) {
	carries := func(a int32) bool { return s.cap[net.rev[a]] > net.cap0[net.rev[a]] }
	path := 0
	for a := net.first[net.src]; a < net.first[net.src+1]; a++ {
		if !carries(a) {
			continue
		}
		for a := a; ; {
			s.cap[net.rev[a]]--
			if e := net.elem[a]; e >= 0 {
				visit(path, int(e))
			}
			u := net.head[a]
			if u == net.snk {
				break
			}
			for a = net.first[u]; !carries(a); a++ {
				if a+1 == net.first[u+1] {
					panic("lattice: flow not conserved") // a kernel bug, never an input
				}
			}
		}
		path++
	}
}

// pathLists returns up to k disjoint crossings avoiding dead, each as its
// element sequence (the list form tests and figures use; pickers write into
// a quorum bitset instead).
func (net *flowNet) pathLists(dead bitset.Set, k int) [][]int {
	var paths [][]int
	net.disjoint(dead, k, nil, func(path, elem int) {
		if path == len(paths) {
			paths = append(paths, nil)
		}
		paths[path] = append(paths[path], elem)
	})
	return paths
}

// addPaths adds the elements of k disjoint crossings avoiding dead to q and
// reports whether k exist; when they do not, q is left with a partial
// family and the caller discards it.
func (net *flowNet) addPaths(q *bitset.Set, dead bitset.Set, k int, rng *rand.Rand) bool {
	return net.disjoint(dead, k, rng, func(_, elem int) { q.Add(elem) }) == k
}
