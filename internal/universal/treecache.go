package universal

import (
	"fmt"

	"universalnet/internal/cache"
	"universalnet/internal/graph"
	"universalnet/internal/pebble"
)

// TreeCachedHost is the construction behind the paper's remark that a
// constant-degree network of size 2^{O(t)}·n — n constant-degree trees of
// depth t — simulates every length-t computation of every degree-≤c guest
// with constant slowdown: tree i computes (P_i, t) at its root by a
// pipelined tournament. A node at tree depth τ produces one pebble of guest
// time t−τ; its c+1 children supply the predecessors; leaves hold initial
// pebbles (which the pebble game grants to every processor). Each level
// costs c+2 host steps (c+1 receives + 1 generate), so T' = t·(c+2) and the
// slowdown is the constant c+2, independent of n and t.
type TreeCachedHost struct {
	Graph    *graph.Graph
	N        int // number of guest processors / trees
	C        int // guest degree bound; trees are (c+1)-ary
	Depth    int // guest steps simulated = tree depth
	treeSize int
	// protocols memoizes SimulateProtocol by guest hash on the shared
	// internal/cache LRU: the protocol depends only on (host, guest), so
	// repeat simulations of one guest replay it instead of rebuilding the
	// full tournament schedule. Returned protocols are shared — callers
	// must treat them as read-only (every current consumer validates or
	// replays, never mutates).
	protocols *cache.Cache[uint64, *pebble.Protocol]
}

// protocolSize estimates a protocol's footprint for the cache budget: each
// op is four ints plus the pebble pair, and Steps adds a slice header per
// host step.
func protocolSize(pr *pebble.Protocol) int64 {
	ops := 0
	for _, step := range pr.Steps {
		ops += len(step)
	}
	return int64(48*ops + 24*len(pr.Steps) + 64)
}

// treeNodeCount returns Σ_{l=0}^{depth} (c+1)^l.
func treeNodeCount(c, depth int) int {
	size, pow := 0, 1
	for l := 0; l <= depth; l++ {
		size += pow
		pow *= c + 1
	}
	return size
}

// BuildTreeCachedHost constructs the host: n complete (c+1)-ary trees of the
// given depth, with consecutive roots joined in a ring so the host is
// connected. Host size is n·((c+1)^{depth+1}−1)/c = 2^{O(depth)}·n.
func BuildTreeCachedHost(n, c, depth int) (*TreeCachedHost, error) {
	if n < 3 || c < 1 || depth < 1 {
		return nil, fmt.Errorf("universal: invalid tree-cache parameters n=%d c=%d depth=%d", n, c, depth)
	}
	size := treeNodeCount(c, depth)
	if size > 1<<22 || n*size > 1<<24 {
		return nil, fmt.Errorf("universal: tree-cache host too large (%d nodes per tree)", size)
	}
	total := n * size
	b := graph.NewBuilder(total)
	for i := 0; i < n; i++ {
		base := i * size
		for x := 0; x < size; x++ {
			for k := 1; k <= c+1; k++ {
				child := x*(c+1) + k
				if child < size {
					b.MustAddEdge(base+x, base+child)
				}
			}
		}
		// Ring over the roots.
		b.MustAddEdge(i*size, ((i+1)%n)*size)
	}
	return &TreeCachedHost{
		Graph: b.Build(), N: n, C: c, Depth: depth, treeSize: size,
		protocols: cache.New[uint64, *pebble.Protocol]("universal.treecache", 1<<24, protocolSize, nil),
	}, nil
}

// M returns the host size.
func (h *TreeCachedHost) M() int { return h.Graph.N() }

// SimulateProtocol produces (and thereby proves realizable) the pebble-game
// protocol simulating Depth steps of the guest with slowdown exactly c+2.
// The guest must have ≤ N processors and maximum degree ≤ C.
func (h *TreeCachedHost) SimulateProtocol(guest *graph.Graph) (*pebble.Protocol, error) {
	if guest.N() != h.N {
		return nil, fmt.Errorf("universal: guest has %d processors, host built for %d", guest.N(), h.N)
	}
	if guest.MaxDegree() > h.C {
		return nil, fmt.Errorf("universal: guest degree %d exceeds host's c=%d", guest.MaxDegree(), h.C)
	}
	return h.protocols.GetOrCompute(guest.Hash(), func() (*pebble.Protocol, error) {
		return h.buildProtocol(guest)
	})
}

// buildProtocol constructs the tournament protocol from scratch; the
// cacheable core of SimulateProtocol.
func (h *TreeCachedHost) buildProtocol(guest *graph.Graph) (*pebble.Protocol, error) {
	T := h.Depth
	stepsPerLevel := h.C + 2
	pr := &pebble.Protocol{
		Guest: guest,
		Host:  h.Graph,
		T:     T,
		Steps: make([][]pebble.Op, T*stepsPerLevel),
	}
	// For every tree i, walk the assignment top-down: node x at depth τ is
	// assigned guest π(x); it produces pebble (π(x), T−τ). Internal nodes
	// receive from child 0 (same guest) and children 1..d (the d guest
	// neighbors), then generate.
	for i := 0; i < h.N; i++ {
		base := i * h.treeSize
		type frame struct {
			x, depth, guest int
		}
		stack := []frame{{x: 0, depth: 0, guest: i}}
		for len(stack) > 0 {
			fr := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if fr.depth == T {
				continue // leaf: holds the initial pebble (π, 0) natively
			}
			prevTime := T - fr.depth - 1
			nbrs := guest.Neighbors(fr.guest)
			used := append([]int{fr.guest}, nbrs...)
			levelBase := prevTime * stepsPerLevel // children complete here
			for k, gj := range used {
				childX := fr.x*(h.C+1) + k + 1
				child := base + childX
				parent := base + fr.x
				pb := pebble.Type{P: gj, T: prevTime}
				step := levelBase + k
				pr.Steps[step] = append(pr.Steps[step],
					pebble.Op{Kind: pebble.Send, Proc: child, Pebble: pb, Peer: parent},
					pebble.Op{Kind: pebble.Receive, Proc: parent, Pebble: pb, Peer: child})
				stack = append(stack, frame{x: childX, depth: fr.depth + 1, guest: gj})
			}
			genStep := levelBase + len(used)
			pr.Steps[genStep] = append(pr.Steps[genStep], pebble.Op{
				Kind: pebble.Generate, Proc: base + fr.x,
				Pebble: pebble.Type{P: fr.guest, T: T - fr.depth},
			})
		}
	}
	return pr, nil
}
