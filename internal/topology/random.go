package topology

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"universalnet/internal/graph"
)

// ErrGenerationFailed is returned when randomized graph generation fails to
// produce a valid graph within the retry budget.
var ErrGenerationFailed = errors.New("topology: random graph generation exhausted retries")

// maxRestarts bounds the number of full restarts in stub-matching generators.
const maxRestarts = 200

// RandomRegular generates a uniform-ish random simple d-regular graph on n
// vertices using incremental stub matching with restarts (Steger–Wormald).
// n·d must be even and d < n. Random d-regular graphs for d ≥ 3 are expanders
// with high probability, which is how the class 𝒰' (c = 16) and the expander
// component of G₀ are realized.
func RandomRegular(rng *rand.Rand, n, d int) (*graph.Graph, error) {
	seq := make([]int, n)
	for i := range seq {
		seq[i] = d
	}
	return RandomWithDegreeSequence(rng, seq, nil)
}

// RandomWithDegreeSequence generates a random simple graph with the given
// degree sequence, avoiding every edge of forbidden (which may be nil). This
// is how members of 𝒰[G₀] are sampled: the residual degrees c − deg_{G₀}(v)
// are realized edge-disjointly from G₀ and the union is taken.
func RandomWithDegreeSequence(rng *rand.Rand, seq []int, forbidden *graph.Graph) (*graph.Graph, error) {
	n := len(seq)
	total := 0
	for v, d := range seq {
		if d < 0 || d >= n {
			return nil, fmt.Errorf("topology: degree %d at vertex %d out of range [0,%d)", d, v, n)
		}
		total += d
	}
	if total%2 != 0 {
		return nil, fmt.Errorf("topology: degree sequence sum %d is odd", total)
	}
	if forbidden != nil && forbidden.N() > n {
		return nil, fmt.Errorf("topology: forbidden graph has %d vertices > %d", forbidden.N(), n)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("topology: %d vertices exceed the stub matcher's int32 ids", n)
	}

	for restart := 0; restart < maxRestarts; restart++ {
		if edges, ok := tryDegreeSequence(rng, seq, total, forbidden); ok {
			return graph.FromEdges(n, edges)
		}
	}
	return nil, ErrGenerationFailed
}

// tryDegreeSequence performs one stub-matching pass over the total stubs of
// seq and returns the edges it placed. It returns ok = false when it
// dead-ends (all remaining stub pairs are conflicting).
func tryDegreeSequence(rng *rand.Rand, seq []int, total int, forbidden *graph.Graph) (edges []graph.Edge, ok bool) {
	n := len(seq)
	// stubs[i] = vertex owning stub i. Vertex v owns the seq[v] slots from
	// start[v], and its placed neighbors fill the first fill[v] of them.
	stubs := make([]int32, 0, total)
	start := make([]int, n+1)
	for v, d := range seq {
		for j := 0; j < d; j++ {
			stubs = append(stubs, int32(v))
		}
		start[v+1] = start[v] + d
	}
	slots := make([]int32, total)
	fill := make([]int32, n)
	edges = make([]graph.Edge, 0, total/2)
	// conflict scans the placed neighbors of the endpoint that has fewer.
	conflict := func(u, v int32) bool {
		if u == v {
			return true
		}
		if fill[v] < fill[u] {
			u, v = v, u
		}
		if slices.Contains(slots[start[u]:start[u]+int(fill[u])], v) {
			return true
		}
		return forbidden != nil && forbidden.HasEdge(int(u), int(v))
	}
	place := func(u, v int32) {
		slots[start[u]+int(fill[u])] = v
		fill[u]++
		slots[start[v]+int(fill[v])] = u
		fill[v]++
		edges = append(edges, graph.NewEdge(int(u), int(v)))
	}
	// Repeatedly pick two random remaining stubs; on conflict retry a bounded
	// number of times, then check exhaustively whether any non-conflicting
	// pair remains (dead-end detection).
	live := len(stubs)
	for live > 1 {
		placed := false
		for attempt := 0; attempt < 50; attempt++ {
			i := rng.Intn(live)
			j := rng.Intn(live)
			if i == j {
				continue
			}
			u, v := stubs[i], stubs[j]
			if conflict(u, v) {
				continue
			}
			place(u, v)
			// Remove both stubs (order matters: remove the larger index first).
			if i < j {
				i, j = j, i
			}
			stubs[i] = stubs[live-1]
			live--
			stubs[j] = stubs[live-1]
			live--
			placed = true
			break
		}
		if placed {
			continue
		}
		// Exhaustive check for any feasible pair.
		found := false
	outer:
		for i := 0; i < live && !found; i++ {
			for j := i + 1; j < live; j++ {
				if !conflict(stubs[i], stubs[j]) {
					place(stubs[i], stubs[j])
					stubs[j] = stubs[live-1]
					live--
					stubs[i] = stubs[live-1]
					live--
					found = true
					break outer
				}
			}
		}
		if !found {
			return nil, false // dead end; caller restarts
		}
	}
	return edges, true
}

// RandomGuest samples a random c-regular n-vertex guest network from the
// class 𝒰' of Section 3 (c = 16 in the paper). It retries until the graph is
// connected, which holds with overwhelming probability for c ≥ 3.
func RandomGuest(rng *rand.Rand, n, c int) (*graph.Graph, error) {
	if n*c%2 != 0 {
		return nil, fmt.Errorf("topology: n·c = %d·%d is odd", n, c)
	}
	for attempt := 0; attempt < 20; attempt++ {
		g, err := RandomRegular(rng, n, c)
		if err != nil {
			return nil, err
		}
		if g.IsConnected() {
			return g, nil
		}
	}
	return nil, ErrGenerationFailed
}
