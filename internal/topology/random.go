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
	if total+2*n > math.MaxInt32 {
		return nil, fmt.Errorf("topology: degree sum %d on %d vertices exceeds the stub matcher's int32 offsets", total, n)
	}

	for restart := 0; restart < maxRestarts; restart++ {
		if nbr, ok := tryDegreeSequence(rng, seq, total, forbidden); ok {
			off := make([]int, n+1)
			for v, d := range seq {
				off[v+1] = off[v] + d
			}
			return graph.FromRows(off, nbr)
		}
	}
	return nil, ErrGenerationFailed
}

// tryDegreeSequence performs one stub-matching pass over the total stubs of
// seq. Vertex v owns a block of seq[v]+2 int32 words: v, its fill count,
// then seq[v] slots whose first fill hold its placed neighbors. A stub names
// its vertex's block rather than the vertex, so a conflict check misses once
// per endpoint, on a block whose count and slots share a cache line, where
// separate id, offset and slot arrays cost a chain of misses. On success
// every slot is full, and it returns the slots block by block: the graph's
// rows, each unsorted. It returns ok = false when it dead-ends (all
// remaining stub pairs are conflicting).
func tryDegreeSequence(rng *rand.Rand, seq []int, total int, forbidden *graph.Graph) (rows []int, ok bool) {
	// stubs[i] = the block of the vertex owning stub i.
	stubs := make([]int32, 0, total)
	blocks := make([]int32, total+2*len(seq))
	at := int32(0)
	for v, d := range seq {
		for j := 0; j < d; j++ {
			stubs = append(stubs, at)
		}
		blocks[at] = int32(v)
		at += 2 + int32(d)
	}
	// conflict scans the placed neighbors of the endpoint that has fewer.
	conflict := func(a, b int32) bool {
		if a == b {
			return true
		}
		if blocks[b+1] < blocks[a+1] {
			a, b = b, a
		}
		if slices.Contains(blocks[a+2:a+2+blocks[a+1]], blocks[b]) {
			return true
		}
		return forbidden != nil && forbidden.HasEdge(int(blocks[a]), int(blocks[b]))
	}
	place := func(a, b int32) {
		blocks[a+2+blocks[a+1]] = blocks[b]
		blocks[a+1]++
		blocks[b+2+blocks[b+1]] = blocks[a]
		blocks[b+1]++
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
			a, b := stubs[i], stubs[j]
			if conflict(a, b) {
				continue
			}
			place(a, b)
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
	rows = make([]int, 0, total)
	for a := 0; a < len(blocks); a += 2 + int(blocks[a+1]) {
		for _, w := range blocks[a+2 : a+2+int(blocks[a+1])] {
			rows = append(rows, int(w))
		}
	}
	return rows, true
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
