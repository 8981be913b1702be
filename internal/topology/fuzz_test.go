package topology

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"universalnet/internal/graph"
)

// referenceDegreeSequence is the stub matcher that hands its edge list to
// graph.FromEdges, kept verbatim as the oracle of RandomWithDegreeSequence:
// from equal seeds the two must make the same draws, answer every conflict
// alike and so return the same graph or the same error.
func referenceDegreeSequence(rng *rand.Rand, seq []int, forbidden *graph.Graph) (*graph.Graph, error) {
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
		if edges, ok := referenceTryDegreeSequence(rng, seq, total, forbidden); ok {
			return graph.FromEdges(n, edges)
		}
	}
	return nil, ErrGenerationFailed
}

// referenceTryDegreeSequence performs one stub-matching pass over the total
// stubs of seq and returns the edges it placed. It returns ok = false when
// it dead-ends (all remaining stub pairs are conflicting).
func referenceTryDegreeSequence(rng *rand.Rand, seq []int, total int, forbidden *graph.Graph) (edges []graph.Edge, ok bool) {
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

// maxFuzzDegree and maxFuzzStubs bound a decoded sequence. A pass whose
// draws keep conflicting scans the pairs of live stubs once per placement
// and may restart 200 times, so s stubs can cost about 17·s³ conflict
// checks: seconds for degrees near n on 48 vertices, and at most about 9M
// checks at 80 stubs, which the degree-2 seed fills.
const (
	maxFuzzDegree = 4
	maxFuzzStubs  = 80
)

// degreeSequenceInput encodes a fuzz input: byte 0 picks n = 1 + b%48,
// byte 1 the forbidden set (mode%3: none, the listed pairs, or every pair
// but the listed ones), the next n bytes the degrees (b modulo
// min(n, maxFuzzDegree)+1, so below 5 vertices a degree of n, out of range,
// is possible; a degree that would take the sum past maxFuzzStubs reads as
// 0), and the rest pairs of endpoints (b%n).
func degreeSequenceInput(n int, mode byte, seq []int, pairs [][2]int) []byte {
	data := []byte{byte(n - 1), mode}
	for _, d := range seq {
		data = append(data, byte(d))
	}
	for _, p := range pairs {
		data = append(data, byte(p[0]), byte(p[1]))
	}
	return data
}

// decodeDegreeSequence is degreeSequenceInput's inverse; missing degree
// bytes read as 0, and a pair whose endpoints agree is dropped.
func decodeDegreeSequence(data []byte) (seq []int, forbidden *graph.Graph) {
	n := 1 + int(data[0])%48
	mode := data[1] % 3
	data = data[2:]
	seq = make([]int, n)
	total := 0
	for v := range seq {
		if len(data) == 0 {
			break
		}
		if d := int(data[0]) % (min(n, maxFuzzDegree) + 1); total+d <= maxFuzzStubs {
			seq[v] = d
			total += d
		}
		data = data[1:]
	}
	if mode == 0 {
		return seq, nil
	}
	listed := make(map[graph.Edge]bool)
	for ; len(data) >= 2; data = data[2:] {
		if u, v := int(data[0])%n, int(data[1])%n; u != v {
			listed[graph.NewEdge(u, v)] = true
		}
	}
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if listed[graph.Edge{U: u, V: v}] == (mode == 1) {
				b.MustAddEdge(u, v)
			}
		}
	}
	return seq, b.Build()
}

// FuzzDegreeSequence holds RandomWithDegreeSequence to
// referenceDegreeSequence: from equal seeds, the same error or the same
// graph, and the same next draw, so both consumed the same draws. Its seeds
// are TestGeneratorHashPins' two 40-vertex rows, which reach the exhaustive
// scan and, at degree 1, dead-end and restart.
func FuzzDegreeSequence(f *testing.F) {
	cycle := make([][2]int, 40)
	for v := range cycle {
		cycle[v] = [2]int{v, (v + 1) % 40}
	}
	for _, d := range []int{2, 1} {
		seq := make([]int, 40)
		for v := range seq {
			seq[v] = d
		}
		f.Add(int64(1), degreeSequenceInput(40, 2, seq, cycle))
	}
	f.Add(int64(7), degreeSequenceInput(10, 0, []int{3, 3, 3, 3, 3, 3, 3, 3, 3, 3}, nil))
	f.Add(int64(3), degreeSequenceInput(6, 1, []int{5, 2, 2, 1, 1, 1}, [][2]int{{0, 1}}))
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		if len(data) < 2 {
			return
		}
		seq, forbidden := decodeDegreeSequence(data)
		rng, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		g, err := RandomWithDegreeSequence(rng, seq, forbidden)
		want, wantErr := referenceDegreeSequence(ref, seq, forbidden)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, reference %v", err, wantErr)
		}
		if err == nil {
			if verr := g.Validate(); verr != nil {
				t.Fatal(verr)
			}
			if got, w := g.Hash(), want.Hash(); got != w {
				t.Fatalf("hash %016x, reference %016x", got, w)
			}
		}
		if got, w := rng.Int63(), ref.Int63(); got != w {
			t.Fatalf("next draw %d, reference %d", got, w)
		}
	})
}
