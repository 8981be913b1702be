package expander

import (
	"fmt"
	"math"

	"universalnet/internal/graph"
)

// Edge expansion (conductance) complements the vertex expansion of
// Definition 3.8: h(G) = min over cuts with vol(A) ≤ vol(V)/2 of
// |∂A| / vol(A), where ∂A is the set of edges leaving A and vol counts
// degrees. The Cheeger inequalities sandwich h(G) by the spectral gap:
// (1−λ₂)/2 ≤ h(G) ≤ √(2(1−λ₂)).

// edgeBoundary returns the number of edges with exactly one endpoint in A.
func edgeBoundary(g *graph.Graph, inA []bool) int {
	cut := 0
	for _, e := range g.Edges() {
		if inA[e.U] != inA[e.V] {
			cut++
		}
	}
	return cut
}

// volume returns Σ_{v ∈ A} deg(v).
func volume(g *graph.Graph, inA []bool) int {
	vol := 0
	for v := 0; v < g.N(); v++ {
		if inA[v] {
			vol += g.Degree(v)
		}
	}
	return vol
}

// ExactConductance computes h(G) exactly by enumerating all cuts; n ≤ 24.
// It returns the conductance and a witness side, the side of smaller
// volume.
func ExactConductance(g *graph.Graph) (h float64, witness []int, err error) {
	n := g.N()
	if n > 24 {
		return 0, nil, fmt.Errorf("expander: exact conductance infeasible for n=%d", n)
	}
	if n < 2 || g.M() == 0 {
		return 0, nil, fmt.Errorf("expander: conductance undefined for trivial graphs")
	}
	totalVol := 2 * g.M()
	best := math.Inf(1)
	var bestSet []int
	inA := make([]bool, n)
	// Vertex n−1 stays outside A, which halves the work: each cut is met
	// once and scored by its side of smaller volume, which may be V \ A.
	for mask := 1; mask < 1<<(n-1); mask++ {
		for v := 0; v < n; v++ {
			inA[v] = mask&(1<<v) != 0
		}
		vol := volume(g, inA)
		small := min(vol, totalVol-vol)
		if small == 0 {
			continue
		}
		ratio := float64(edgeBoundary(g, inA)) / float64(small)
		if ratio < best {
			best = ratio
			witnessSide := small == vol
			bestSet = bestSet[:0]
			for v := 0; v < n; v++ {
				if inA[v] == witnessSide {
					bestSet = append(bestSet, v)
				}
			}
		}
	}
	if math.IsInf(best, 1) {
		return 0, nil, fmt.Errorf("expander: no admissible cut")
	}
	return best, bestSet, nil
}

// CheegerBounds returns the interval [(1−λ₂)/2, √(2(1−λ₂))] that must
// contain h(G), given the normalized second eigenvalue λ₂.
func CheegerBounds(lambda2 float64) (lo, hi float64) {
	gap := 1 - lambda2
	if gap < 0 {
		gap = 0
	}
	return gap / 2, math.Sqrt(2 * gap)
}
