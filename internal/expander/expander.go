// Package expander provides the expansion machinery behind Definition 3.8
// and Lemma 3.15: (α,β) vertex-expansion testing (exact for small graphs,
// sampled for large ones), spectral-gap estimation by power iteration, and
// the Tanner bound converting a spectral gap into certified vertex
// expansion.
package expander

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"universalnet/internal/graph"
)

// NeighborhoodSize returns |Γ(A)|, the number of vertices adjacent to at
// least one member of A (members of A adjacent to other members count too —
// the convention of Definition 3.8).
func NeighborhoodSize(g *graph.Graph, a []int) int {
	mark := make(map[int]struct{})
	for _, v := range a {
		for _, w := range g.Neighbors(v) {
			mark[w] = struct{}{}
		}
	}
	return len(mark)
}

// ExactExpansion computes the exact expansion profile
// β*(α) = min over non-empty A with |A| ≤ α·n of |Γ(A)|/|A|
// by enumerating every subset. Exponential: n must be ≤ 24.
// It returns the minimizing ratio and one witness set.
func ExactExpansion(g *graph.Graph, alpha float64) (beta float64, witness []int, err error) {
	n := g.N()
	if n > 24 {
		return 0, nil, fmt.Errorf("expander: exact expansion infeasible for n=%d > 24", n)
	}
	limit := int(alpha * float64(n))
	if limit < 1 {
		return 0, nil, fmt.Errorf("expander: α·n = %.3f < 1; no admissible sets", alpha*float64(n))
	}
	best := math.Inf(1)
	var bestSet []int
	set := make([]int, 0, limit)
	for mask := 1; mask < 1<<n; mask++ {
		if popcount(mask) > limit {
			continue
		}
		set = set[:0]
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				set = append(set, v)
			}
		}
		ratio := float64(NeighborhoodSize(g, set)) / float64(len(set))
		if ratio < best {
			best = ratio
			bestSet = append([]int(nil), set...)
		}
	}
	return best, bestSet, nil
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

// SampleExpansion estimates the expansion profile by sampling random subsets
// of sizes up to α·n (plus adversarial BFS-ball sets, which are the usual
// worst cases in geometric graphs). It returns the smallest observed
// |Γ(A)|/|A| ratio and a witness. The result upper-bounds the true β*(α).
func SampleExpansion(g *graph.Graph, alpha float64, samples int, rng *rand.Rand) (beta float64, witness []int) {
	n := g.N()
	limit := int(alpha * float64(n))
	if limit < 1 {
		limit = 1
	}
	best := math.Inf(1)
	var bestSet []int
	consider := func(set []int) {
		if len(set) == 0 || len(set) > limit {
			return
		}
		ratio := float64(NeighborhoodSize(g, set)) / float64(len(set))
		if ratio < best {
			best = ratio
			bestSet = append([]int(nil), set...)
		}
	}
	// Random subsets of random sizes.
	for s := 0; s < samples; s++ {
		k := 1 + rng.Intn(limit)
		perm := rng.Perm(n)
		consider(perm[:k])
	}
	// BFS balls around random centers — locally dense sets.
	for s := 0; s < samples/4+1; s++ {
		center := rng.Intn(n)
		dist := g.BFS(center)
		for r := 0; ; r++ {
			var ball []int
			for v, d := range dist {
				if d >= 0 && d <= r {
					ball = append(ball, v)
				}
			}
			if len(ball) > limit {
				break
			}
			consider(ball)
			if len(ball) == n {
				break
			}
		}
	}
	return best, bestSet
}

// SpectralGap estimates the second-largest absolute eigenvalue λ₂ of the
// normalized adjacency matrix D^{-1/2} A D^{-1/2} by power iteration with
// deflation of the principal eigenvector (√deg). The spectral gap is 1 − λ₂;
// a gap bounded away from 0 certifies expansion. The graph must have no
// isolated vertices.
func SpectralGap(g *graph.Graph, iters int, seed int64) (lambda2 float64, err error) {
	n := g.N()
	if n < 2 {
		return 0, fmt.Errorf("expander: graph too small for spectral gap")
	}
	deg := make([]float64, n)
	for v := 0; v < n; v++ {
		if g.Degree(v) == 0 {
			return 0, fmt.Errorf("expander: isolated vertex %d", v)
		}
		deg[v] = float64(g.Degree(v))
	}
	// Principal eigenvector of the normalized adjacency is proportional to √deg.
	principal := make([]float64, n)
	for v := range principal {
		principal[v] = math.Sqrt(deg[v])
	}
	normalize(principal)

	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for v := range x {
		x[v] = rng.NormFloat64()
	}
	orthogonalize(x, principal)
	normalize(x)

	y := make([]float64, n)
	var lam float64
	for it := 0; it < iters; it++ {
		// y = M x where M = D^{-1/2} A D^{-1/2}.
		for v := 0; v < n; v++ {
			s := 0.0
			for _, w := range g.Neighbors(v) {
				s += x[w] / math.Sqrt(deg[v]*deg[w])
			}
			y[v] = s
		}
		orthogonalize(y, principal)
		lam = norm(y)
		if lam == 0 {
			return 0, nil // graph is complete-bipartite-degenerate; λ₂ ≈ 0
		}
		for v := range y {
			y[v] /= lam
		}
		x, y = y, x
	}
	return lam, nil
}

func normalize(v []float64) {
	n := norm(v)
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= n
	}
}

func norm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func orthogonalize(v, unit []float64) {
	dot := 0.0
	for i := range v {
		dot += v[i] * unit[i]
	}
	for i := range v {
		v[i] -= dot * unit[i]
	}
}

// TannerBound returns the vertex-expansion factor certified by a normalized
// second eigenvalue λ̄ = λ₂ for sets of size ≤ α·n on a regular graph:
// |Γ(A)| ≥ |A| / (α + (1−α)·λ̄²). A spectral gap thus yields an (α,β)-expander
// with β = TannerBound(λ̄, α).
func TannerBound(lambdaBar, alpha float64) float64 {
	den := alpha + (1-alpha)*lambdaBar*lambdaBar
	if den <= 0 {
		return math.Inf(1)
	}
	return 1 / den
}

// Certificate records an empirical (α,β) certification of a graph.
type Certificate struct {
	Alpha       float64 // set-size fraction
	BetaSampled float64 // smallest sampled |Γ(A)|/|A| (upper bound on β*)
	Lambda2     float64 // normalized second eigenvalue estimate
	BetaTanner  float64 // spectral lower-bound certificate
}

// Certify runs both the sampling probe and the spectral certificate.
func Certify(g *graph.Graph, alpha float64, samples, iters int, seed int64) (Certificate, error) {
	lam, err := SpectralGap(g, iters, seed)
	if err != nil {
		return Certificate{}, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	betaS, _ := SampleExpansion(g, alpha, samples, rng)
	return Certificate{
		Alpha:       alpha,
		BetaSampled: betaS,
		Lambda2:     lam,
		BetaTanner:  TannerBound(lam, alpha),
	}, nil
}

// FiedlerVector approximates the eigenvector belonging to the largest
// non-principal |eigenvalue| of the normalized adjacency (the vector power
// iteration converges to after deflation). Splitting vertices at its median
// yields an explicit balanced cut — a certified UPPER bound on the bisection
// width, which the baseline slowdown bounds of [9,10] consume.
func FiedlerVector(g *graph.Graph, iters int, seed int64) ([]float64, error) {
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("expander: graph too small")
	}
	deg := make([]float64, n)
	for v := 0; v < n; v++ {
		if g.Degree(v) == 0 {
			return nil, fmt.Errorf("expander: isolated vertex %d", v)
		}
		deg[v] = float64(g.Degree(v))
	}
	principal := make([]float64, n)
	for v := range principal {
		principal[v] = math.Sqrt(deg[v])
	}
	normalize(principal)
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for v := range x {
		x[v] = rng.NormFloat64()
	}
	orthogonalize(x, principal)
	normalize(x)
	y := make([]float64, n)
	for it := 0; it < iters; it++ {
		for v := 0; v < n; v++ {
			s := 0.0
			for _, w := range g.Neighbors(v) {
				s += x[w] / math.Sqrt(deg[v]*deg[w])
			}
			y[v] = s
		}
		orthogonalize(y, principal)
		normalize(y)
		x, y = y, x
	}
	return x, nil
}

// SpectralBisectionLowerBound returns the Cheeger-type lower bound on the
// bisection width of a connected graph: any balanced cut has at least
// (1−λ̄)·vol/4 edges, where λ̄ is the true second-largest eigenvalue of the
// normalized adjacency. Because SpectralGap may report the |negative| end,
// this bound is only valid for non-bipartite-dominated spectra; callers pass
// the λ they trust.
func SpectralBisectionLowerBound(g *graph.Graph, lambda2 float64) float64 {
	gap := 1 - lambda2
	if gap < 0 {
		gap = 0
	}
	vol := float64(2 * g.M())
	return gap * vol / 8
}

// BestBalancedCutUpperBound returns the smallest of several explicit
// balanced cuts — Fiedler-median, vertex-index order, and BFS order — each
// a certified upper bound on the bisection width. Robust against bipartite
// spectra, where the raw Fiedler vector degenerates to the parity cut.
func BestBalancedCutUpperBound(g *graph.Graph, iters int, seed int64) (int, error) {
	n := g.N()
	if n < 2 {
		return 0, fmt.Errorf("expander: graph too small")
	}
	cutOf := func(order []int) int {
		inA := make([]bool, n)
		for _, v := range order[:n/2] {
			inA[v] = true
		}
		cut := 0
		for _, e := range g.Edges() {
			if inA[e.U] != inA[e.V] {
				cut++
			}
		}
		return cut
	}
	// Index order.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	best := cutOf(idx)
	// BFS order from vertex 0 (contiguous region cut).
	dist := g.BFS(0)
	bfs := append([]int(nil), idx...)
	sort.Slice(bfs, func(a, b int) bool {
		da, db := dist[bfs[a]], dist[bfs[b]]
		if da != db {
			return da < db
		}
		return bfs[a] < bfs[b]
	})
	if c := cutOf(bfs); c < best {
		best = c
	}
	// Fiedler cut (when computable).
	if vec, err := FiedlerVector(g, iters, seed); err == nil {
		ford := append([]int(nil), idx...)
		sort.Slice(ford, func(a, b int) bool { return vec[ford[a]] < vec[ford[b]] })
		if c := cutOf(ford); c < best {
			best = c
		}
	}
	return best, nil
}
