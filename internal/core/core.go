// Package core implements the paper's primary contribution as executable
// mathematics: the counting argument behind Theorem 3.1 (m·s = Ω(n·log m)
// for every constant-degree n-universal network of size m with slowdown s).
//
// Every quantity of Section 3.2 is a finite computation for concrete
// (n, m, d, k): the number of guests |𝒰[G₀]| (lower-bounded as in [13]), the
// number of fragments Y ≤ |𝒜|·(q·k)^n (Proposition 3.6a), the multiplicity
// X (Lemma 3.3 / Proposition 3.6b), and the resulting bound on |𝒢(k)|, the
// graphs simulable with inefficiency k (Lemma 3.5). The minimal k for which
// |𝒢(k)| can reach |𝒰[G₀]| is the lower bound on the inefficiency; the
// package solves for it numerically and exposes the closed forms.
//
// All counting is done in log₂ domain (the raw counts exceed 2^(n log n));
// an exact math/big mode backs the small-case tests.
package core

import (
	"fmt"
	"math"
)

// Params collects the constants of Section 3. Zero values are replaced by
// the paper's choices via Defaults.
type Params struct {
	C     int     // guest degree (paper: 16; must exceed the G₀ degree 12)
	D     int     // host degree d (constant degree of the universal network)
	Q     float64 // q of the Main Lemma (paper: 384)
	R     float64 // r of the Main Lemma (paper: 3472 + 384·log₂ d)
	Alpha float64 // expander parameter α ∈ (0,1)
	Beta  float64 // expander parameter β > 1
	Delta float64 // δ of the |𝒰[G₀]| lower bound from [13]
}

// Defaults fills unset fields with the paper's constants.
func (p Params) Defaults() Params {
	if p.C == 0 {
		p.C = 16
	}
	if p.D == 0 {
		p.D = 4
	}
	if p.Q == 0 {
		p.Q = 384
	}
	if p.R == 0 {
		p.R = 3472 + 384*math.Log2(float64(p.D))
	}
	if p.Alpha == 0 {
		p.Alpha = 0.5
	}
	if p.Beta == 0 {
		p.Beta = 1.5
	}
	if p.Delta == 0 {
		p.Delta = 2
	}
	return p
}

// Validate rejects parameter combinations outside the proof's hypotheses.
func (p Params) Validate() error {
	if p.C <= 12 || p.C%2 != 0 {
		return fmt.Errorf("core: guest degree c=%d must be even and > 12", p.C)
	}
	if p.D < 2 {
		return fmt.Errorf("core: host degree d=%d must be ≥ 2", p.D)
	}
	if p.Alpha <= 0 || p.Alpha >= 1 {
		return fmt.Errorf("core: α=%f outside (0,1)", p.Alpha)
	}
	if p.Beta <= 1 {
		return fmt.Errorf("core: β=%f must exceed 1", p.Beta)
	}
	if p.Q <= 0 || p.R <= 0 || p.Delta <= 0 {
		return fmt.Errorf("core: q, r, δ must be positive")
	}
	return nil
}

// Gamma returns γ = ½·α·(1 − 1/β) of Lemma 3.15.
func (p Params) Gamma() float64 { return 0.5 * p.Alpha * (1 - 1/p.Beta) }

// Log2Guests returns the [13] lower bound on log₂ |𝒰[G₀]|:
// ((c−12)/2)·n·log₂ n − δ·n.
func (p Params) Log2Guests(n int) float64 {
	half := float64(p.C-12) / 2
	return half*float64(n)*math.Log2(float64(n)) - p.Delta*float64(n)
}

// Log2FragmentSets returns the Main Lemma bound log₂ |𝒜| ≤ r·n·k.
func (p Params) Log2FragmentSets(n int, k float64) float64 {
	return p.R * float64(n) * k
}

// Log2FragmentChoices returns Proposition 3.6(a): log₂ Y ≤ log₂|𝒜| +
// n·log₂(q·k).
func (p Params) Log2FragmentChoices(n int, k float64) float64 {
	return p.Log2FragmentSets(n, k) + float64(n)*math.Log2(p.Q*k)
}

// Log2Multiplicity returns Proposition 3.6(b): log₂ X ≤
// ((c−12)/2)·n·log₂ n − ½γ·((c−12)/2)·n·log₂ m.
func (p Params) Log2Multiplicity(n, m int) float64 {
	half := float64(p.C-12) / 2
	return half*float64(n)*math.Log2(float64(n)) -
		0.5*p.Gamma()*half*float64(n)*math.Log2(float64(m))
}

// Log2Simulable returns Lemma 3.5's bound on log₂ |𝒢(k)|, the number of
// guests admitting a k-inefficient simulation on a host of size m.
func (p Params) Log2Simulable(n, m int, k float64) float64 {
	return p.Log2FragmentChoices(n, k) + p.Log2Multiplicity(n, m)
}

// Feasible reports whether inefficiency k is consistent with universality:
// |𝒢(k)| ≥ |𝒰[G₀]| must hold, i.e. Log2Simulable ≥ Log2Guests. If it fails,
// no k-inefficient simulation can cover all guests — k is impossible.
func (p Params) Feasible(n, m int, k float64) bool {
	return p.Log2Simulable(n, m, k) >= p.Log2Guests(n)
}

// feasibleNormalized is Feasible with both sides divided by n — the n·log₂ n
// terms cancel, leaving r·k + log₂(q·k) + δ ≥ (γ·(c−12)/4)·log₂ m. This is
// why Theorem 3.1's k = Ω(log m) is independent of the guest size.
func (p Params) feasibleNormalized(log2m, k float64) bool {
	if k <= 0 {
		return false
	}
	return p.R*k+math.Log2(p.Q*k)+p.Delta >= p.Gamma()*(float64(p.C-12)/4)*log2m
}

// KLowerBound returns the smallest k ≥ 1 consistent with the (normalized)
// Theorem 3.1 inequality for a host with log₂ m = log2m. Monotone bisection.
// Note the scale: with the paper's own constants (r ≈ 4240) the bound stays
// at the trivial k = 1 until log₂ m is astronomically large — the theorem is
// asymptotic; use ToyParams to visualize the Ω(log m) shape at small sizes.
func (p Params) KLowerBound(log2m float64) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if log2m <= 0 {
		return 0, fmt.Errorf("core: log₂ m = %f must be positive", log2m)
	}
	lo, hi := 1.0, 2.0
	if p.feasibleNormalized(log2m, lo) {
		return lo, nil
	}
	for !p.feasibleNormalized(log2m, hi) {
		hi *= 2
		if hi > 1e15 {
			return 0, fmt.Errorf("core: no feasible k below 1e15 (log₂m=%f)", log2m)
		}
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if p.feasibleNormalized(log2m, mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// MinInefficiency solves Theorem 3.1 numerically for integer sizes: the
// smallest k ≥ 1 such that Feasible(n, m, k) holds. Equivalent to
// KLowerBound(log₂ m) because the guest-count terms cancel.
func (p Params) MinInefficiency(n, m int) (float64, error) {
	if n < 2 || m < 2 {
		return 0, fmt.Errorf("core: need n, m ≥ 2 (got %d, %d)", n, m)
	}
	return p.KLowerBound(math.Log2(float64(m)))
}

// ToyParams returns unit-scale constants that preserve the structure of the
// inequality while making the Ω(log m) regime visible at experiment sizes:
// the per-level bookkeeping costs (q, r, δ) are set to O(1) and the expander
// is near-ideal. Use for shape plots; use Defaults for the paper's bound.
func ToyParams() Params {
	return Params{C: 16, D: 4, Q: 2, R: 1, Alpha: 0.99, Beta: 100, Delta: 1}
}

// UpperBoundSlowdown returns the Theorem 2.1 upper bound achieved by the
// butterfly host: s = O(⌈n/m⌉·log m). The constant cRoute is the measured
// or assumed per-permutation routing constant (1 reproduces the asymptotic
// form).
func UpperBoundSlowdown(n, m int, cRoute float64) float64 {
	load := math.Ceil(float64(n) / float64(m))
	return cRoute * load * math.Log2(float64(m))
}

// FrontierGapBound returns Lemma 3.15's per-critical-step time-gap bound:
// between consecutive critical frontiers the host must spend at least
// ½·α·(1−1/β)·n / (384·√m·k) steps producing heavy pebbles.
func (p Params) FrontierGapBound(n, m int, k float64) float64 {
	return p.Gamma() * float64(n) / (384 * math.Sqrt(float64(m)) * k)
}

// HeavyProcessorBound returns the Lemma 3.15 count bound: at most
// 384·√m·k host processors can be t₀-heavy (hold > n/√m distinct time-t₀
// pebbles) at a critical time.
func HeavyProcessorBound(m int, k float64) float64 {
	return 384 * math.Sqrt(float64(m)) * k
}

// HeavyThreshold returns n/√m, the |𝒫(j,t₀)| threshold above which a host
// processor is heavy.
func HeavyThreshold(n, m int) float64 {
	return float64(n) / math.Sqrt(float64(m))
}
