package core

import (
	"fmt"
	"math"
	"math/big"
)

// Log2Factorial returns log₂(n!) via the log-gamma function.
func Log2Factorial(n int) float64 {
	if n < 0 {
		panic("core: factorial of negative number")
	}
	lg, _ := math.Lgamma(float64(n) + 1)
	return lg / math.Ln2
}

// Log2Choose returns log₂ C(n, k); −Inf when the binomial is zero.
func Log2Choose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	return Log2Factorial(n) - Log2Factorial(k) - Log2Factorial(n-k)
}

// Choose returns C(n, k) exactly.
func Choose(n, k int) *big.Int {
	if k < 0 || k > n {
		return big.NewInt(0)
	}
	return new(big.Int).Binomial(int64(n), int64(k))
}

// Log2MultiplicityExact evaluates the Lemma 3.3 product
// Π_i C(|D_i|, c/2) in log₂ domain for the residual degree c (the paper
// applies it with c−12 after fixing G₀).
func Log2MultiplicityExact(dSizes []int, c int) float64 {
	if c%2 != 0 {
		panic("core: residual degree must be even")
	}
	half := c / 2
	sum := 0.0
	for _, d := range dSizes {
		sum += Log2Choose(d, half)
	}
	return sum
}

// MultiplicityExact is Log2MultiplicityExact with exact big.Int arithmetic.
func MultiplicityExact(dSizes []int, c int) *big.Int {
	half := c / 2
	prod := big.NewInt(1)
	for _, d := range dSizes {
		prod.Mul(prod, Choose(d, half))
	}
	return prod
}

// Log2RegularGraphCount estimates log₂ of the number of labeled c-regular
// graphs on n vertices by the configuration-model asymptotic
// (nc)! / ((nc/2)!·2^{nc/2}·(c!)^n) · e^{−(c²−1)/4}. This is the counting
// baseline |𝒰'| of Section 3.2.
func Log2RegularGraphCount(n, c int) float64 {
	if n*c%2 != 0 {
		return math.Inf(-1)
	}
	nc := n * c
	l := Log2Factorial(nc) - Log2Factorial(nc/2) - float64(nc)/2 -
		float64(n)*Log2Factorial(c)
	l -= (float64(c*c-1) / 4) / math.Ln2
	return l
}

// TradeoffRow is one row of the size/slowdown trade-off table.
type TradeoffRow struct {
	N, M      int
	LowerK    float64 // Theorem 3.1 numeric bound on inefficiency k
	LowerS    float64 // lower bound on the slowdown s = k·n/m (≥ 1)
	UpperS    float64 // Theorem 2.1 butterfly upper bound ⌈n/m⌉·log m
	ProductMS float64 // m·LowerS, to compare with n·log m
	NLogM     float64 // n·log₂ m, the Ω target
}

// TradeoffTable evaluates the lower and upper bounds over host sizes ms for
// fixed guest size n.
func (p Params) TradeoffTable(n int, ms []int) ([]TradeoffRow, error) {
	rows := make([]TradeoffRow, 0, len(ms))
	for _, m := range ms {
		k, err := p.MinInefficiency(n, m)
		if err != nil {
			return nil, fmt.Errorf("core: m=%d: %w", m, err)
		}
		s := k * float64(n) / float64(m)
		if s < 1 {
			s = 1
		}
		rows = append(rows, TradeoffRow{
			N: n, M: m,
			LowerK:    k,
			LowerS:    s,
			UpperS:    UpperBoundSlowdown(n, m, 1),
			ProductMS: float64(m) * s,
			NLogM:     float64(n) * math.Log2(float64(m)),
		})
	}
	return rows, nil
}

// GapRow quantifies the paper's closing open problem for one guest size:
// how many processors does constant slowdown need? Theorem 3.1 forces
// m·s₀ ≥ n·k(log₂ m) (solved as a fixed point in m); [14] supplies the
// upper bound m = O(n^{1+ε}).
type GapRow struct {
	N       int
	S0      float64
	MLower  float64 // smallest m consistent with Theorem 3.1 at slowdown s₀
	MUpper  float64 // n^{1+ε}
	Epsilon float64
}

// OpenProblemGap evaluates the conclusion's gap for a sweep of guest sizes.
// The lower bound iterates m ← n·k(log₂ m)/s₀ to its fixed point.
func (p Params) OpenProblemGap(ns []int, s0, eps float64) ([]GapRow, error) {
	if s0 < 1 || eps <= 0 {
		return nil, fmt.Errorf("core: need s₀ ≥ 1 and ε > 0")
	}
	var rows []GapRow
	for _, n := range ns {
		if n < 2 {
			return nil, fmt.Errorf("core: n=%d too small", n)
		}
		m := float64(n)
		for i := 0; i < 64; i++ {
			k, err := p.KLowerBound(math.Log2(m))
			if err != nil {
				return nil, err
			}
			next := float64(n) * k / s0
			if next < float64(n)/s0 {
				next = float64(n) / s0
			}
			if math.Abs(next-m) < 1e-6*m {
				m = next
				break
			}
			m = next
		}
		rows = append(rows, GapRow{
			N: n, S0: s0,
			MLower:  m,
			MUpper:  math.Pow(float64(n), 1+eps),
			Epsilon: eps,
		})
	}
	return rows, nil
}
