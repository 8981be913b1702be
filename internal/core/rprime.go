package core

import (
	"fmt"
	"math"
)

// RPrime returns the r' of the Theorem 3.1 proof: the smallest constant with
// (q·k)^n · 2^{δ·n} · 2^{r·n·k} ≤ 2^{r'·n·k}, i.e. (normalized per n·k)
// r' = r + (log₂(q·k) + δ)/k. Monotone decreasing in k — the proof may take
// any k ≥ 1, so r' ≤ r + log₂ q + δ always suffices.
func (p Params) RPrime(k float64) (float64, error) {
	if k < 1 {
		return 0, fmt.Errorf("core: r' needs k ≥ 1, got %f", k)
	}
	return p.R + (math.Log2(p.Q*k)+p.Delta)/k, nil
}

// KFromClosedForm inverts the proof's last line, r'·k ≥ γ·(c−12)/4·log₂ m,
// for k, iterating because r' depends weakly on k.
func (p Params) KFromClosedForm(log2m float64) float64 {
	k := 1.0
	for i := 0; i < 4; i++ {
		rp, err := p.RPrime(k)
		if err != nil {
			return 1
		}
		next := p.Gamma() * (float64(p.C-12) / 4) * log2m / rp
		if next < 1 {
			next = 1
		}
		k = next
	}
	return k
}
