package core

import (
	"math"
	"testing"
)

func TestRPrime(t *testing.T) {
	p := Params{}.Defaults()
	rp, err := p.RPrime(1)
	if err != nil {
		t.Fatal(err)
	}
	want := p.R + math.Log2(p.Q) + p.Delta
	if math.Abs(rp-want) > 1e-9 {
		t.Errorf("r'(1) = %f, want %f", rp, want)
	}
	// Decreasing in k.
	rp2, err := p.RPrime(10)
	if err != nil {
		t.Fatal(err)
	}
	if rp2 >= rp {
		t.Errorf("r' not decreasing: %f → %f", rp, rp2)
	}
	if _, err := p.RPrime(0.5); err == nil {
		t.Error("k < 1 accepted")
	}
}

// TestRPrimeMatchesFeasibility checks the proof's last line,
// r'(k)·k ≥ γ·(c−12)/4·log₂ m, against the chain that KLowerBound solves.
func TestRPrimeMatchesFeasibility(t *testing.T) {
	p := Params{}.Defaults()
	for _, log2m := range []float64{16, 64, 1e5, 1e6} {
		for _, k := range []float64{1, 5, 100, 1e4} {
			rp, err := p.RPrime(k)
			if err != nil {
				t.Fatal(err)
			}
			lhs, rhs := p.Gamma()*float64(p.C-12)/4*log2m, rp*k
			if feasible := rhs >= lhs; feasible != p.Feasible(1, log2m, k) {
				t.Errorf("log2m=%g k=%g: r' line (%f vs %f) disagrees with Feasible", log2m, k, rhs, lhs)
			}
		}
	}
}

func TestKFromClosedFormTracksSolver(t *testing.T) {
	p := Params{}.Defaults()
	for _, log2m := range []float64{1e6, 4e6} {
		solved, err := p.KLowerBound(log2m)
		if err != nil {
			t.Fatal(err)
		}
		closed := p.KFromClosedForm(log2m)
		if solved <= 1 {
			continue
		}
		ratio := closed / solved
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("log2m=%g: closed form %f vs solver %f", log2m, closed, solved)
		}
	}
	// In the trivial regime the closed form also clamps to 1.
	if k := p.KFromClosedForm(10); k != 1 {
		t.Errorf("trivial regime closed form = %f", k)
	}
}
