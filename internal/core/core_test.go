package core

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestDefaults(t *testing.T) {
	p := Params{}.Defaults()
	if p.C != 16 || p.Q != 384 || p.D != 4 {
		t.Errorf("defaults wrong: %+v", p)
	}
	if math.Abs(p.R-(3472+384*2)) > 1e-9 {
		t.Errorf("r = %f", p.R)
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
	// Defaults must not clobber explicit values.
	p2 := Params{C: 14, Q: 10}.Defaults()
	if p2.C != 14 || p2.Q != 10 {
		t.Errorf("explicit values clobbered: %+v", p2)
	}
}

func TestValidate(t *testing.T) {
	bad := []Params{
		{C: 12, D: 4, Q: 1, R: 1, Alpha: .5, Beta: 1.5, Delta: 1},  // c too small
		{C: 15, D: 4, Q: 1, R: 1, Alpha: .5, Beta: 1.5, Delta: 1},  // c odd
		{C: 16, D: 1, Q: 1, R: 1, Alpha: .5, Beta: 1.5, Delta: 1},  // d too small
		{C: 16, D: 4, Q: 1, R: 1, Alpha: 1.5, Beta: 1.5, Delta: 1}, // α out of range
		{C: 16, D: 4, Q: 1, R: 1, Alpha: .5, Beta: 0.9, Delta: 1},  // β ≤ 1
		{C: 16, D: 4, Q: -1, R: 1, Alpha: .5, Beta: 1.5, Delta: 1}, // q ≤ 0
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
}

func TestGamma(t *testing.T) {
	p := Params{Alpha: 0.5, Beta: 2}.Defaults()
	if g := p.Gamma(); math.Abs(g-0.125) > 1e-12 {
		t.Errorf("γ = %f, want 0.125", g)
	}
}

func TestLog2Factorial(t *testing.T) {
	if got := Log2Factorial(0); math.Abs(got) > 1e-9 {
		t.Errorf("log2 0! = %f", got)
	}
	if got := Log2Factorial(5); math.Abs(got-math.Log2(120)) > 1e-9 {
		t.Errorf("log2 5! = %f", got)
	}
}

func TestLog2Choose(t *testing.T) {
	if got := Log2Choose(10, 3); math.Abs(got-math.Log2(120)) > 1e-9 {
		t.Errorf("log2 C(10,3) = %f", got)
	}
	if !math.IsInf(Log2Choose(3, 5), -1) {
		t.Error("C(3,5) should be -Inf in log domain")
	}
	if !math.IsInf(Log2Choose(3, -1), -1) {
		t.Error("negative k should be -Inf")
	}
}

func TestChooseExactMatchesLog(t *testing.T) {
	f := func(a, b uint8) bool {
		n := int(a%40) + 1
		k := int(b) % (n + 1)
		exact := Choose(n, k)
		if exact.Sign() == 0 {
			return math.IsInf(Log2Choose(n, k), -1)
		}
		lf, _ := new(big.Float).SetInt(exact).Float64()
		return math.Abs(Log2Choose(n, k)-math.Log2(lf)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMultiplicityExactAgainstLog(t *testing.T) {
	d := []int{5, 7, 9, 4}
	exact := MultiplicityExact(d, 4)
	want := new(big.Int).Mul(Choose(5, 2), Choose(7, 2))
	want.Mul(want, Choose(9, 2))
	want.Mul(want, Choose(4, 2))
	if exact.Cmp(want) != 0 {
		t.Errorf("exact multiplicity %v, want %v", exact, want)
	}
	lf, _ := new(big.Float).SetInt(exact).Float64()
	if math.Abs(Log2MultiplicityExact(d, 4)-math.Log2(lf)) > 1e-6 {
		t.Error("log multiplicity disagrees with exact")
	}
}

func TestLog2RegularGraphCountSanity(t *testing.T) {
	// 2-regular graphs on n vertices are disjoint unions of cycles — their
	// number is about n!/(something); the estimate must be positive and
	// below log2(n!) for n not tiny.
	l := Log2RegularGraphCount(12, 2)
	if l <= 0 || l >= Log2Factorial(12) {
		t.Errorf("2-regular count estimate %f out of range (log2 12! = %f)", l, Log2Factorial(12))
	}
	// Odd n·c impossible.
	if !math.IsInf(Log2RegularGraphCount(5, 3), -1) {
		t.Error("odd degree sum should be impossible")
	}
	// Growth in c.
	if Log2RegularGraphCount(64, 4) >= Log2RegularGraphCount(64, 8) {
		t.Error("more edges should mean more graphs in this regime")
	}
}

func TestLog2GuestsPositive(t *testing.T) {
	p := Params{}.Defaults()
	if g := p.Log2Guests(1024); g <= 0 {
		t.Errorf("log2 |U[G0]| = %f", g)
	}
}

func TestFeasibleMonotoneInK(t *testing.T) {
	p := Params{}.Defaults()
	n, log2m := 1<<20, 16.0
	if p.Feasible(n, log2m, 0.5) && !p.Feasible(n, log2m, 1000) {
		t.Error("feasibility not monotone")
	}
	for k := 1.0; k < 1e6; k *= 4 {
		if p.Feasible(n, log2m, k) {
			if !p.Feasible(n, log2m, k*2) {
				t.Errorf("feasible at k=%f but not at 2k", k)
			}
		}
	}
}

func TestPaperConstantsAreVacuousAtLaptopScale(t *testing.T) {
	// A genuine property of the paper's constants: with r ≈ 4240 the bound
	// stays at the trivial k = 1 for every realistic host size. This is why
	// the experiments also evaluate ToyParams.
	p := Params{}.Defaults()
	for _, m := range []int{1 << 10, 1 << 20, 1 << 40} {
		k, err := p.MinInefficiency(1<<20, m)
		if err != nil {
			t.Fatal(err)
		}
		if k != 1 {
			t.Errorf("m=2^%d: k = %f, expected the trivial bound 1", m, k)
		}
	}
}

func TestKLowerBoundGrowsWithLogM(t *testing.T) {
	// Paper constants, asymptotic regime: the Ω(log m) slope appears once
	// log₂ m passes ~r/γ'.
	p := Params{}.Defaults()
	k1, err := p.KLowerBound(1e6)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := p.KLowerBound(2e6)
	if err != nil {
		t.Fatal(err)
	}
	k4, err := p.KLowerBound(4e6)
	if err != nil {
		t.Fatal(err)
	}
	if !(k1 < k2 && k2 < k4) {
		t.Errorf("k not increasing in log m: %f %f %f", k1, k2, k4)
	}
	if ratio := k4 / k2; math.Abs(ratio-2) > 0.3 {
		t.Errorf("asymptotic slope not linear: k2=%f k4=%f", k2, k4)
	}
}

func TestToyParamsShowShapeAtSmallSizes(t *testing.T) {
	p := ToyParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	k10, err := p.MinInefficiency(1<<14, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	k20, err := p.MinInefficiency(1<<14, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	k40, err := p.MinInefficiency(1<<14, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if !(k10 < k20 && k20 < k40) {
		t.Errorf("toy bound flat: %f %f %f", k10, k20, k40)
	}
	if k40 < 2 {
		t.Errorf("toy bound never leaves trivial regime: k40 = %f", k40)
	}
}

func TestMinInefficiencyErrors(t *testing.T) {
	p := Params{}.Defaults()
	if _, err := p.MinInefficiency(1, 16); err == nil {
		t.Error("n=1 accepted")
	}
	bad := Params{C: 13}.Defaults()
	if _, err := bad.MinInefficiency(64, 64); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestUpperBoundSlowdown(t *testing.T) {
	// n = m: s = log2 m.
	if got := UpperBoundSlowdown(1024, 1024, 1); math.Abs(got-10) > 1e-9 {
		t.Errorf("upper bound = %f, want 10", got)
	}
	// n = 4m: load 4.
	if got := UpperBoundSlowdown(4096, 1024, 1); math.Abs(got-40) > 1e-9 {
		t.Errorf("upper bound = %f, want 40", got)
	}
}

func TestTradeoffTable(t *testing.T) {
	p := Params{}.Defaults()
	n := 1 << 24
	rows, err := p.TradeoffTable(n, []int{1 << 10, 1 << 14, 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.LowerS < 1 {
			t.Errorf("row %d: lower slowdown %f", i, r.LowerS)
		}
		if r.UpperS < r.LowerS {
			t.Errorf("row %d: upper bound %f below lower bound %f", i, r.UpperS, r.LowerS)
		}
		if r.ProductMS <= 0 || r.NLogM <= 0 {
			t.Errorf("row %d: products wrong: %+v", i, r)
		}
	}
	// m·s lower bound must scale like n·log m: the ratio should be roughly
	// stable across rows (within a factor of ~40 given the huge constants).
	r0 := rows[0].ProductMS / rows[0].NLogM
	r2 := rows[2].ProductMS / rows[2].NLogM
	if r0 <= 0 || r2 <= 0 {
		t.Error("degenerate ratios")
	}
	if r2/r0 > 40 || r0/r2 > 40 {
		t.Errorf("m·s / n·log m wildly unstable: %f vs %f", r0, r2)
	}
}

func TestMinHostSizeForConstantSlowdown(t *testing.T) {
	// With toy constants the m = Ω(n log n) corollary is visible: a slowdown
	// cap of s₀ forces m ≥ n·k/s₀ with k = Ω(log m) > s₀ for large n.
	p := ToyParams()
	n := 1 << 20
	tight, err := p.OpenProblemGap([]int{n}, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if tight[0].MLower < float64(n) {
		t.Errorf("m = %f below n = %d for constant slowdown", tight[0].MLower, n)
	}
	// Monotone: a looser cap permits a smaller (or equal) host.
	loose, err := p.OpenProblemGap([]int{n}, 64, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if loose[0].MLower > tight[0].MLower {
		t.Errorf("looser cap needs bigger host: %f > %f", loose[0].MLower, tight[0].MLower)
	}
}

func TestFrontierAndHeavyBounds(t *testing.T) {
	p := Params{}.Defaults()
	gap := p.FrontierGapBound(1<<20, 1<<10, 10)
	if gap <= 0 {
		t.Errorf("gap bound %f", gap)
	}
	if HeavyProcessorBound(1<<10, 10) <= 0 {
		t.Error("heavy processor bound not positive")
	}
	if got := HeavyThreshold(1<<20, 1<<10); math.Abs(got-float64(1<<20)/32) > 1e-6 {
		t.Errorf("heavy threshold = %f", got)
	}
	// Larger k ⇒ smaller forced gap (more parallel work allowed).
	if p.FrontierGapBound(1<<20, 1<<10, 20) >= gap {
		t.Error("gap bound not decreasing in k")
	}
}

func TestBoundImprovesWithExpanderQuality(t *testing.T) {
	// Better expanders (larger α, β) give larger γ and hence a stronger
	// bound: k(log₂ m) must be monotone in both parameters.
	base := Params{C: 16, D: 4, Q: 2, R: 1, Alpha: 0.3, Beta: 1.5, Delta: 1}
	betterAlpha := base
	betterAlpha.Alpha = 0.6
	betterBeta := base
	betterBeta.Beta = 3
	lm := 1e3
	kBase, err := base.KLowerBound(lm)
	if err != nil {
		t.Fatal(err)
	}
	kA, err := betterAlpha.KLowerBound(lm)
	if err != nil {
		t.Fatal(err)
	}
	kB, err := betterBeta.KLowerBound(lm)
	if err != nil {
		t.Fatal(err)
	}
	if kA <= kBase {
		t.Errorf("larger α did not strengthen the bound: %f vs %f", kA, kBase)
	}
	if kB <= kBase {
		t.Errorf("larger β did not strengthen the bound: %f vs %f", kB, kBase)
	}
}

func TestKLowerBoundGuards(t *testing.T) {
	p := Params{}.Defaults()
	if _, err := p.KLowerBound(0); err == nil {
		t.Error("log2m = 0 accepted")
	}
	bad := Params{C: 13}.Defaults()
	if _, err := bad.KLowerBound(10); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestOpenProblemGap(t *testing.T) {
	p := ToyParams()
	rows, err := p.OpenProblemGap([]int{1 << 10, 1 << 14, 1 << 18}, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// The gap: Ω(n log n)-ish lower bound below the n^{1+ε} upper bound.
		if r.MLower <= float64(r.N)/2 {
			t.Errorf("n=%d: lower bound %f below n/s0", r.N, r.MLower)
		}
		if r.MUpper <= r.MLower {
			t.Errorf("n=%d: gap inverted: lower %f ≥ upper %f", r.N, r.MLower, r.MUpper)
		}
	}
	// The lower bound must grow super-linearly in n (the n·log n corollary)
	// in the regime where k > s0.
	r0, r2 := rows[0], rows[2]
	if r2.MLower/float64(r2.N) <= r0.MLower/float64(r0.N) {
		t.Errorf("m/n not growing: %f vs %f", r0.MLower/float64(r0.N), r2.MLower/float64(r2.N))
	}
	if _, err := p.OpenProblemGap([]int{4}, 0.5, 0.5); err == nil {
		t.Error("s0 < 1 accepted")
	}
	if _, err := p.OpenProblemGap([]int{1}, 2, 0.5); err == nil {
		t.Error("n=1 accepted")
	}
}
