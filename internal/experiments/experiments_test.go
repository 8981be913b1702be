package experiments

import (
	"context"
	"strings"
	"testing"

	"universalnet/internal/core"
	"universalnet/internal/depgraph"
	"universalnet/internal/topology"
)

func TestTableString(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "longcolumn"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
	}
	s := tab.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "longcolumn") || !strings.Contains(s, "333") {
		t.Errorf("table render missing content:\n%s", s)
	}
}

func TestE1UpperBound(t *testing.T) {
	rows, err := E1UpperBound(context.Background(), 256, 4, 3, []int{3, 4, 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	// Slowdown decreases as the host grows.
	for i := 1; i < len(rows); i++ {
		if rows[i].M <= rows[i-1].M {
			t.Fatalf("hosts not increasing: %v", rows)
		}
		if rows[i].MeasuredS >= rows[i-1].MeasuredS {
			t.Errorf("slowdown not decreasing with m: %+v then %+v", rows[i-1], rows[i])
		}
	}
	// Shape check: measured/predicted ratios stay within a small band —
	// the (n/m)·log m form explains the measurements.
	var ratios []float64
	for _, r := range rows {
		if r.Ratio <= 0 {
			t.Fatalf("bad ratio in %+v", r)
		}
		ratios = append(ratios, r.Ratio)
	}
	gm := GeomMean(ratios)
	for _, r := range ratios {
		if r/gm > 3 || gm/r > 3 {
			t.Errorf("ratio %f strays from geometric mean %f", r, gm)
		}
	}
	if E1Table(256, rows).String() == "" {
		t.Error("empty table")
	}
}

func TestE2LowerBoundCurve(t *testing.T) {
	rows, err := E2LowerBoundCurve([]float64{10, 20, 1e6, 2e6})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].PaperK != 1 || rows[1].PaperK != 1 {
		t.Error("paper bound should be trivial at small m")
	}
	if rows[3].PaperK <= rows[2].PaperK {
		t.Error("paper bound flat in the asymptotic regime")
	}
	if rows[1].ToyK <= rows[0].ToyK {
		t.Error("toy bound flat at small sizes")
	}
	if E2Table(rows).String() == "" {
		t.Error("empty table")
	}
}

func TestTradeoffTableRender(t *testing.T) {
	tab, err := TradeoffTable(core.ToyParams(), 1<<16, []int{1 << 8, 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Errorf("rows = %d", len(tab.Rows))
	}
}

func TestE3DependencyTrees(t *testing.T) {
	rows, err := E3DependencyTrees([]int{4, 6}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Trees != r.BlockSide*r.BlockSide {
			t.Errorf("checked %d trees, want %d", r.Trees, r.BlockSide*r.BlockSide)
		}
		if r.SizePerA2 > 120 {
			t.Errorf("size constant %f too large", r.SizePerA2)
		}
		if r.DepthPerA > 12 {
			t.Errorf("depth/a = %f not O(1)", r.DepthPerA)
		}
	}
	if E3Table(rows).String() == "" {
		t.Error("empty table")
	}
}

func TestRenderDependencyTree(t *testing.T) {
	g0, err := topology.BuildG0WithBlockSide(144, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	depth := depgraph.TreeDepth(4)
	tree, err := depgraph.BuildDependencyTree(g0, g0.Blocks[0].Vertices[0], depth)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderDependencyTree(g0, tree)
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "t= 0") {
		t.Errorf("rendering incomplete:\n%s", out)
	}
	if strings.Count(out, "\n") < depth {
		t.Error("rendering missing levels")
	}
}

func TestE4CriticalTimes(t *testing.T) {
	// blockSide 4 ⇒ D = 16; T comfortably larger.
	res, err := E4CriticalTimes(64, 4, 3, 16, 24, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.ZSize < res.ZLowerBound {
		t.Errorf("|Z_S| = %d below guarantee %d", res.ZSize, res.ZLowerBound)
	}
	if res.Checked != res.ZSize {
		t.Errorf("checked %d of %d critical times", res.Checked, res.ZSize)
	}
	if res.Ineq1Violated {
		t.Error("Lemma 3.12 inequality (1) violated")
	}
	if res.Ineq2Violated {
		t.Error("Lemma 3.12 inequality (2) violated")
	}
	if res.K <= 0 {
		t.Error("inefficiency not measured")
	}
	if _, err := E4CriticalTimes(64, 4, 3, 16, 10, 11); err == nil {
		t.Error("T below tree depth accepted")
	}
}

func TestE5Frontier(t *testing.T) {
	res, err := E5Frontier(64, 4, 3, 8, 0.4, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Thresholds) != 7 {
		t.Fatalf("thresholds = %v", res.Thresholds)
	}
	// Thresholds strictly increase: later frontiers need later host steps.
	for i := 1; i < len(res.Thresholds); i++ {
		if res.Thresholds[i] <= res.Thresholds[i-1] {
			t.Errorf("thresholds not increasing: %v", res.Thresholds)
		}
	}
	if res.MinGap < 1 {
		t.Errorf("min gap = %d", res.MinGap)
	}
	if res.BetaSampled <= 0 {
		t.Error("no expansion sampled")
	}
}

func TestE6TreeCache(t *testing.T) {
	rows, err := E6TreeCache(8, 2, []int{2, 3, 4}, 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Slowdown != float64(r.C+2) {
			t.Errorf("slowdown %f, want %d", r.Slowdown, r.C+2)
		}
	}
	// Host size grows exponentially in depth.
	if !(rows[0].M < rows[1].M && rows[1].M < rows[2].M) {
		t.Errorf("sizes not growing: %+v", rows)
	}
	if E6Table(rows).String() == "" {
		t.Error("empty table")
	}
}

func TestE7Tradeoff(t *testing.T) {
	rows, err := E7Tradeoff(context.Background(), 24, 3, 3, 3, 6, 19)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var emb, tc *E7Row
	for i := range rows {
		switch {
		case strings.HasPrefix(rows[i].Kind, "embedding"):
			emb = &rows[i]
		case strings.HasPrefix(rows[i].Kind, "tree-cache"):
			tc = &rows[i]
		}
	}
	if emb == nil || tc == nil {
		t.Fatal("constructive endpoints missing")
	}
	// The trade-off: the bigger host must be much faster.
	if tc.Ell <= emb.Ell {
		t.Errorf("tree-cache not larger: ℓ %f vs %f", tc.Ell, emb.Ell)
	}
	if tc.Slowdown >= emb.Slowdown {
		t.Errorf("tree-cache not faster: s %f vs %f", tc.Slowdown, emb.Slowdown)
	}
	if E7Table(rows).String() == "" {
		t.Error("empty table")
	}
}

func TestE8OfflineRouting(t *testing.T) {
	rows, err := E8OfflineRouting(context.Background(), []int{3, 4, 5}, 3, 23)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.OfflineSteps != 2*r.D-1 {
			t.Errorf("offline steps %d, want %d", r.OfflineSteps, 2*r.D-1)
		}
		if r.HRounds > r.H {
			t.Errorf("rounds %d exceed h=%d", r.HRounds, r.H)
		}
		if r.HSteps != r.HRounds*(2*r.D-1) {
			t.Errorf("h-steps accounting wrong: %+v", r)
		}
		if r.OnlineSteps < r.OfflineSteps {
			t.Errorf("online greedy beat the Beneš depth: %+v", r)
		}
	}
	if E8Table(rows).String() == "" {
		t.Error("empty table")
	}
}

func TestE9FragmentMultiplicity(t *testing.T) {
	res, err := E9FragmentMultiplicity(context.Background(), 64, 4, 3, 16, 6, 3, 29)
	if err != nil {
		t.Fatal(err)
	}
	if !res.EdgeInclOK {
		t.Error("Lemma 3.3 edge inclusion violated: some neighbor outside D_i")
	}
	if res.Guests != 3 {
		t.Errorf("guests = %d", res.Guests)
	}
	if res.MaxD < 1 || res.MaxD > 64 {
		t.Errorf("max |D_i| = %d out of range", res.MaxD)
	}
	if res.Log2XBound <= 0 {
		t.Errorf("multiplicity bound %f", res.Log2XBound)
	}
}

func TestE10G0Expansion(t *testing.T) {
	rows, err := E10G0Expansion(context.Background(), []int{4, 6}, 0.25, 31)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.MaxDegree > 12 {
			t.Errorf("G0 degree %d > 12", r.MaxDegree)
		}
		if r.Lambda2 >= 1 {
			t.Errorf("no spectral gap: λ₂ = %f", r.Lambda2)
		}
		if r.BetaSample < r.BetaTanner-1e-9 {
			t.Errorf("sampled β %f below certificate %f", r.BetaSample, r.BetaTanner)
		}
	}
	if E10Table(rows).String() == "" {
		t.Error("empty table")
	}
}

func TestGeomMean(t *testing.T) {
	if GeomMean(nil) != 0 {
		t.Error("empty mean not 0")
	}
	if g := GeomMean([]float64{2, 8}); g < 3.99 || g > 4.01 {
		t.Errorf("geomean = %f, want 4", g)
	}
}

func TestPlotRender(t *testing.T) {
	p := &Plot{
		Title: "demo", Width: 20, Height: 6,
		Series: []Series{{Name: "line", Marker: 'x', X: []float64{0, 1, 2}, Y: []float64{0, 1, 4}}},
	}
	out, err := p.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "demo") || !strings.Contains(out, "x line") {
		t.Errorf("plot incomplete:\n%s", out)
	}
	if !strings.ContainsRune(out, 'x') {
		t.Error("markers missing")
	}
	// Guards.
	if _, err := (&Plot{Width: 4, Height: 2}).Render(); err == nil {
		t.Error("tiny plot accepted")
	}
	if _, err := (&Plot{Width: 20, Height: 6}).Render(); err == nil {
		t.Error("empty series accepted")
	}
	bad := &Plot{Width: 20, Height: 6, LogY: true,
		Series: []Series{{X: []float64{1}, Y: []float64{0}}}}
	if _, err := bad.Render(); err == nil {
		t.Error("log of non-positive accepted")
	}
	mismatch := &Plot{Width: 20, Height: 6,
		Series: []Series{{X: []float64{1, 2}, Y: []float64{1}}}}
	if _, err := mismatch.Render(); err == nil {
		t.Error("mismatched series accepted")
	}
	// Flat series (degenerate ranges) still render.
	flat := &Plot{Width: 20, Height: 6,
		Series: []Series{{Name: "flat", X: []float64{1, 1}, Y: []float64{2, 2}}}}
	if _, err := flat.Render(); err != nil {
		t.Errorf("flat series: %v", err)
	}
}

func TestPlotE1AndE2(t *testing.T) {
	rows, err := E1UpperBound(context.Background(), 256, 4, 3, []int{3, 4, 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	fig, err := PlotE1(256, rows)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig, "Figure E1") || !strings.Contains(fig, "measured slowdown") {
		t.Errorf("E1 figure incomplete:\n%s", fig)
	}
	rows2, err := E2LowerBoundCurve([]float64{10, 100, 1e4, 1e6})
	if err != nil {
		t.Fatal(err)
	}
	fig2, err := PlotE2(rows2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig2, "Figure E2") {
		t.Errorf("E2 figure incomplete:\n%s", fig2)
	}
}

func TestPlotE19(t *testing.T) {
	rows, err := E19RouteScaling(context.Background(), []int{1, 2, 4}, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	fig, err := PlotE19(rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure E19", "torus", "ring"} {
		if !strings.Contains(fig, want) {
			t.Errorf("figure missing %q:\n%s", want, fig)
		}
	}
}

func TestE5TableAndGapBound(t *testing.T) {
	res, err := E5Frontier(64, 4, 3, 8, 0.4, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Gaps) != len(res.Thresholds)-1 {
		t.Errorf("gaps %d vs thresholds %d", len(res.Gaps), len(res.Thresholds))
	}
	if res.GapBound <= 0 {
		t.Errorf("gap bound %f", res.GapBound)
	}
	// Lemma 3.15's forced gap must hold for the measured protocol: every
	// measured gap is at least the bound (the bound is tiny at these sizes,
	// but positive — the comparison is the point).
	for _, g := range res.Gaps {
		if float64(g) < res.GapBound {
			t.Errorf("measured gap %d below the forced bound %.3f", g, res.GapBound)
		}
	}
	if E5Table(res).String() == "" {
		t.Error("empty table")
	}
}
