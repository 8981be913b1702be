// Package experiments drives the reproduction experiments E1–E24 and E26
// of DESIGN.md: each function runs one experiment end to end and returns typed
// rows that the benchmark harness (bench_test.go), the CLI (cmd/uninet) and
// EXPERIMENTS.md all consume. The paper has no evaluation tables of its own —
// these experiments turn each theorem, lemma and the single figure into a
// measured artifact.
package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"universalnet/internal/core"
	"universalnet/internal/obs"
	"universalnet/internal/sim"
	"universalnet/internal/topology"
	"universalnet/internal/universal"
)

// Table is a generic formatted result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteString("\n")
	for i := range t.Columns {
		b.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		for i, cell := range r {
			fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E1 — Theorem 2.1 / §2: butterfly of size m is n-universal with slowdown
// O((n/m)·log m).

// E1Row is one host-size point of the upper-bound sweep.
type E1Row struct {
	HostName  string
	M         int
	Load      int     // ⌈n/m⌉
	MeasuredS float64 // measured slowdown
	PredictS  float64 // ⌈n/m⌉·log₂ m
	Ratio     float64 // MeasuredS / PredictS — should be ≈ constant
}

// E1UpperBound sweeps butterfly hosts for a fixed random guest and measures
// the slowdown of the Theorem 2.1 simulation, checked against direct
// execution. A registry attached to ctx (obs.FromContext) receives the
// engine, routing and slowdown-histogram metrics of every sweep point.
func E1UpperBound(ctx context.Context, n, guestDeg, T int, dims []int, seed int64) ([]E1Row, error) {
	reg := obs.FromContext(ctx)
	rng := rand.New(rand.NewSource(seed))
	guest, err := topology.RandomGuest(rng, n, guestDeg)
	if err != nil {
		return nil, err
	}
	comp := sim.MixMod(guest, rng)
	comp.Obs = reg
	direct, err := comp.Run(T)
	if err != nil {
		return nil, err
	}
	var rows []E1Row
	for _, d := range dims {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		host, err := universal.ButterflyHost(d)
		if err != nil {
			return nil, err
		}
		m := host.Graph.N()
		if m > n {
			continue // §2 regime is m ≤ n
		}
		rep, err := (&universal.EmbeddingSimulator{Host: host, Obs: reg}).Run(comp, T)
		if err != nil {
			return nil, err
		}
		if rep.Trace.Checksum() != direct.Checksum() {
			return nil, fmt.Errorf("experiments: E1 simulation diverged on %s", host.Name)
		}
		pred := core.UpperBoundSlowdown(n, m, 1)
		rows = append(rows, E1Row{
			HostName:  host.Name,
			M:         m,
			Load:      rep.MaxLoad,
			MeasuredS: rep.Slowdown,
			PredictS:  pred,
			Ratio:     rep.Slowdown / pred,
		})
	}
	return rows, nil
}

// E1Table formats E1 rows.
func E1Table(n int, rows []E1Row) *Table {
	t := &Table{
		Title:   fmt.Sprintf("E1 (Thm 2.1): butterfly hosts simulating a random guest, n=%d — s vs (n/m)·log m", n),
		Columns: []string{"host", "m", "load", "measured s", "(n/m)·log2 m", "ratio"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.HostName, fmt.Sprint(r.M), fmt.Sprint(r.Load),
			fmt.Sprintf("%.1f", r.MeasuredS), fmt.Sprintf("%.1f", r.PredictS),
			fmt.Sprintf("%.2f", r.Ratio),
		})
	}
	return t
}

// ---------------------------------------------------------------------------
// E2 — Theorem 3.1: the lower-bound curve k(m) = Ω(log m).

// E2Row is one point of the lower-bound curve.
type E2Row struct {
	Log2M    float64
	PaperK   float64 // bound with the paper's constants
	ToyK     float64 // bound with unit constants (shape at small sizes)
	SlopeRef float64 // γ(c−12)/4 / r · log₂ m, the asymptotic line
}

// E2LowerBoundCurve evaluates Theorem 3.1 numerically across host sizes.
func E2LowerBoundCurve(log2ms []float64) ([]E2Row, error) {
	paper := core.Params{}.Defaults()
	toy := core.ToyParams()
	var rows []E2Row
	for _, lm := range log2ms {
		pk, err := paper.KLowerBound(lm)
		if err != nil {
			return nil, err
		}
		tk, err := toy.KLowerBound(lm)
		if err != nil {
			return nil, err
		}
		rows = append(rows, E2Row{
			Log2M:    lm,
			PaperK:   pk,
			ToyK:     tk,
			SlopeRef: paper.Gamma() * float64(paper.C-12) / 4 * lm / paper.R,
		})
	}
	return rows, nil
}

// E2Table formats E2 rows.
func E2Table(rows []E2Row) *Table {
	t := &Table{
		Title:   "E2 (Thm 3.1): lower bound on inefficiency k = Ω(log m)",
		Columns: []string{"log2 m", "k (paper consts)", "k (toy consts)", "asymptote (paper)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", r.Log2M), fmt.Sprintf("%.2f", r.PaperK),
			fmt.Sprintf("%.2f", r.ToyK), fmt.Sprintf("%.3f", r.SlopeRef),
		})
	}
	return t
}

// ---------------------------------------------------------------------------
// Trade-off table (abstract): m·s vs n·log m, both regimes.

// TradeoffTable renders the core trade-off rows for a guest size.
func TradeoffTable(p core.Params, n int, ms []int) (*Table, error) {
	rows, err := p.TradeoffTable(n, ms)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Size/slowdown trade-off, n=%d: m·s = Ω(n·log m) vs Theorem 2.1 upper bound", n),
		Columns: []string{"m", "k lower", "s lower", "s upper (BF)", "m·s lower", "n·log2 m"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.M), fmt.Sprintf("%.2f", r.LowerK), fmt.Sprintf("%.2f", r.LowerS),
			fmt.Sprintf("%.1f", r.UpperS), fmt.Sprintf("%.0f", r.ProductMS),
			fmt.Sprintf("%.0f", r.NLogM),
		})
	}
	return t, nil
}

// GeomMean returns the geometric mean of xs (0 for empty input).
func GeomMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
