package universal

import (
	"fmt"

	"universalnet/internal/graph"
	"universalnet/internal/routing"
)

// The offline host of Theorem 2.1's actual proof: "the ⌈n/m⌉–⌈n/m⌉ routing
// problem … can be solved by routing O(n/m) permutations that depend on G
// only, and, therefore, are known in advance … in time O(log m)". We realize
// it literally: the host is a wrapped Beneš network; the guests live on its
// level-0 processors; the fixed per-step relation is decomposed once into
// ≤ h permutation rounds (König), each routed by Waksman's vertex-disjoint
// paths, with consecutive rounds pipelined through the levels. The routing
// cost is DETERMINISTIC: (rounds−1) + 2d per guest step — the
// O((n/m)·log m) form with no randomness and no congestion variance.

// BenesHost is a wrapped Beneš network whose level-0 row nodes carry the
// guests. Size m_total = 2d·2^d; the "effective" m of the Theorem 2.1
// statement is the 2^d level-0 processors.
type BenesHost struct {
	Host
	D    int
	Rows int
}

// NewBenesHost builds the wrapped Beneš host of dimension d: the Beneš
// levels 0..2d−1 plus wrap edges joining the last level to level 0 in the
// same row (making the network 4-regular-ish and the round trip possible).
func NewBenesHost(d int) (*BenesHost, error) {
	bg, err := routing.BenesGraph(d)
	if err != nil {
		return nil, err
	}
	rows := 1 << d
	levels := routing.BenesLevels(d)
	b := graph.NewBuilder(bg.N())
	for _, e := range bg.Edges() {
		b.MustAddEdge(e.U, e.V)
	}
	for r := 0; r < rows; r++ {
		b.MustAddEdge(routing.BenesNode(d, levels-1, r), routing.BenesNode(d, 0, r))
	}
	g := b.Build()
	bh := &BenesHost{D: d, Rows: rows}
	bh.Host = Host{
		Name:  fmt.Sprintf("benes(d=%d,rows=%d,m=%d)", d, rows, g.N()),
		Graph: g,
	}
	bh.Host.Router = &OfflineBenesRouter{D: d}
	return bh, nil
}

// GuestNode returns the host processor carrying guests of row r (level 0).
func (bh *BenesHost) GuestNode(r int) int { return routing.BenesNode(bh.D, 0, r) }

// Assignment places n guests on the level-0 rows, balanced (guest i on row
// i mod 2^d).
func (bh *BenesHost) Assignment(n int) []int {
	f := make([]int, n)
	for i := range f {
		f[i] = bh.GuestNode(i % bh.Rows)
	}
	return f
}

// OfflineBenesRouter routes problems whose endpoints all lie on level-0
// nodes of the wrapped Beneš network, by decomposing the relation into
// permutation rounds and certifying each round's Waksman paths. Steps are
// deterministic. Consecutive rounds are pipelined through the levels —
// round k enters level 0 at step k, so level ℓ at step τ carries round τ−ℓ
// and no (node, step) is used twice — for a total of (rounds−1) + 2d steps.
type OfflineBenesRouter struct {
	D int
}

// Name implements routing.Router.
func (r *OfflineBenesRouter) Name() string { return fmt.Sprintf("offline-benes(d=%d)", r.D) }

// Route implements routing.Router.
func (r *OfflineBenesRouter) Route(g *graph.Graph, p *Problem) (routing.Result, error) {
	return r.route(g, p)
}

// Problem aliases routing.Problem so the Router interface matches.
type Problem = routing.Problem

func (r *OfflineBenesRouter) route(g *graph.Graph, p *routing.Problem) (routing.Result, error) {
	d := r.D
	rows := 1 << d
	levels := routing.BenesLevels(d)
	if g.N() != levels*rows {
		return routing.Result{}, fmt.Errorf("universal: offline router expects the wrapped Beneš graph (%d nodes), got %d", levels*rows, g.N())
	}
	// Translate node pairs to row pairs; all endpoints must be level 0.
	rowPairs := make([]routing.Pair, 0, len(p.Pairs))
	for _, pr := range p.Pairs {
		if pr.Src >= rows || pr.Dst >= rows {
			return routing.Result{}, fmt.Errorf("universal: offline router needs level-0 endpoints; got pair %v", pr)
		}
		if pr.Src != pr.Dst {
			rowPairs = append(rowPairs, pr)
		}
	}
	if len(rowPairs) == 0 {
		return routing.Result{Delivered: len(p.Pairs)}, nil
	}
	// Decompose into permutation rounds, certifying each round's Waksman
	// schedule (vertex-disjoint paths).
	_, rounds, err := routing.OfflineScheduleHH(d, &routing.Problem{N: rows, Pairs: rowPairs})
	if err != nil {
		return routing.Result{}, err
	}
	perRound := (levels - 1) + 1 // Beneš stages + wrap hop back to level 0
	return routing.Result{
		Steps:         (rounds - 1) + perRound,
		Delivered:     len(p.Pairs),
		StepsPerPhase: []int{rounds},
	}, nil
}
