package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"universalnet/internal/core"
	"universalnet/internal/sim"
	"universalnet/internal/topology"
	"universalnet/internal/universal"
)

// ---------------------------------------------------------------------------
// E14 — §2, last paragraph: simulating the complete network. The
// communication pattern is a fresh (unknown-in-advance) permutation every
// round, so the host must route ONLINE; Theorem 2.1 still gives slowdown
// O(route_M(n/m)) and the same (n/m)·log m shape as for bounded-degree
// guests.

// E14Row is one host-size point of the oblivious-simulation sweep.
type E14Row struct {
	M         int
	Load      int
	MeasuredS float64 // oblivious complete-network slowdown (online routing)
	BoundedS  float64 // bounded-degree guest slowdown on the same host (E1)
	PredictS  float64 // ⌈n/m⌉·log₂ m
	Ratio     float64 // MeasuredS / PredictS
}

// E14ObliviousComplete sweeps butterfly hosts simulating the complete
// network under random permutation patterns, verified against direct
// execution, side by side with a bounded-degree guest on the same host.
func E14ObliviousComplete(n, T int, dims []int, seed int64) ([]E14Row, error) {
	rng := rand.New(rand.NewSource(seed))
	init := sim.RandomInit(n, rng)
	pattern := universal.RandomObliviousPattern(rng, n, T)
	direct, err := universal.DirectObliviousRun(init, pattern)
	if err != nil {
		return nil, err
	}
	bounded, err := E1UpperBound(context.Background(), n, 4, T, dims, seed+1)
	if err != nil {
		return nil, err
	}
	boundedByM := make(map[int]float64)
	for _, r := range bounded {
		boundedByM[r.M] = r.MeasuredS
	}
	var rows []E14Row
	for _, d := range dims {
		host, err := universal.ButterflyHost(d)
		if err != nil {
			return nil, err
		}
		m := host.Graph.N()
		if m > n {
			continue
		}
		rep, err := (&universal.EmbeddingSimulator{Host: host}).RunOblivious(init, pattern)
		if err != nil {
			return nil, err
		}
		if rep.Trace.Checksum() != direct.Checksum() {
			return nil, fmt.Errorf("experiments: E14 diverged on %s", host.Name)
		}
		pred := core.UpperBoundSlowdown(n, m, 1)
		rows = append(rows, E14Row{
			M: m, Load: rep.MaxLoad,
			MeasuredS: rep.Slowdown,
			BoundedS:  boundedByM[m],
			PredictS:  pred,
			Ratio:     rep.Slowdown / pred,
		})
	}
	return rows, nil
}

// E14Table formats E14 rows.
func E14Table(n int, rows []E14Row) *Table {
	t := &Table{
		Title:   fmt.Sprintf("E14 (§2): oblivious complete-network simulation, n=%d — online routing, same (n/m)·log m shape", n),
		Columns: []string{"m", "load", "s (complete K_n)", "s (4-regular)", "(n/m)·log2 m", "ratio"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.M), fmt.Sprint(r.Load),
			fmt.Sprintf("%.1f", r.MeasuredS), fmt.Sprintf("%.1f", r.BoundedS),
			fmt.Sprintf("%.1f", r.PredictS), fmt.Sprintf("%.2f", r.Ratio),
		})
	}
	return t
}

// ---------------------------------------------------------------------------
// E16 — §1: dynamic embeddings increase efficiency iff m > n ([14]).
// Replication shrinks the fetch distance, the locality [14] exploits, but
// here every replica recomputes its guest and every host holding a
// neighbour's replica receives the configuration, so compute and traffic
// grow with r and the slowdown rises with r in both regimes at these sizes.

// E16Row is one replication point.
type E16Row struct {
	Regime       string // "m>n" or "m≤n"
	M, N, R      int
	AvgFetchDist float64
	RouteSteps   int
	Slowdown     float64
	Verified     bool
}

// E16Redundancy sweeps the replication factor on a large host (m > n) and a
// small host (m ≤ n), verifying every run against direct execution.
func E16Redundancy(n, T int, seed int64) ([]E16Row, error) {
	rng := rand.New(rand.NewSource(seed))
	guest, err := topology.RandomGuest(rng, n, 4)
	if err != nil {
		return nil, err
	}
	comp := sim.MixMod(guest, rng)
	direct, err := comp.Run(T)
	if err != nil {
		return nil, err
	}
	big, err := universal.ButterflyHost(5) // m = 160
	if err != nil {
		return nil, err
	}
	small, err := universal.ButterflyHost(3) // m = 24
	if err != nil {
		return nil, err
	}
	var rows []E16Row
	run := func(regime string, host *universal.Host, r int) error {
		m := host.Graph.N()
		if r > m {
			return nil
		}
		reps, err := universal.PlaceReplicas(n, m, r, rand.New(rand.NewSource(seed+int64(r))))
		if err != nil {
			return err
		}
		rep, err := (&universal.FaultTolerantSimulator{Host: host, Replicas: reps}).Run(comp, T)
		if err != nil {
			return err
		}
		rows = append(rows, E16Row{
			Regime: regime, M: m, N: n, R: r,
			AvgFetchDist: rep.AvgFetchDist,
			RouteSteps:   rep.RouteSteps,
			Slowdown:     rep.Slowdown,
			Verified:     rep.Trace.Checksum() == direct.Checksum(),
		})
		return nil
	}
	for _, r := range []int{1, 2, 4, 8, 16} {
		if err := run("m>n", big, r); err != nil {
			return nil, err
		}
	}
	for _, r := range []int{1, 2, 4} {
		if err := run("m≤n", small, r); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// E16Table formats E16 rows.
func E16Table(rows []E16Row) *Table {
	t := &Table{
		Title:   "E16 (§1): redundancy (dynamic embedding) — replication shortens the fetch distance; the slowdown rises with r at these sizes",
		Columns: []string{"regime", "m", "n", "replicas r", "avg fetch dist", "route steps", "slowdown", "verified"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Regime, fmt.Sprint(r.M), fmt.Sprint(r.N), fmt.Sprint(r.R),
			fmt.Sprintf("%.2f", r.AvgFetchDist), fmt.Sprint(r.RouteSteps),
			fmt.Sprintf("%.1f", r.Slowdown), fmt.Sprint(r.Verified),
		})
	}
	return t
}
