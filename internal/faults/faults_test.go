package faults

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"universalnet/internal/graph"
	"universalnet/internal/routing"
	"universalnet/internal/topology"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestPlanValidate(t *testing.T) {
	good := &Plan{Seed: 1, DropRate: 0.1, Crashes: []Crash{{Host: 3, Step: 2}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	for _, bad := range []*Plan{
		{DropRate: 1.0},
		{DupRate: -0.1},
		{CorruptRate: 2},
		{Crashes: []Crash{{Host: 0, Step: 0}}},
		{Crashes: []Crash{{Host: -1, Step: 1}}},
		{LinkFailures: []LinkFailure{{U: 1, V: 1, Step: 1}}},
		{LinkFailures: []LinkFailure{{U: 0, V: 1, Step: 0}}},
		{MaxRetries: -1},
		{Onset: -2},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid plan %+v accepted", bad)
		}
	}
}

func TestPacketFateDeterministicAndOnset(t *testing.T) {
	p := &Plan{Seed: 42, DropRate: 0.2, DupRate: 0.1, CorruptRate: 0.05, Onset: 3}
	for step := 0; step < 3; step++ {
		for idx := 0; idx < 50; idx++ {
			if f := p.PacketFate(step, 0, idx); f != Delivered {
				t.Fatalf("fault before onset: step=%d idx=%d fate=%v", step, idx, f)
			}
		}
	}
	// Pure function: same coordinates, same fate; order-independent.
	for i := 0; i < 100; i++ {
		a := p.PacketFate(5, 1, i)
		b := p.PacketFate(5, 1, i)
		if a != b {
			t.Fatalf("fate not deterministic at idx %d: %v vs %v", i, a, b)
		}
	}
	// Empirical rates over many channels should be near the configured ones.
	const trials = 20000
	var drop, dup, corr int
	for i := 0; i < trials; i++ {
		switch p.PacketFate(7, 0, i) {
		case Dropped:
			drop++
		case Duplicated:
			dup++
		case Corrupted:
			corr++
		}
	}
	check := func(name string, got int, want float64) {
		rate := float64(got) / trials
		if math.Abs(rate-want) > 0.02 {
			t.Errorf("%s rate %.3f, want ≈ %.3f", name, rate, want)
		}
	}
	check("drop", drop, 0.2)
	check("dup", dup, 0.1)
	check("corrupt", corr, 0.05)
}

func TestScheduleLookups(t *testing.T) {
	p := &Plan{
		Crashes:      []Crash{{Host: 5, Step: 2}, {Host: 1, Step: 2}, {Host: 3, Step: 4}},
		LinkFailures: []LinkFailure{{U: 7, V: 2, Step: 3}, {U: 0, V: 1, Step: 3}},
	}
	if got := p.CrashesAt(2); !reflect.DeepEqual(got, []int{1, 5}) {
		t.Errorf("CrashesAt(2) = %v", got)
	}
	if got := p.CrashesAt(3); got != nil {
		t.Errorf("CrashesAt(3) = %v", got)
	}
	edges := p.LinkFailuresAt(3)
	want := []graph.Edge{graph.NewEdge(0, 1), graph.NewEdge(2, 7)}
	if !reflect.DeepEqual(edges, want) {
		t.Errorf("LinkFailuresAt(3) = %v, want %v", edges, want)
	}
	var nilPlan *Plan
	if nilPlan.CrashesAt(1) != nil || nilPlan.LinkFailuresAt(1) != nil || nilPlan.Active() {
		t.Error("nil plan should be inert")
	}
}

func TestDegrade(t *testing.T) {
	g, err := topology.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	d := Degrade(g, map[int]bool{2: true}, map[graph.Edge]bool{graph.NewEdge(4, 5): true})
	if d.N() != g.N() {
		t.Fatalf("vertex count changed: %d → %d", g.N(), d.N())
	}
	if d.Degree(2) != 0 {
		t.Errorf("crashed vertex 2 keeps degree %d", d.Degree(2))
	}
	if d.HasEdge(4, 5) {
		t.Error("failed link {4,5} survived")
	}
	if !d.HasEdge(0, 5) || !d.HasEdge(3, 4) {
		t.Error("healthy links removed")
	}
}

func TestRoutePhaseCleanPlan(t *testing.T) {
	g, _ := topology.Ring(8)
	p := routing.RandomPermutation(newRand(1), 8)
	inner := &routing.GreedyRouter{Mode: routing.MultiPort}
	clean, err := inner.Route(g, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RoutePhase(inner, g, p, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != clean.Steps || res.Counters != (Counters{}) {
		t.Errorf("nil plan altered routing: %+v vs %+v", res.Result, clean)
	}
}

func TestRoutePhaseRetriesAndDeterminism(t *testing.T) {
	g, _ := topology.Ring(8)
	p := routing.RandomPermutation(newRand(2), 8)
	inner := &routing.GreedyRouter{Mode: routing.MultiPort}
	plan := &Plan{Seed: 9, DropRate: 0.3, DupRate: 0.1, CorruptRate: 0.1, Onset: 0}
	first, err := RoutePhase(inner, g, p, plan, 4)
	if err != nil {
		t.Fatal(err)
	}
	if first.Counters.Dropped+first.Counters.Corrupted == 0 {
		t.Fatal("expected some drops/corruptions at 40% combined rate")
	}
	if first.Counters.Retried == 0 {
		t.Error("drops occurred but nothing was retried")
	}
	if first.Delivered != len(p.Pairs) {
		t.Errorf("delivered %d of %d payloads", first.Delivered, len(p.Pairs))
	}
	second, err := RoutePhase(inner, g, p, plan, 4)
	if err != nil {
		t.Fatal(err)
	}
	if first.Counters != second.Counters || first.Steps != second.Steps || first.Attempts != second.Attempts {
		t.Errorf("phase not reproducible: %+v vs %+v", first, second)
	}
}

func TestRoutePhaseRetryBudgetExhausted(t *testing.T) {
	g, _ := topology.Ring(8)
	p := routing.RandomPermutation(newRand(3), 8)
	inner := &routing.GreedyRouter{Mode: routing.MultiPort}
	plan := &Plan{Seed: 1, DropRate: 0.9, MaxRetries: 1, Onset: 0}
	_, err := RoutePhase(inner, g, p, plan, 1)
	if !errors.Is(err, ErrPhaseLost) {
		t.Fatalf("err = %v, want ErrPhaseLost", err)
	}
}

func TestScenarios(t *testing.T) {
	for _, name := range ScenarioNames() {
		p, err := Scenario(name, 7, 64, 6)
		if err != nil {
			t.Fatalf("scenario %q: %v", name, err)
		}
		again, err := Scenario(name, 7, 64, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, again) {
			t.Errorf("scenario %q not deterministic", name)
		}
		if name != "none" && !p.Active() {
			t.Errorf("scenario %q is inert", name)
		}
		for _, c := range p.Crashes {
			if c.Host < 0 || c.Host >= 64 || c.Step < 1 || c.Step > 6 {
				t.Errorf("scenario %q crash out of range: %+v", name, c)
			}
		}
	}
	if p, _ := Scenario("crash2", 7, 64, 6); len(p.Crashes) != 2 {
		t.Errorf("crash2 schedules %d crashes", len(p.Crashes))
	}
	if _, err := Scenario("meteor", 1, 8, 4); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := Scenario("crash1", 1, 0, 4); err == nil {
		t.Error("m=0 accepted")
	}
}

func TestCountersAddAndMap(t *testing.T) {
	a := Counters{Injected: 1, Dropped: 1, Retried: 2, Crashed: 1}
	b := Counters{Injected: 2, Duplicated: 3, FailedOver: 1, ReEmbedded: 2, LinksDown: 1, Corrupted: 1}
	a.Add(b)
	want := Counters{Injected: 3, Dropped: 1, Duplicated: 3, Corrupted: 1, Retried: 2,
		FailedOver: 1, ReEmbedded: 2, Crashed: 1, LinksDown: 1}
	if a != want {
		t.Errorf("Add: got %+v want %+v", a, want)
	}
	m := a.Map()
	if m["injected"] != 3 || m["re_embedded"] != 2 || len(m) != 9 {
		t.Errorf("Map: %v", m)
	}
	if a.String() == "" {
		t.Error("empty String()")
	}
}
