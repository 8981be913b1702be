package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"universalnet/internal/graph"
	"universalnet/internal/topology"
)

// link is the directed edge u→v a packet moves along.
type link struct{ u, v int }

// referenceStepPackets is the map-based packet loop that stepPackets
// replaced, kept as its oracle: one winner per link in a map keyed by
// (u, v), distances asked of rules.dist at every comparison, winners sorted
// by (u, v) every step, and maps for admission and queue counts. It never
// checks that a hop is an edge.
func referenceStepPackets(p *Problem, mode PortMode, rules stepRules) (Result, error) {
	var res Result
	var live []*packet
	for i, pr := range p.Pairs {
		if pr.Src == pr.Dst {
			res.Delivered++
			continue
		}
		live = append(live, &packet{id: i, at: pr.Src, dst: pr.Dst})
	}
	cand := make(map[link]*packet) // one winner per directed link
	var links []link
	sendUsed := make(map[int]bool)
	recvUsed := make(map[int]bool)
	queues := make(map[int]int) // node → queued packet count, for stats
	for step := 0; len(live) > 0; step++ {
		if step >= rules.maxStep {
			return res, fmt.Errorf("routing: step bound %d exceeded with %d packets undelivered", rules.maxStep, len(live))
		}
		clear(cand)
		for _, pk := range live {
			v, err := rules.hop(pk)
			if err != nil {
				return res, err
			}
			k := link{pk.at, v}
			cur, ok := cand[k]
			if !ok {
				cand[k] = pk
				continue
			}
			if d, dc := rules.dist(pk), rules.dist(cur); d > dc || d == dc && pk.id < cur.id {
				cand[k] = pk
			}
		}
		links = links[:0]
		for k := range cand {
			links = append(links, k)
		}
		sort.Slice(links, func(i, j int) bool {
			if links[i].u != links[j].u {
				return links[i].u < links[j].u
			}
			return links[i].v < links[j].v
		})
		clear(sendUsed)
		clear(recvUsed)
		for _, k := range links {
			if mode == SinglePort {
				if sendUsed[k.u] || recvUsed[k.v] {
					continue
				}
				sendUsed[k.u] = true
				recvUsed[k.v] = true
			}
			pk := cand[k]
			pk.at = k.v
			pk.hops++
		}
		next := live[:0]
		clear(queues)
		for _, pk := range live {
			if pk.at == pk.dst {
				res.Delivered++
				res.TotalHops += pk.hops
				continue
			}
			queues[pk.at]++
			next = append(next, pk)
		}
		for _, q := range queues {
			if q > res.MaxQueue {
				res.MaxQueue = q
			}
		}
		live = next
		res.Steps = step + 1
	}
	return res, nil
}

// rulesFor returns fresh step rules for one route, as a router's rules
// method does.
type rulesFor func(g *graph.Graph, p *Problem) (stepRules, error)

// wanderRules moves each packet to a seeded random neighbor, closer or not,
// with BFS distances: a rule under which a move can leave the distance to go
// unchanged or raise it, so the cached distance is checked after every move.
func wanderRules(seed int64, maxStep int) rulesFor {
	return func(g *graph.Graph, p *Problem) (stepRules, error) {
		rng := rand.New(rand.NewSource(seed))
		cache := newDistanceCache(g)
		return stepRules{
			maxStep: maxStep,
			hop: func(pk *packet) (int, error) {
				nb := g.Neighbors(pk.at)
				return nb[rng.Intn(len(nb))], nil
			},
			dist: func(pk *packet) int { return cache.to(pk.dst)[pk.at] },
		}, nil
	}
}

// hopCall is one call of rules.hop: the packet and where it stood.
type hopCall struct{ id, at int }

// runLoop runs one loop on fresh rules, recording every hop call.
func runLoop(t testing.TB, loop func(*Problem, PortMode, stepRules) (Result, error),
	rf rulesFor, g *graph.Graph, p *Problem, mode PortMode) (Result, []hopCall, error) {
	t.Helper()
	rules, err := rf(g, p)
	if err != nil {
		t.Fatalf("rules: %v", err)
	}
	var calls []hopCall
	hop := rules.hop
	rules.hop = func(pk *packet) (int, error) {
		calls = append(calls, hopCall{pk.id, pk.at})
		return hop(pk)
	}
	res, err := loop(p, mode, rules)
	return res, calls, err
}

// compareLoops holds stepPackets to referenceStepPackets on one instance:
// the same Result, the same error text and the same hop calls in the same
// order. The reference asks every packet every step; under fixed-hop rules
// stepPackets asks a packet only when it is created and after it moves, so
// its calls are the reference's less each repeat from the node the packet
// last asked from, and a route that delivers every packet makes exactly
// TotalHops of them.
func compareLoops(t testing.TB, name string, rf rulesFor, g *graph.Graph, p *Problem, mode PortMode) {
	t.Helper()
	queued := func(p *Problem, mode PortMode, rules stepRules) (Result, error) {
		return stepPackets(g, p, mode, rules)
	}
	got, gotCalls, gotErr := runLoop(t, queued, rf, g, p, mode)
	want, wantCalls, wantErr := runLoop(t, referenceStepPackets, rf, g, p, mode)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s %v: error %v, reference %v", name, mode, gotErr, wantErr)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Fatalf("%s %v: result %+v, reference %+v", name, mode, got, want)
	}
	if rules, _ := rf(g, p); rules.fixedHop {
		wantCalls = withoutRepeats(wantCalls)
		if gotErr == nil && len(gotCalls) != got.TotalHops {
			t.Fatalf("%s %v: %d hop calls for %d hops", name, mode, len(gotCalls), got.TotalHops)
		}
	}
	if len(gotCalls) != len(wantCalls) {
		t.Fatalf("%s %v: %d hop calls, reference %d", name, mode, len(gotCalls), len(wantCalls))
	}
	for i := range gotCalls {
		if gotCalls[i] != wantCalls[i] {
			t.Fatalf("%s %v: hop call %d is %+v, reference %+v", name, mode, i, gotCalls[i], wantCalls[i])
		}
	}
}

// withoutRepeats drops each call a packet makes from the node it last asked
// from.
func withoutRepeats(calls []hopCall) []hopCall {
	last := make(map[int]int) // packet id → node of its last call
	var out []hopCall
	for _, c := range calls {
		if at, ok := last[c.id]; ok && at == c.at {
			continue
		}
		last[c.id] = c.at
		out = append(out, c)
	}
	return out
}

// TestStepPacketsMatchesReference runs the queued loop and the map-based
// reference on seeded h–h problems (h ∈ {1, 2, 4, 8}, with added self-pairs)
// on ring, mesh, torus, wrapped butterfly, ccc and random-regular hosts, in
// both port modes, under greedy min-index and random-hop rules, random-walk
// rules and, on the mesh and torus, dimension-order rules; about a third of the
// greedy and dimension-order runs cap the steps so the step-bound error is
// compared too. Then h = 32 on the ring and the torus, under the same rules,
// modes and caps, queues tens of packets on one edge.
func TestStepPacketsMatchesReference(t *testing.T) {
	type host struct {
		name  string
		g     *graph.Graph
		side  int // mesh or torus side; 0 for the others
		torus bool
	}
	must := func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	hosts := []host{
		{name: "ring", g: must(topology.Ring(20))},
		{name: "mesh", g: must(topology.Mesh(36)), side: 6},
		{name: "torus", g: must(topology.Torus(49)), side: 7, torus: true},
		{name: "butterfly", g: must(topology.WrappedButterfly(3))},
		{name: "ccc", g: must(topology.CubeConnectedCycles(3))},
		{name: "regular", g: must(topology.RandomRegular(rand.New(rand.NewSource(3)), 32, 4))},
	}
	if !hosts[len(hosts)-1].g.IsConnected() {
		t.Fatal("random-regular host is disconnected")
	}
	instances := 0
	run := func(seed int64, h host, hh int) {
		n := h.g.N()
		rng := rand.New(rand.NewSource(seed*100 + int64(hh)))
		p := RandomHH(rng, n, hh)
		for k := 0; k < hh; k++ {
			v := rng.Intn(n)
			p.Pairs = append(p.Pairs, Pair{Src: v, Dst: v})
		}
		maxStep := 0
		if instances%3 == 2 {
			maxStep = 1 + rng.Intn(4)
		}
		names := []string{"min-index", "random", "wander"}
		rules := []rulesFor{
			(&GreedyRouter{MaxStep: maxStep}).rules,
			(&GreedyRouter{Policy: RandomNextHop, Seed: seed, MaxStep: maxStep}).rules,
			wanderRules(seed, 4*n),
		}
		if h.side > 0 {
			names = append(names, "dimorder")
			rules = append(rules, (&DimensionOrderRouter{N: h.side, Wrap: h.torus, MaxStep: maxStep}).rules)
		}
		for ri, rf := range rules {
			for _, mode := range []PortMode{MultiPort, SinglePort} {
				name := fmt.Sprintf("seed %d %s h=%d %s maxStep=%d", seed, h.name, hh, names[ri], maxStep)
				compareLoops(t, name, rf, h.g, p, mode)
				instances++
			}
		}
	}
	for seed := int64(1); seed <= 2; seed++ {
		for _, h := range hosts {
			for _, hh := range []int{1, 2, 4, 8} {
				run(seed, h, hh)
			}
		}
	}
	for seed := int64(1); seed <= 2; seed++ {
		for _, h := range []host{hosts[0], hosts[2]} {
			run(seed, h, 32)
		}
	}
	if instances < 348 {
		t.Fatalf("%d instances, want at least 348", instances)
	}
}

// FuzzStepPackets builds a small connected graph and a pair list from the
// fuzz bytes and holds stepPackets to the reference under both greedy
// policies and random-walk rules, in the port mode the bytes choose.
func FuzzStepPackets(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 3, 0, 4, 4, 1, 3, 2, 2, 0})
	f.Add([]byte{15, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7, 3, 200, 9, 14, 14, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 9, 3})
	// 64 pairs leave one end of a 16-node path, so they all queue on its
	// one edge and heaps 64 deep restructure as the path delivers them.
	path := []byte{0, 14}
	for v := 1; v < 16; v++ {
		path = append(path, byte(v-1))
	}
	path = append(path, 0)
	for k := 0; k < 64; k++ {
		path = append(path, 0, byte(1+7*k%15))
	}
	f.Add(path)
	// The same from leaf 15 of a 16-node binary tree, in single-port mode.
	tree := []byte{3, 14}
	for v := 1; v < 16; v++ {
		tree = append(tree, byte((v-1)/2))
	}
	tree = append(tree, 0)
	for k := 0; k < 64; k++ {
		tree = append(tree, 15, byte(k%15))
	}
	f.Add(tree)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		mode := PortMode(data[0] & 1)
		seed := int64(data[0] >> 1)
		n := 2 + int(data[1])%15
		data = data[2:]
		b := graph.NewBuilder(n)
		for v := 1; v < n; v++ { // a spanning tree keeps the graph connected
			parent := 0
			if len(data) > 0 {
				parent, data = int(data[0])%v, data[1:]
			}
			b.MustAddEdge(parent, v)
		}
		extra := 0
		if len(data) > 0 {
			extra, data = int(data[0])%(2*n), data[1:]
		}
		for ; extra > 0 && len(data) >= 2; extra-- {
			u, v := int(data[0])%n, int(data[1])%n
			data = data[2:]
			if u != v {
				b.MustAddEdge(u, v)
			}
		}
		g := b.Build()
		var pairs []Pair
		for ; len(data) >= 2 && len(pairs) < 64; data = data[2:] {
			pairs = append(pairs, Pair{Src: int(data[0]) % n, Dst: int(data[1]) % n})
		}
		p := &Problem{N: n, Pairs: pairs}
		compareLoops(t, "min-index", (&GreedyRouter{}).rules, g, p, mode)
		compareLoops(t, "random", (&GreedyRouter{Policy: RandomNextHop, Seed: seed}).rules, g, p, mode)
		compareLoops(t, "wander", wanderRules(seed, 4*n), g, p, mode)
	})
}

// TestStepPacketsRejectsNonEdgeHop: a hop to a node that is not a neighbor
// fails the route, whichever rule produced it.
func TestStepPacketsRejectsNonEdgeHop(t *testing.T) {
	g, err := topology.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	p := &Problem{N: 8, Pairs: []Pair{{0, 4}}}
	for _, v := range []int{4, 0, -1, 8} {
		rules := stepRules{
			maxStep: 10,
			hop:     func(*packet) (int, error) { return v, nil },
			dist:    func(*packet) int { return 1 },
		}
		_, err := stepPackets(g, p, MultiPort, rules)
		want := fmt.Sprintf("routing: packet 0 hops from 0 to %d, which is not a neighbor", v)
		if err == nil || err.Error() != want {
			t.Errorf("hop to %d: error %v, want %q", v, err, want)
		}
	}
	// A mesh is missing the torus wraparound edges dimension-order uses.
	mesh, err := topology.Mesh(16)
	if err != nil {
		t.Fatal(err)
	}
	p = &Problem{N: 16, Pairs: []Pair{{0, 12}}}
	_, err = (&DimensionOrderRouter{N: 4, Wrap: true}).Route(mesh, p)
	if want := "routing: packet 0 hops from 0 to 12, which is not a neighbor"; err == nil || err.Error() != want {
		t.Errorf("torus route on a mesh: error %v, want %q", err, want)
	}
}

// TestRoutersRejectOutOfRangePairs: both packet-stepping routers reject a
// pair outside [0, N) with checkPairs's error before reading any table.
func TestRoutersRejectOutOfRangePairs(t *testing.T) {
	g, err := topology.Torus(16)
	if err != nil {
		t.Fatal(err)
	}
	routers := []Router{
		&GreedyRouter{},
		&GreedyRouter{Mode: SinglePort, Policy: RandomNextHop, Seed: 1},
		&DimensionOrderRouter{N: 4, Wrap: true},
	}
	for _, pr := range []Pair{{16, 0}, {-1, 0}, {0, 16}, {0, -1}, {16, 16}} {
		p := &Problem{N: 16, Pairs: []Pair{{1, 2}, pr}}
		want := checkPairs(p.N, p.Pairs)
		if want == nil {
			t.Fatalf("checkPairs accepted %v", pr)
		}
		for _, r := range routers {
			_, err := r.Route(g, p)
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%s pair %v: error %v, want %q", r.Name(), pr, err, want)
			}
		}
		if _, err := LowerBoundSteps(g, p); err == nil || err.Error() != want.Error() {
			t.Errorf("LowerBoundSteps pair %v: error %v, want %q", pr, err, want)
		}
	}
}

// TestProblemKeyCanonical: the schedule key is the same for one ordered
// relation built twice, tells apart problems that differ in one pair, and
// tells apart two orders of one multiset, which the packet loop may route
// differently since it breaks ties by packet index: the guest relation of
// a 1024-guest, degree-4 random guest on ccc(4), routed greedily
// multi-port, queues 85 packets at one node in order and 83 reversed.
func TestProblemKeyCanonical(t *testing.T) {
	g, err := topology.Torus(16)
	if err != nil {
		t.Fatal(err)
	}
	a := &Problem{N: 16, Pairs: []Pair{{3, 1}, {0, 15}, {3, 0}, {0, 15}}}
	c := &Problem{N: 16, Pairs: []Pair{{0, 15}, {3, 0}, {0, 14}, {3, 1}}}
	if ProblemKey(g, a) == ProblemKey(g, c) {
		t.Error("different pairs share a key")
	}

	ccc, err := topology.CubeConnectedCycles(4)
	if err != nil {
		t.Fatal(err)
	}
	relation := func() *Problem {
		guest, err := topology.RandomGuest(rand.New(rand.NewSource(1)), 1024, 4)
		if err != nil {
			t.Fatal(err)
		}
		return guestRelation(guest, ccc.N())
	}
	p := relation()
	if ProblemKey(ccc, p) != ProblemKey(ccc, relation()) {
		t.Error("one ordered relation built twice has two keys")
	}
	rev := &Problem{N: p.N, Pairs: slices.Clone(p.Pairs)}
	slices.Reverse(rev.Pairs)
	if ProblemKey(ccc, p) == ProblemKey(ccc, rev) {
		t.Error("two orders of one multiset share a key")
	}
	queue := func(p *Problem) int {
		res, err := (&GreedyRouter{}).Route(ccc, p)
		if err != nil {
			t.Fatal(err)
		}
		return res.MaxQueue
	}
	if got, gotRev := queue(p), queue(rev); got != 85 || gotRev != 83 {
		t.Errorf("MaxQueue %d in order and %d reversed, want 85 and 83", got, gotRev)
	}
}

// TestRoutePacketsAllocs pins the allocations of a route on
// BenchmarkRoutePackets' torus and ring instances. The queues share one
// arena sized for the route, so a route allocates the same whether a few
// edges queue a packet each or every edge queues dozens: the torus
// relation against its first 1/64, and the 64–64 ring problem against its
// first pair to each destination, which asks for the same BFS rows. Those
// 128 rows cost an allocation each: their searches share one queue.
func TestRoutePacketsAllocs(t *testing.T) {
	guest, err := topology.RandomGuest(rand.New(rand.NewSource(1)), 1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	torus, err := topology.Torus(64)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := topology.Ring(128)
	if err != nil {
		t.Fatal(err)
	}
	relation := guestRelation(guest, torus.N())
	few := &Problem{N: relation.N, Pairs: relation.Pairs[:len(relation.Pairs)/64]}
	hh := RandomHH(rand.New(rand.NewSource(1)), ring.N(), 64)
	firsts := &Problem{N: hh.N}
	seen := make([]bool, hh.N)
	for _, pr := range hh.Pairs {
		if pr.Src != pr.Dst && !seen[pr.Dst] {
			seen[pr.Dst] = true
			firsts.Pairs = append(firsts.Pairs, pr)
		}
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
		r    Router
		ps   []*Problem
		want float64
	}{
		{"torus/multi-port", torus, &DimensionOrderRouter{N: 8, Wrap: true}, []*Problem{relation, few}, 8},
		{"torus/single-port", torus, &DimensionOrderRouter{N: 8, Wrap: true, Mode: SinglePort}, []*Problem{relation, few}, 8},
		{"ring/multi-port", ring, &GreedyRouter{}, []*Problem{hh, firsts}, 141},
	} {
		for _, p := range c.ps {
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := c.r.Route(c.g, p); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != c.want {
				t.Errorf("%s, %d packets: %v allocations a route, want %v", c.name, len(p.Pairs), allocs, c.want)
			}
		}
	}
}
