package redblue

import (
	"fmt"
	"math/rand"
	"testing"

	"universalnet/internal/graph"
	"universalnet/internal/pebble"
	"universalnet/internal/topology"
)

// refMachine is the red-blue machine with its facts stored, not derived:
// an explicit red residency bitset and an explicit "has ever been red"
// bitset, each m·(T+1)·n bits. Machine answers residency from its slot
// tables and reload history from the validator's possession bits (plus an
// input table); this reference keeps both tables, so any fault in the
// derivation shows up as a Costs field that differs.
type refMachine struct {
	n, m, r int
	words   int

	red, everRed, blue []uint64

	slotIDs                      [][]int32
	slotLast, slotPin            [][]int64
	computeQ, ioQ                []int64
	loads, cold, reloads, stores int64
	peakRed                      int

	pol Policy
}

func newRefMachine(sp pebble.Spec, r int, pol Policy) *refMachine {
	n, m := sp.Guest.N(), sp.Host.N()
	words := ((sp.T+1)*n + 63) / 64
	ma := &refMachine{
		n: n, m: m, r: r, words: words,
		red:      make([]uint64, m*words),
		everRed:  make([]uint64, m*words),
		blue:     make([]uint64, words),
		slotIDs:  make([][]int32, m),
		slotLast: make([][]int64, m),
		slotPin:  make([][]int64, m),
		computeQ: make([]int64, m),
		ioQ:      make([]int64, m),
		pol:      pol,
	}
	for i := 0; i < n; i++ {
		ma.blue[i>>6] |= 1 << (uint(i) & 63)
	}
	return ma
}

func (ma *refMachine) get(bits []uint64, q int, id int32) bool {
	return bits[q*ma.words+int(id)>>6]&(1<<(uint(id)&63)) != 0
}

func (ma *refMachine) set(bits []uint64, q int, id int32, on bool) {
	if on {
		bits[q*ma.words+int(id)>>6] |= 1 << (uint(id) & 63)
	} else {
		bits[q*ma.words+int(id)>>6] &^= 1 << (uint(id) & 63)
	}
}

func (ma *refMachine) access(q int, id int32, write bool, tick int64) error {
	if ma.get(ma.red, q, id) {
		for i, sid := range ma.slotIDs[q] {
			if sid == id {
				ma.slotLast[q][i] = tick
				ma.slotPin[q][i] = tick
				break
			}
		}
		ma.pol.Touched(q, id, tick)
		return nil
	}
	if !write {
		if !ma.get(ma.blue, 0, id) {
			return fmt.Errorf("reference: load of %d on %d not in blue", id, q)
		}
		ma.loads++
		ma.ioQ[q]++
		if ma.get(ma.everRed, q, id) {
			ma.reloads++
		} else {
			ma.cold++
		}
	}
	if ma.r > 0 && len(ma.slotIDs[q]) >= ma.r {
		i := ma.pol.Victim(q, ma.slotIDs[q], ma.slotLast[q], ma.slotPin[q], tick)
		if i < 0 || i >= len(ma.slotIDs[q]) || ma.slotPin[q][i] == tick {
			return fmt.Errorf("reference: red capacity %d too small on %d", ma.r, q)
		}
		ma.set(ma.red, q, ma.slotIDs[q][i], false)
		last := len(ma.slotIDs[q]) - 1
		ma.slotIDs[q][i] = ma.slotIDs[q][last]
		ma.slotLast[q][i] = ma.slotLast[q][last]
		ma.slotPin[q][i] = ma.slotPin[q][last]
		ma.slotIDs[q] = ma.slotIDs[q][:last]
		ma.slotLast[q] = ma.slotLast[q][:last]
		ma.slotPin[q] = ma.slotPin[q][:last]
	}
	ma.set(ma.red, q, id, true)
	ma.set(ma.everRed, q, id, true)
	ma.slotIDs[q] = append(ma.slotIDs[q], id)
	ma.slotLast[q] = append(ma.slotLast[q], tick)
	ma.slotPin[q] = append(ma.slotPin[q], tick)
	ma.peakRed = max(ma.peakRed, len(ma.slotIDs[q]))
	ma.pol.Touched(q, id, tick)
	return nil
}

// refReplay prices steps on a refMachine with the accounting loop
// CostedValidator ran before it derived anything: validate the step, then
// touch each op's pebbles in order under one tick per op.
func refReplay(sp pebble.Spec, steps [][]pebble.Op, model CostModel, pol Policy) (*Costs, error) {
	sv, err := pebble.NewStreamValidator(sp)
	if err != nil {
		return nil, err
	}
	ma := newRefMachine(sp, model.R, pol)
	n := sp.Guest.N()
	var c Costs
	var tick int64
	for _, ops := range steps {
		if err := sv.AppendStep(ops); err != nil {
			return nil, err
		}
		for _, op := range ops {
			tick++
			id := int32(op.Pebble.T*n + op.Pebble.P)
			switch op.Kind {
			case pebble.Generate:
				base := (op.Pebble.T - 1) * n
				if err := ma.access(op.Proc, int32(base+op.Pebble.P), false, tick); err != nil {
					return nil, err
				}
				for _, j := range sp.Guest.Neighbors(op.Pebble.P) {
					if err := ma.access(op.Proc, int32(base+j), false, tick); err != nil {
						return nil, err
					}
				}
				if err := ma.access(op.Proc, id, true, tick); err != nil {
					return nil, err
				}
				ma.set(ma.blue, 0, id, true)
				ma.stores++
				ma.ioQ[op.Proc]++
				ma.computeQ[op.Proc]++
				c.Compute++
			case pebble.Send, pebble.Receive:
				if err := ma.access(op.Proc, id, false, tick); err != nil {
					return nil, err
				}
			}
		}
		c.HostSteps++
	}
	if _, err := sv.Finish(); err != nil {
		return nil, err
	}
	c.Loads, c.ColdLoads, c.Reloads, c.Stores = ma.loads, ma.cold, ma.reloads, ma.stores
	c.IOSteps = c.Loads + c.Stores
	c.PeakRed = ma.peakRed
	for q := 0; q < ma.m; q++ {
		cost := model.ComputeCost*ma.computeQ[q] + model.IOCost*ma.ioQ[q]
		c.TotalCost += cost
		c.Makespan = max(c.Makespan, cost)
	}
	return &c, nil
}

// compareWithReference prices steps on Machine and on refMachine under
// every policy and each red budget in rs, requires equal Costs, and
// returns the reloads counted over all of them.
func compareWithReference(t *testing.T, sp pebble.Spec, steps [][]pebble.Op, rs []int) (reloads int64) {
	t.Helper()
	for _, r := range rs {
		for _, name := range PolicyNames() {
			model := DefaultCostModel(r)
			polA, err := NewPolicy(name, sp, steps, 11)
			if err != nil {
				t.Fatal(err)
			}
			polB, _ := NewPolicy(name, sp, steps, 11)
			got, err := ReplayCosted(sp, (&pebble.Protocol{Guest: sp.Guest, Host: sp.Host, T: sp.T, Steps: steps}).Source(), model, polA, Options{})
			if err != nil {
				t.Fatalf("r=%d %s: %v", r, name, err)
			}
			want, err := refReplay(sp, steps, model, polB)
			if err != nil {
				t.Fatalf("r=%d %s: reference: %v", r, name, err)
			}
			if *got != *want {
				t.Fatalf("r=%d %s: costs differ from the reference machine\n got  %+v\n want %+v", r, name, *got, *want)
			}
			reloads += want.Reloads
		}
	}
	return reloads
}

// The derived residency and reload history must price every protocol
// exactly as the explicit tables did: 150 seeds over random play and the
// four embedding builders, T = 1–3, budgets MinRed, MinRed+1, MinRed+3 and
// unbounded, all three policies. Every third seed also replays the whole
// protocol twice, so its second half receives and regenerates only
// pebbles the processors already hold.
func TestMachineMatchesReference(t *testing.T) {
	hosts := []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return topology.Torus(9) },
		func() (*graph.Graph, error) { return topology.WrappedButterfly(2) },
		func() (*graph.Graph, error) { return topology.Ring(5) },
	}
	var reloads int64
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, deg := 4+rng.Intn(9), 2+rng.Intn(2)
		n += n * deg % 2 // a deg-regular guest needs n·deg even
		T := 1 + int(seed%3)
		guest, err := topology.RandomGuest(rng, n, deg)
		if err != nil {
			t.Fatal(err)
		}
		host, err := hosts[rng.Intn(len(hosts))]()
		if err != nil {
			t.Fatal(err)
		}
		f := pebble.RandomizedAssignment(n, host.N(), seed)
		var pr *pebble.Protocol
		builder := []string{"random", "phase", "pipelined", "queued", "multicast"}[seed%5]
		switch builder {
		case "random":
			pr, err = pebble.RandomProtocol(guest, host, T, rng, 0)
		case "phase":
			pr, err = pebble.BuildEmbeddingProtocol(guest, host, f, T)
		case "pipelined":
			pr, err = pebble.BuildPipelinedProtocol(guest, host, f, T)
		case "queued":
			pr, err = pebble.BuildQueuedEmbeddingProtocol(guest, host, f, T)
		case "multicast":
			pr, err = pebble.BuildMulticastProtocol(guest, host, f, T)
		}
		if err != nil {
			t.Fatalf("seed %d %s: %v", seed, builder, err)
		}
		steps := pr.Steps
		if seed%3 == 0 {
			steps = append(append([][]pebble.Op(nil), steps...), steps...)
		}
		sp := pr.Spec()
		t.Run(fmt.Sprintf("seed%d-%s-T%d", seed, builder, T), func(t *testing.T) {
			minR := MinRed(sp)
			reloads += compareWithReference(t, sp, steps, []int{minR, minR + 1, minR + 3, 0})
		})
	}
	if reloads == 0 {
		t.Fatal("no replay reloaded anything; the comparison never reaches a capacity miss")
	}
	t.Logf("%d reloads counted alike by both machines", reloads)
}

// Hand-built steps reach the branches generated protocols rarely do: a
// Receive of a pebble the receiver already holds (once still resident,
// once evicted in between), a Send and a Receive of a t = 0 pebble, with
// and without an earlier touch, and a Generate of a pebble its processor
// already holds.
func TestMachineMatchesReferenceHandBuilt(t *testing.T) {
	guest, err := topology.Path(3) // 0–1–2: MinRed = 4
	if err != nil {
		t.Fatal(err)
	}
	host, err := topology.Path(2)
	if err != nil {
		t.Fatal(err)
	}
	sp := pebble.Spec{Guest: guest, Host: host, T: 2}
	gen := func(q, i, tt int) pebble.Op {
		return pebble.Op{Kind: pebble.Generate, Proc: q, Pebble: pebble.Type{P: i, T: tt}}
	}
	move := func(from, to, i, tt int) []pebble.Op {
		pb := pebble.Type{P: i, T: tt}
		return []pebble.Op{
			{Kind: pebble.Send, Proc: from, Peer: to, Pebble: pb},
			{Kind: pebble.Receive, Proc: to, Peer: from, Pebble: pb},
		}
	}
	steps := [][]pebble.Op{
		{gen(0, 0, 1), gen(1, 2, 1)},
		move(0, 1, 2, 0), // t = 0: the sender never touched it, the receiver did
		move(0, 1, 0, 0), // t = 0: the receiver never touched it, the sender did
		move(0, 1, 1, 0), // t = 0: both touched it
		{gen(0, 1, 1), gen(1, 1, 1)},
		move(0, 1, 0, 1),             // first receive of (P0,1) on 1
		move(0, 1, 0, 1),             // receive of a held, resident pebble
		{gen(1, 1, 1)},               // regenerate a held pebble; fills red at MinRed
		move(0, 1, 0, 1),             // receive of a held pebble, evicted at MinRed
		{gen(0, 0, 1), gen(1, 2, 1)}, // regenerate held pebbles
		move(1, 0, 2, 1),
		{gen(0, 1, 2), gen(1, 0, 2)},
		{gen(0, 2, 2)},
	}
	minR := MinRed(sp)
	compareWithReference(t, sp, steps, []int{minR, minR + 1, 0})

	tight, err := refReplay(sp, steps, DefaultCostModel(minR), NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	if tight.Reloads == 0 {
		t.Errorf("hand-built steps reload nothing at r=%d; the evicted-receive branch is not reached", minR)
	}
}
