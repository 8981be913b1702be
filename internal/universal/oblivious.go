package universal

import (
	"fmt"
	"math/rand"

	"universalnet/internal/pebble"
	"universalnet/internal/routing"
	"universalnet/internal/sim"
)

// Oblivious simulation of the complete network (§2, last paragraph; [14]).
// The guest is K_n: in every step each processor sends its configuration to
// one other processor, and the communication pattern — a permutation per
// step — is fixed in advance by the program but NOT known to the host
// construction (so an online routing algorithm is required, in contrast to
// the fixed ⌈n/m⌉-relations of a bounded-degree guest).

// ObliviousPattern fixes the communication: Pattern[t][i] = j means guest i
// sends its time-t configuration to guest j in round t+1. Each round must be
// a permutation of 0..n-1.
type ObliviousPattern [][]int

// Validate checks that each round is a permutation.
func (p ObliviousPattern) Validate(n int) error {
	for t, round := range p {
		if len(round) != n {
			return fmt.Errorf("universal: round %d has %d entries, want %d", t, len(round), n)
		}
		seen := make([]bool, n)
		for i, j := range round {
			if j < 0 || j >= n {
				return fmt.Errorf("universal: round %d sends %d→%d out of range", t, i, j)
			}
			if seen[j] {
				return fmt.Errorf("universal: round %d not a permutation (duplicate recipient %d)", t, j)
			}
			seen[j] = true
		}
	}
	return nil
}

// RandomObliviousPattern draws T random permutation rounds.
func RandomObliviousPattern(rng *rand.Rand, n, T int) ObliviousPattern {
	p := make(ObliviousPattern, T)
	for t := range p {
		p[t] = rng.Perm(n)
	}
	return p
}

// obliviousStep computes the next configuration of guest j from its own
// state and the state of its designated sender. The mixing is bijective in
// each argument, so any misrouted message corrupts the checksum.
func obliviousStep(j, t int, self, received sim.State) sim.State {
	const a = 6364136223846793005
	x := uint64(self)*a + uint64(received)
	return sim.State(x + uint64(j)<<32 + uint64(t) + 1442695040888963407)
}

// DirectObliviousRun executes the complete-network computation directly,
// returning the reference trace.
func DirectObliviousRun(init []sim.State, pattern ObliviousPattern) (*sim.Trace, error) {
	n := len(init)
	if err := pattern.Validate(n); err != nil {
		return nil, err
	}
	tr := &sim.Trace{States: make([][]sim.State, len(pattern)+1)}
	tr.States[0] = append([]sim.State(nil), init...)
	for t, round := range pattern {
		cur := tr.States[t]
		next := make([]sim.State, n)
		for i, j := range round {
			// i sends to j: j's update consumes i's state.
			next[j] = obliviousStep(j, t, cur[j], cur[i])
		}
		tr.States[t+1] = next
	}
	return tr, nil
}

// RunOblivious simulates the oblivious complete-network computation on the
// host: per round, a compute phase (sequential per host, cost = max load)
// and an online routing phase delivering each configuration from f(i) to
// f(pattern[t][i]). The router sees a fresh ≤⌈n/m⌉–⌈n/m⌉ problem every
// round — the online h–h routing regime of §2.
func (es *EmbeddingSimulator) RunOblivious(init []sim.State, pattern ObliviousPattern) (*RunReport, error) {
	n := len(init)
	m := es.Host.Graph.N()
	if err := pattern.Validate(n); err != nil {
		return nil, err
	}
	f := es.F
	if f == nil {
		f = pebble.BalancedAssignment(n, m)
	}
	if err := checkAssignment(f, n, m); err != nil {
		return nil, err
	}
	maxLoad := pebble.MaxLoad(f, m)

	// Host-local knowledge: arrived[q][i] = the message i's sender shipped
	// this round, if it has arrived at q. mem[q][i] = i's own newest state
	// (only meaningful at q = f[i]).
	mem := make([]map[int]sim.State, m)
	for q := range mem {
		mem[q] = make(map[int]sim.State)
	}
	for i, s := range init {
		mem[f[i]][i] = s
	}

	rep := &RunReport{GuestSteps: len(pattern), MaxLoad: maxLoad}
	trace := &sim.Trace{States: make([][]sim.State, len(pattern)+1)}
	trace.States[0] = append([]sim.State(nil), init...)

	for t, round := range pattern {
		// Routing phase: i's configuration goes from f(i) to f(round[i]).
		var pairs []routing.Pair
		for i, j := range round {
			if f[i] != f[j] {
				pairs = append(pairs, routing.Pair{Src: f[i], Dst: f[j]})
			}
		}
		if len(pairs) > 0 {
			res, err := es.Host.Router.Route(es.Host.Graph, &routing.Problem{N: m, Pairs: pairs})
			if err != nil {
				return nil, fmt.Errorf("universal: oblivious round %d: %w", t, err)
			}
			rep.RouteSteps += res.Steps
		}
		arrived := make([]map[int]sim.State, m)
		for q := range arrived {
			arrived[q] = make(map[int]sim.State)
		}
		for i, j := range round {
			s, ok := mem[f[i]][i]
			if !ok {
				return nil, fmt.Errorf("universal: host %d lost the state of guest %d", f[i], i)
			}
			arrived[f[j]][i] = s
		}
		// Compute phase.
		next := make([]sim.State, len(init))
		for i, j := range round {
			q := f[j]
			recv, ok := arrived[q][i]
			if !ok {
				return nil, fmt.Errorf("universal: message %d→%d missing at host %d", i, j, q)
			}
			self, ok := mem[q][j]
			if !ok {
				return nil, fmt.Errorf("universal: host %d lost guest %d", q, j)
			}
			next[j] = obliviousStep(j, t, self, recv)
		}
		for j, s := range next {
			mem[f[j]][j] = s
		}
		rep.ComputeSteps += maxLoad
		trace.States[t+1] = next
	}
	rep.HostSteps = rep.ComputeSteps + rep.RouteSteps
	if len(pattern) > 0 {
		rep.Slowdown = float64(rep.HostSteps) / float64(len(pattern))
		rep.Inefficiency = rep.Slowdown * float64(m) / float64(n)
	}
	rep.Trace = trace
	return rep, nil
}
