package pebble

import (
	"fmt"
	"sort"

	"universalnet/internal/graph"
)

// BuildEmbeddingProtocol constructs a simulation protocol in the style of
// Theorem 2.1: guest processors are statically mapped onto host processors
// by the assignment f (f[i] = host of guest i); each guest step is simulated
// by a generation phase (each host generates the new pebbles of its guests,
// one per host step) followed by a distribution phase (each new pebble is
// copied along shortest host paths to the hosts of all guest neighbors,
// store-and-forward, one operation per processor per step).
//
// If f is nil, a balanced round-robin assignment i ↦ i mod m is used.
// The returned protocol passes Validate; its Inefficiency() is the measured
// k of the run.
func BuildEmbeddingProtocol(guest, host *graph.Graph, f []int, T int) (*Protocol, error) {
	pr := &Protocol{Guest: guest, Host: host, T: T}
	if err := StreamEmbeddingProtocol(guest, host, f, T, &ProtocolSink{Proto: pr}); err != nil {
		return nil, err
	}
	return pr, nil
}

// StreamEmbeddingProtocol is the streaming core of BuildEmbeddingProtocol:
// identical schedule, but each host step is emitted through sink as soon as
// it is assembled, so the protocol never has to exist as a whole. The ops
// slice passed to the sink is reused across steps.
//
// Distribution rule: every task's copy starts on its guest's host, and each
// host step scans all tasks in plan order, moving a copy one next hop when
// both its host and that hop are still free this step.
func StreamEmbeddingProtocol(guest, host *graph.Graph, f []int, T int, sink StepSink) error {
	p, err := newEmbeddingPlan(guest, host, f, T)
	if err != nil {
		return err
	}
	at := make([]int32, len(p.taskP)) // host holding each task's copy
	busyStamp := make([]int32, p.m)
	busyEpoch := int32(0)
	var ops []Op
	for t := 1; t <= T; t++ {
		if ops, err = p.generate(sink, t, 0, p.m, ops); err != nil {
			return err
		}
		if t == T {
			break // final pebbles need not be distributed
		}
		for id, i := range p.taskP {
			at[id] = int32(p.f[i])
		}
		guard := 0
		for remaining := len(at); remaining > 0; {
			guard++
			if guard > p.maxSteps {
				return fmt.Errorf("pebble: distribution stalled at guest step %d", t)
			}
			busyEpoch++
			ops = ops[:0]
			for id, q := range at {
				dst := p.taskDst[id]
				if q == dst || busyStamp[q] == busyEpoch {
					continue
				}
				v := p.nhop[dst][q]
				if v < 0 {
					return fmt.Errorf("pebble: no route from %d to %d", q, dst)
				}
				if busyStamp[v] == busyEpoch {
					continue
				}
				busyStamp[q] = busyEpoch
				busyStamp[v] = busyEpoch
				pb := Type{P: int(p.taskP[id]), T: t}
				ops = append(ops, Op{Kind: Send, Proc: int(q), Pebble: pb, Peer: int(v)})
				ops = append(ops, Op{Kind: Receive, Proc: int(v), Pebble: pb, Peer: int(q)})
				at[id] = v
				if v == dst {
					remaining--
				}
			}
			if len(ops) == 0 {
				return fmt.Errorf("pebble: no progress in distribution at guest step %d", t)
			}
			if err := sink.AppendStep(ops); err != nil {
				return err
			}
		}
	}
	return nil
}

// BalancedAssignment returns the canonical load-balanced map f of
// Theorem 2.1's proof: guest i to host i mod m; every host receives at most
// ⌈n/m⌉ guests.
func BalancedAssignment(n, m int) []int {
	f := make([]int, n)
	for i := range f {
		f[i] = i % m
	}
	return f
}

// LoadOf returns the per-host guest counts of an assignment.
func LoadOf(f []int, m int) []int {
	load := make([]int, m)
	for _, q := range f {
		load[q]++
	}
	return load
}

// MaxLoad returns the largest entry of LoadOf.
func MaxLoad(f []int, m int) int {
	max := 0
	for _, l := range LoadOf(f, m) {
		if l > max {
			max = l
		}
	}
	return max
}

// RandomizedAssignment assigns guests to hosts by a seeded shuffle of the
// balanced assignment, decorrelating guest structure from host locality.
func RandomizedAssignment(n, m int, seed int64) []int {
	f := BalancedAssignment(n, m)
	// Fisher–Yates with a small deterministic LCG to avoid importing rand
	// here; assignments only need decorrelation, not statistical quality.
	s := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func(k int) int {
		s = s*6364136223846793005 + 1442695040888963407
		return int((s >> 33) % uint64(k))
	}
	for i := n - 1; i > 0; i-- {
		j := next(i + 1)
		f[i], f[j] = f[j], f[i]
	}
	return f
}

// FragmentPickers: strategies for choosing b_i among the generators.

// PickFirst chooses the smallest-index generator.
func PickFirst(_ int, _ []int) int { return 0 }

// PickLightest returns a picker that chooses the generator holding the
// fewest time-t₀ pebbles — the choice that makes |D_i| small, mirroring the
// Main Lemma's part (3).
func (st *State) PickLightest(t0 int) func(i int, gens []int) int {
	return func(_ int, gens []int) int {
		best, bestLoad := 0, -1
		for k, q := range gens {
			load := st.guestsOnCount(q, t0)
			if bestLoad < 0 || load < bestLoad {
				best, bestLoad = k, load
			}
		}
		return best
	}
}

// SortedCopy returns a sorted copy of xs (test helper shared by fragment
// assertions).
func SortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}
