package pebble

import (
	"fmt"
	"slices"

	"universalnet/internal/graph"
)

// BuildPipelinedProtocol is the optimized variant of
// BuildEmbeddingProtocol: instead of strictly alternating a generation
// phase and a distribution phase per guest step, every host processor
// greedily performs, each host step, whichever operation is ready —
// generating the next pebble one of its guests is ready for, or forwarding
// a pending transfer. Pebbles of guest step t start moving while other
// processors are still generating theirs, and generation of step t+1 starts
// as soon as a processor's own inputs have arrived. The resulting protocols
// have strictly smaller host-step counts (lower inefficiency k) than the
// phase-based builder on every non-trivial instance; the E15 ablation
// quantifies the gap.
func BuildPipelinedProtocol(guest, host *graph.Graph, f []int, T int) (*Protocol, error) {
	pr := &Protocol{Guest: guest, Host: host, T: T}
	if err := StreamPipelinedProtocol(guest, host, f, T, &ProtocolSink{Proto: pr}); err != nil {
		return nil, err
	}
	return pr, nil
}

// StreamPipelinedProtocol emits the pipelined greedy schedule through sink,
// one host step at a time. The ops slice passed to the sink is reused
// across steps.
func StreamPipelinedProtocol(guest, host *graph.Graph, f []int, T int, sink StepSink) error {
	p, err := newEmbeddingPlan(guest, host, f, T)
	if err != nil {
		return err
	}
	n, m := p.n, p.m

	// The plan lists tasks in guest order; guest i's pebbles go to the
	// destinations of tasks taskOff[i] up to taskOff[i+1].
	taskOff := make([]int32, n+1)
	for _, i := range p.taskP {
		taskOff[i+1]++
	}
	for i := 0; i < n; i++ {
		taskOff[i+1] += taskOff[i]
	}

	// Host-local readiness bookkeeping (mirrors State, kept separately so
	// the final protocol is still validated independently).
	st := NewState(guest, host, T)
	nextGen := make([]int, n) // nextGen[i] = t of the next pebble to generate
	for i := range nextGen {
		nextGen[i] = 1
	}
	canGen := func(i int) bool {
		t := nextGen[i]
		if t > T {
			return false
		}
		q := p.f[i]
		if !st.Contains(q, Type{P: i, T: t - 1}) {
			return false
		}
		for _, j := range guest.Neighbors(i) {
			if !st.Contains(q, Type{P: j, T: t - 1}) {
				return false
			}
		}
		return true
	}

	// A transfer carries task id's pebble of guest step t; its copy is at
	// host at. Transfers are created when the pebble is generated, t < T.
	type transfer struct {
		id, at int32
		t      int
	}
	var tasks []transfer
	remainingGen := n * T
	// Every host step generates a pebble or moves a copy one hop closer,
	// so a schedule needs at most n·T + (T−1)·totalHops steps.
	maxSteps := T * (n + p.maxSteps)
	busy := make([]bool, m)
	var ops, gains []Op // gains: generation ops applied after scheduling decisions

	for guard := 0; remainingGen > 0 || len(tasks) > 0; {
		guard++
		if guard > maxSteps {
			return fmt.Errorf("pebble: pipelined builder exceeded %d steps", maxSteps)
		}
		clear(busy)
		ops, gains = ops[:0], gains[:0]

		// Pass 1: transfers, farthest-first (the arbitration rule the greedy
		// router uses): tasks with more remaining distance get first pick of
		// links, keeping the communication critical path moving.
		slices.SortStableFunc(tasks, func(a, b transfer) int {
			return int(p.dist[p.taskDst[b.id]][b.at] - p.dist[p.taskDst[a.id]][a.at])
		})
		kept := tasks[:0]
		for _, tk := range tasks {
			q, dst := tk.at, p.taskDst[tk.id]
			if busy[q] {
				kept = append(kept, tk)
				continue
			}
			v := p.nhop[dst][q]
			if v < 0 {
				return fmt.Errorf("pebble: no route %d→%d", q, dst)
			}
			if busy[v] {
				kept = append(kept, tk)
				continue
			}
			busy[q] = true
			busy[v] = true
			pb := Type{P: int(p.taskP[tk.id]), T: tk.t}
			ops = append(ops, Op{Kind: Send, Proc: int(q), Pebble: pb, Peer: int(v)})
			ops = append(ops, Op{Kind: Receive, Proc: int(v), Pebble: pb, Peer: int(q)})
			if v != dst {
				tk.at = v
				kept = append(kept, tk)
			}
		}
		tasks = kept

		// Pass 2: generations on processors the transfer pass left idle.
		for q := 0; q < m; q++ {
			if busy[q] {
				continue
			}
			for _, i := range p.guestIDs[p.guestOff[q]:p.guestOff[q+1]] {
				if canGen(int(i)) {
					t := nextGen[i]
					gains = append(gains, Op{Kind: Generate, Proc: q, Pebble: Type{P: int(i), T: t}})
					busy[q] = true
					nextGen[i]++
					remainingGen--
					if t < T {
						for id := taskOff[i]; id < taskOff[i+1]; id++ {
							tasks = append(tasks, transfer{id: id, at: int32(q), t: t})
						}
					}
					break
				}
			}
		}
		ops = append(ops, gains...)
		if len(ops) == 0 {
			return fmt.Errorf("pebble: pipelined builder stalled (remaining generations %d, tasks %d)",
				remainingGen, len(tasks))
		}
		if err := st.ApplyStep(ops); err != nil {
			return fmt.Errorf("pebble: pipelined builder emitted illegal step (bug): %w", err)
		}
		if err := sink.AppendStep(ops); err != nil {
			return err
		}
	}
	return nil
}
