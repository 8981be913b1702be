package pebble

import (
	"fmt"
	"sort"

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
	// ownedSink: the builder allocates a fresh ops slice per step, so the
	// materialized protocol can own them without a copy (preserving the
	// builder's historical allocation profile).
	if err := streamPipelined(guest, host, f, T, &ownedSink{proto: pr}); err != nil {
		return nil, err
	}
	return pr, nil
}

// StreamPipelinedProtocol emits the pipelined greedy schedule through sink,
// one host step at a time. Unlike the materializing wrapper it hands the
// sink a slice it will not reuse, but the StepSink contract still only
// guarantees validity for the duration of the call.
func StreamPipelinedProtocol(guest, host *graph.Graph, f []int, T int, sink StepSink) error {
	return streamPipelined(guest, host, f, T, sink)
}

func streamPipelined(guest, host *graph.Graph, f []int, T int, sink StepSink) error {
	f, err := checkEmbedding(guest, host, f, T)
	if err != nil {
		return err
	}
	n, m := guest.N(), host.N()

	// Transfer tasks: deliver (P_i, t) from f(i) to the host of each guest
	// neighbor (deduplicated). Created when (P_i, t) is generated, t < T.
	type task struct {
		pb  Type
		at  int
		dst int
	}
	destsOf := make([][]int, n) // distinct foreign hosts needing i's pebbles
	for i := 0; i < n; i++ {
		seen := map[int]bool{f[i]: true}
		for _, j := range guest.Neighbors(i) {
			if !seen[f[j]] {
				seen[f[j]] = true
				destsOf[i] = append(destsOf[i], f[j])
			}
		}
	}

	// Host-local readiness bookkeeping (mirrors State, kept separately so
	// the final protocol is still validated independently).
	st := NewState(guest, host, T)
	nextGen := make([]int, n) // nextGen[i] = t of the next pebble to generate
	for i := range nextGen {
		nextGen[i] = 1
	}
	guestsOf, _ := guestsPerHost(f, m)
	canGen := func(i int) bool {
		t := nextGen[i]
		if t > T {
			return false
		}
		q := f[i]
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

	distCache := make(map[int][]int)
	distTo := func(dst int) []int {
		if d, ok := distCache[dst]; ok {
			return d
		}
		d := host.BFS(dst)
		distCache[dst] = d
		return d
	}
	nextHop := func(at, dst int) int {
		d := distTo(dst)
		for _, w := range host.Neighbors(at) {
			if d[w] == d[at]-1 {
				return w
			}
		}
		return -1
	}

	var tasks []*task
	remainingGen := n * T
	guard := 0
	maxSteps := 64 * T * (n + m) * (host.Diameter() + 2)

	for remainingGen > 0 || len(tasks) > 0 {
		guard++
		if guard > maxSteps {
			return fmt.Errorf("pebble: pipelined builder exceeded %d steps", maxSteps)
		}
		busy := make([]bool, m)
		var ops []Op
		var gains []Op // generation ops applied after scheduling decisions

		// Pass 1: transfers, farthest-first (the arbitration rule the greedy
		// router uses): tasks with more remaining distance get first pick of
		// links, keeping the communication critical path moving.
		sort.SliceStable(tasks, func(a, b int) bool {
			da := distTo(tasks[a].dst)[tasks[a].at]
			db := distTo(tasks[b].dst)[tasks[b].at]
			return da > db
		})
		var stillTasks []*task
		for _, tk := range tasks {
			if tk.at == tk.dst {
				continue
			}
			if busy[tk.at] {
				stillTasks = append(stillTasks, tk)
				continue
			}
			v := nextHop(tk.at, tk.dst)
			if v < 0 {
				return fmt.Errorf("pebble: no route %d→%d", tk.at, tk.dst)
			}
			if busy[v] {
				stillTasks = append(stillTasks, tk)
				continue
			}
			busy[tk.at] = true
			busy[v] = true
			ops = append(ops, Op{Kind: Send, Proc: tk.at, Pebble: tk.pb, Peer: v})
			ops = append(ops, Op{Kind: Receive, Proc: v, Pebble: tk.pb, Peer: tk.at})
			tk.at = v
			if tk.at != tk.dst {
				stillTasks = append(stillTasks, tk)
			}
		}
		tasks = stillTasks

		// Pass 2: generations on processors the transfer pass left idle.
		for q := 0; q < m; q++ {
			if busy[q] {
				continue
			}
			for _, i := range guestsOf[q] {
				if canGen(i) {
					t := nextGen[i]
					gains = append(gains, Op{Kind: Generate, Proc: q, Pebble: Type{P: i, T: t}})
					busy[q] = true
					nextGen[i]++
					remainingGen--
					if t < T {
						for _, dst := range destsOf[i] {
							tasks = append(tasks, &task{pb: Type{P: i, T: t}, at: q, dst: dst})
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
