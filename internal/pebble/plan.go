package pebble

import (
	"fmt"

	"universalnet/internal/graph"
)

// embeddingPlan is the read-only precompute that every embedding builder
// reads. Theorem 2.1's protocol is fixed by three things, and the plan
// holds each once:
//
//   - the assignment f and its guests-per-host CSR, which fix the
//     generation phase (emitted by generate);
//   - the distribution tasks: for each guest, its pebble's trip to each
//     distinct foreign host among its neighbours' hosts;
//   - the shortest-path next hop, and the hop distance, from every host to
//     every task destination.
//
// The builders differ only in how they schedule the distribution. A plan is
// safe for concurrent use — builders own all mutable state — which is what
// lets the sharded builder run W workers against one plan.
type embeddingPlan struct {
	host *graph.Graph
	f    []int // guest i lives on host f[i]
	T    int
	n, m int

	maxLoad int
	// Guests assigned to host q are guestIDs[guestOff[q]:guestOff[q+1]],
	// ascending — the generation schedule's row-major order.
	guestOff []int32
	guestIDs []int32

	// Distribution tasks in guest order: task id's pebble is guest
	// taskP[id]'s, bound for host taskDst[id]; a guest's tasks follow its
	// neighbour order. The list is the same for every guest step t — only
	// the pebble's T differs.
	taskP   []int32
	taskDst []int32

	// For each task destination dst, nhop[dst][at] is the first neighbour
	// of at one BFS level closer to dst (-1 at dst itself) and
	// dist[dst][at] is at's hop distance to dst. The two rows share one
	// allocation; hosts that are no task's destination have nil rows.
	nhop [][]int32
	dist [][]int32

	// Stall guard for one distribution phase: every host step forwards at
	// least one task one hop, so the phase ends within totalHops steps;
	// the slack allows empty scans around phase boundaries.
	maxSteps int
}

// newEmbeddingPlan checks the arguments every embedding builder shares —
// T ≥ 1, a connected host, one valid host per guest in f (nil selects
// BalancedAssignment) — and builds the plan.
func newEmbeddingPlan(guest, host *graph.Graph, f []int, T int) (*embeddingPlan, error) {
	n, m := guest.N(), host.N()
	if T < 1 {
		return nil, fmt.Errorf("pebble: need T ≥ 1, got %d", T)
	}
	if !host.IsConnected() {
		return nil, fmt.Errorf("pebble: host must be connected")
	}
	if f == nil {
		f = BalancedAssignment(n, m)
	}
	if len(f) != n {
		return nil, fmt.Errorf("pebble: assignment length %d, want %d", len(f), n)
	}
	for i, q := range f {
		if q < 0 || q >= m {
			return nil, fmt.Errorf("pebble: guest %d assigned to invalid host %d", i, q)
		}
	}

	p := &embeddingPlan{host: host, f: f, T: T, n: n, m: m}

	p.guestOff = make([]int32, m+1)
	for _, q := range f {
		p.guestOff[q+1]++
	}
	for q := 0; q < m; q++ {
		p.guestOff[q+1] += p.guestOff[q]
		if load := int(p.guestOff[q+1] - p.guestOff[q]); load > p.maxLoad {
			p.maxLoad = load
		}
	}
	p.guestIDs = make([]int32, n)
	pos := make([]int32, m)
	copy(pos, p.guestOff[:m])
	for i, q := range f {
		p.guestIDs[pos[q]] = int32(i)
		pos[q]++
	}

	p.nhop = make([][]int32, m)
	p.dist = make([][]int32, m)
	distTo := func(dst int) []int32 {
		if d := p.dist[dst]; d != nil {
			return d
		}
		bfs := host.BFS(dst)
		row := make([]int32, 2*m)
		nh, d := row[:m:m], row[m:]
		for at := 0; at < m; at++ {
			d[at] = int32(bfs[at])
			nh[at] = -1
			for _, w := range host.Neighbors(at) {
				if bfs[w] == bfs[at]-1 {
					nh[at] = int32(w)
					break
				}
			}
		}
		p.nhop[dst], p.dist[dst] = nh, d
		return d
	}

	// A guest processor has at most one task per neighbour, so the task
	// arrays never outgrow 2|E|; sizing them once saves the append regrowth
	// that dominates the plan's allocation at n = 10⁶.
	tasks := 2 * guest.M()
	p.taskP = make([]int32, 0, tasks)
	p.taskDst = make([]int32, 0, tasks)
	seenStamp := make([]int32, m)
	seenEpoch := int32(0)
	totalHops := 0
	for i := 0; i < n; i++ {
		seenEpoch++
		src := f[i]
		seenStamp[src] = seenEpoch
		for _, j := range guest.Neighbors(i) {
			h := f[j]
			if seenStamp[h] == seenEpoch {
				continue
			}
			seenStamp[h] = seenEpoch
			p.taskP = append(p.taskP, int32(i))
			p.taskDst = append(p.taskDst, int32(h))
			totalHops += int(distTo(h)[src])
		}
	}
	p.maxSteps = 4*totalHops + 4*m + 16
	return p, nil
}

// generate emits guest step t's generation phase: maxLoad host steps, in
// the r-th of which every host with more than r guests generates its r-th
// guest's pebble. Only the Generates of hosts in [lo, hi) are kept; every
// host step is emitted, empty or not. ops is scratch, returned grown for
// reuse.
func (p *embeddingPlan) generate(sink StepSink, t, lo, hi int, ops []Op) ([]Op, error) {
	for r := int32(0); r < int32(p.maxLoad); r++ {
		ops = ops[:0]
		for q := lo; q < hi; q++ {
			if base := p.guestOff[q]; r < p.guestOff[q+1]-base {
				ops = append(ops, Op{Kind: Generate, Proc: q, Pebble: Type{P: int(p.guestIDs[base+r]), T: t}})
			}
		}
		if err := sink.AppendStep(ops); err != nil {
			return ops, err
		}
	}
	return ops, nil
}
