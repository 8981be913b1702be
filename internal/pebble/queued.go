package pebble

import (
	"fmt"

	"universalnet/internal/graph"
)

// StreamQueuedEmbeddingProtocol is the scalable sibling of
// StreamEmbeddingProtocol, built for guests far larger than the host
// (n ≫ m). It emits the same phased schedule shape — per guest step, a
// generation phase of maxLoad host steps followed by a distribution phase —
// but schedules the distribution with per-host FIFO task queues instead of
// rescanning the full task list every host step. Each host step costs
// O(m + transfers) instead of O(total tasks), which is the difference
// between minutes and weeks at n = 10⁶.
//
// Scheduling rule: hosts are scanned in index order; a free host forwards
// the head task of its queue one hop toward its destination if that hop is
// also free (head-of-line semantics — a blocked head blocks its queue for
// the step). Progress per host step is guaranteed: the first host whose
// head task is considered either moves it or was blocked by an earlier
// transfer this step.
//
// The ops slice handed to sink is reused across steps. The resulting
// protocol validates (the tests replay it through both engines); its exact
// step sequence differs from StreamEmbeddingProtocol's, so it is a distinct
// builder, not a drop-in replacement where byte-identical output matters.
//
// The construction splits into a read-only queuedPlan (shared by the
// sharded builder's workers) and a ranged stream() core; this function is
// the serial full-range form.
func StreamQueuedEmbeddingProtocol(guest, host *graph.Graph, f []int, T int, sink StepSink) error {
	p, err := newQueuedPlan(guest, host, f, T)
	if err != nil {
		return err
	}
	return p.stream(sink, 0, p.m)
}

// queuedPlan is the read-only precompute of the queued builder: the
// assignment in CSR form, next-hop routing tables, and the distribution
// task template. The template exploits that the distribution tasks for
// guest step t are identical for every t (only the pebble's T differs), so
// the per-step arena rebuild of the original builder becomes three copies.
// A plan is safe for concurrent stream() calls — stream() owns all mutable
// state — which is what lets the sharded builder run W workers against one
// plan.
type queuedPlan struct {
	guest *graph.Graph
	host  *graph.Graph
	T     int
	n, m  int

	maxLoad int
	// Guests assigned to host q are guestIDs[guestOff[q]:guestOff[q+1]],
	// ascending — the generation schedule's row-major order.
	guestOff []int32
	guestIDs []int32

	// nhop[dst][at] is the first neighbor of at one BFS level closer to
	// dst (-1 if unreachable); built only for hosts that appear as task
	// destinations, nil otherwise.
	nhop [][]int32

	// Distribution-task template: task id's pebble is guest taskP[id]
	// bound for host taskDst[id]. tmplHead/tmplTail/tmplNext are the
	// initial per-source FIFO queues; stream() copies them at each guest
	// step and mutates the copies.
	taskP    []int32
	taskDst  []int32
	tmplNext []int32
	tmplHead []int32
	tmplTail []int32

	// Stall guard for one distribution phase: every host step forwards at
	// least one task one hop, so the phase ends within totalHops steps;
	// the slack allows empty scans around phase boundaries.
	maxSteps int
}

func newQueuedPlan(guest, host *graph.Graph, f []int, T int) (*queuedPlan, error) {
	f, err := checkEmbedding(guest, host, f, T)
	if err != nil {
		return nil, err
	}
	n, m := guest.N(), host.N()

	p := &queuedPlan{guest: guest, host: host, T: T, n: n, m: m}

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

	// Distance tables are needed only while building the template (for
	// totalHops); the next-hop tables they derive persist for routing.
	p.nhop = make([][]int32, m)
	distCache := make([][]int, m)
	distTo := func(dst int) []int {
		if d := distCache[dst]; d != nil {
			return d
		}
		d := host.BFS(dst)
		distCache[dst] = d
		nh := make([]int32, m)
		for at := 0; at < m; at++ {
			nh[at] = -1
			for _, w := range host.Neighbors(at) {
				if d[w] == d[at]-1 {
					nh[at] = int32(w)
					break
				}
			}
		}
		p.nhop[dst] = nh
		return d
	}

	p.tmplHead = make([]int32, m)
	p.tmplTail = make([]int32, m)
	for q := 0; q < m; q++ {
		p.tmplHead[q], p.tmplTail[q] = -1, -1
	}
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
			id := int32(len(p.taskP))
			p.taskP = append(p.taskP, int32(i))
			p.taskDst = append(p.taskDst, int32(h))
			p.tmplNext = append(p.tmplNext, -1)
			if p.tmplTail[src] < 0 {
				p.tmplHead[src] = id
			} else {
				p.tmplNext[p.tmplTail[src]] = id
			}
			p.tmplTail[src] = id
			totalHops += distTo(h)[src]
		}
	}
	p.maxSteps = 4*totalHops + 4*m + 16
	return p, nil
}

// stream emits the plan's host-step schedule into sink, restricted to the
// ops whose acting processor lies in [emitLo, emitHi): a Generate belongs
// to its generating host, and both ops of a transfer belong to the sending
// host (the host whose queue scan initiated it). Every global host step
// produces exactly one AppendStep call — empty sub-steps included — so
// concatenating the [0,a), [a,b), …, [z,m) sub-steps of W range-partitioned
// streams in range order reproduces the full-range stream byte for byte.
// The full schedule's decisions (queue dynamics, stall guard, routing) are
// replayed identically in every range; only emission is filtered.
func (p *queuedPlan) stream(sink StepSink, emitLo, emitHi int) error {
	m := p.m
	next := make([]int32, len(p.tmplNext))
	head := make([]int32, m)
	tail := make([]int32, m)
	busyStamp := make([]int32, m)
	busyEpoch := int32(0)
	var opsBuf []Op

	for t := 1; t <= p.T; t++ {
		// Generation phase: maxLoad host steps, identical to the legacy
		// builder's schedule.
		for r := int32(0); r < int32(p.maxLoad); r++ {
			opsBuf = opsBuf[:0]
			for q := emitLo; q < emitHi; q++ {
				if base := p.guestOff[q]; r < p.guestOff[q+1]-base {
					opsBuf = append(opsBuf, Op{Kind: Generate, Proc: q, Pebble: Type{P: int(p.guestIDs[base+r]), T: t}})
				}
			}
			if err := sink.AppendStep(opsBuf); err != nil {
				return err
			}
		}
		if t == p.T {
			break // final pebbles need not be distributed
		}

		// Distribution phase: reset the queues from the template and run
		// the head-of-line forwarding schedule.
		copy(next, p.tmplNext)
		copy(head, p.tmplHead)
		copy(tail, p.tmplTail)
		pending := len(p.taskP)
		guard := 0
		for pending > 0 {
			guard++
			if guard > p.maxSteps {
				return fmt.Errorf("pebble: distribution stalled at guest step %d", t)
			}
			busyEpoch++
			opsBuf = opsBuf[:0]
			moved := 0
			for q := 0; q < m; q++ {
				if busyStamp[q] == busyEpoch || head[q] < 0 {
					continue
				}
				id := head[q]
				dst := int(p.taskDst[id])
				v := int(p.nhop[dst][q])
				if v < 0 {
					return fmt.Errorf("pebble: no route from %d to %d", q, dst)
				}
				if busyStamp[v] == busyEpoch {
					continue // head-of-line: queue waits for the next step
				}
				// Pop from q, transfer, and settle at v.
				head[q] = next[id]
				if head[q] < 0 {
					tail[q] = -1
				}
				next[id] = -1
				busyStamp[q] = busyEpoch
				busyStamp[v] = busyEpoch
				moved++
				if q >= emitLo && q < emitHi {
					pb := Type{P: int(p.taskP[id]), T: t}
					opsBuf = append(opsBuf, Op{Kind: Send, Proc: q, Pebble: pb, Peer: v})
					opsBuf = append(opsBuf, Op{Kind: Receive, Proc: v, Pebble: pb, Peer: q})
				}
				if dst == v {
					pending--
				} else {
					if tail[v] < 0 {
						head[v] = id
					} else {
						next[tail[v]] = id
					}
					tail[v] = id
				}
			}
			if moved == 0 {
				return fmt.Errorf("pebble: no progress in distribution at guest step %d", t)
			}
			if err := sink.AppendStep(opsBuf); err != nil {
				return err
			}
		}
	}
	return nil
}

// BuildQueuedEmbeddingProtocol materializes the queued builder's schedule —
// the small-n form used by the equivalence tests; big runs stream instead.
func BuildQueuedEmbeddingProtocol(guest, host *graph.Graph, f []int, T int) (*Protocol, error) {
	pr := &Protocol{Guest: guest, Host: host, T: T}
	if err := StreamQueuedEmbeddingProtocol(guest, host, f, T, &ProtocolSink{Proto: pr}); err != nil {
		return nil, err
	}
	return pr, nil
}
