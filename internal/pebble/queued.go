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
// The construction splits into the read-only embeddingPlan (shared by the
// sharded builder's workers) and a ranged streamQueued core; this function
// is the serial full-range form.
func StreamQueuedEmbeddingProtocol(guest, host *graph.Graph, f []int, T int, sink StepSink) error {
	p, err := newEmbeddingPlan(guest, host, f, T)
	if err != nil {
		return err
	}
	return p.streamQueued(sink, 0, p.m)
}

// streamQueued emits the queued host-step schedule into sink, restricted
// to the ops whose acting processor lies in [emitLo, emitHi): a Generate
// belongs to its generating host, and both ops of a transfer belong to the
// sending host (the host whose queue scan initiated it). Every global host step
// produces exactly one AppendStep call — empty sub-steps included — so
// concatenating the [0,a), [a,b), …, [z,m) sub-steps of W range-partitioned
// streams in range order reproduces the full-range stream byte for byte.
// The full schedule's decisions (queue dynamics, stall guard, routing) are
// replayed identically in every range; only emission is filtered.
func (p *embeddingPlan) streamQueued(sink StepSink, emitLo, emitHi int) error {
	m := p.m
	next := make([]int32, len(p.tmplNext))
	head := make([]int32, m)
	tail := make([]int32, m)
	busyStamp := make([]int32, m)
	busyEpoch := int32(0)
	var opsBuf []Op

	for t := 1; t <= p.T; t++ {
		var err error
		if opsBuf, err = p.generate(sink, t, emitLo, emitHi, opsBuf); err != nil {
			return err
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
