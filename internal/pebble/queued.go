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
	queues := newTaskQueues(m, len(p.taskP))
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

		// Distribution phase: queue every task at its source in task order
		// (the previous phase left every queue empty), then run the
		// head-of-line forwarding schedule.
		for id, gp := range p.taskP {
			queues.push(p.f[gp], taskRec{dst: p.taskDst[id], p: gp})
		}
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
				if busyStamp[q] == busyEpoch {
					continue
				}
				rec, ok := queues.front(q)
				if !ok {
					continue
				}
				dst := int(rec.dst)
				v := int(p.nhop[dst][q])
				if v < 0 {
					return fmt.Errorf("pebble: no route from %d to %d", q, dst)
				}
				if busyStamp[v] == busyEpoch {
					continue // head-of-line: queue waits for the next step
				}
				// Pop from q, transfer, and settle at v.
				queues.pop(q)
				busyStamp[q] = busyEpoch
				busyStamp[v] = busyEpoch
				moved++
				if q >= emitLo && q < emitHi {
					pb := Type{P: int(rec.p), T: t}
					opsBuf = append(opsBuf, Op{Kind: Send, Proc: q, Pebble: pb, Peer: v})
					opsBuf = append(opsBuf, Op{Kind: Receive, Proc: v, Pebble: pb, Peer: q})
				}
				if dst == v {
					pending--
				} else {
					queues.push(v, rec)
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

// taskRec is one queued distribution task: guest p's pebble, bound for
// host dst.
type taskRec struct{ dst, p int32 }

// queueBlock is the record capacity of one task-queue block. Small blocks
// keep the pool's partial-block overhead (up to two per host) low on small
// hosts; at 16 records a block is two cache lines.
const queueBlock = 16

// taskQueues is the queued builder's per-host FIFOs of task records. Each
// queue is a chain of queueBlock-record blocks drawn from one pool, so a
// host's pops read its records in order instead of chasing a global
// linked list through the task arrays.
//
// The pool holds ⌈tasks/queueBlock⌉ + 2m + 1 blocks, one more than can
// ever be in use. At most tasks records are live at once, because a
// transfer pops its record before it pushes it on. The blocks between a
// queue's head and tail are full, and a block goes back to the free list as
// soon as its last record is popped, so each host holds at most one partial
// head block and one partial tail block besides full blocks of live
// records. So a run allocates nothing after set-up, and newTail cannot
// find the free list empty.
type taskQueues struct {
	recs []taskRec // block b is recs[b*queueBlock : (b+1)*queueBlock]
	link []int32   // the block after b in its queue, or on the free list
	free int32     // first free block; -1 when none
	q    []hostQueue
}

// hostQueue locates one host's FIFO by record index into taskQueues.recs:
// head is the next record to pop and tail the slot of the next push. An
// empty queue owns no block and has head -1 and tail 0, so a push finds
// tail on a block boundary exactly when it needs a new block.
type hostQueue struct{ head, tail int32 }

func newTaskQueues(m, tasks int) *taskQueues {
	blocks := (tasks+queueBlock-1)/queueBlock + 2*m + 1
	tq := &taskQueues{
		recs: make([]taskRec, blocks*queueBlock),
		link: make([]int32, blocks),
		q:    make([]hostQueue, m),
	}
	for b := range tq.link {
		tq.link[b] = int32(b + 1)
	}
	tq.link[blocks-1] = -1
	for h := range tq.q {
		tq.q[h].head = -1
	}
	return tq
}

// push appends r to host h's queue.
func (tq *taskQueues) push(h int, r taskRec) {
	hq := &tq.q[h]
	if hq.tail%queueBlock == 0 {
		tq.newTail(hq)
	}
	tq.recs[hq.tail] = r
	hq.tail++
}

// newTail takes a block off the free list and makes it an empty queue's
// first block or links it after a full tail block.
func (tq *taskQueues) newTail(hq *hostQueue) {
	b := tq.free
	tq.free = tq.link[b]
	if hq.head < 0 {
		hq.head = b * queueBlock
	} else {
		tq.link[hq.tail/queueBlock-1] = b
	}
	hq.tail = b * queueBlock
}

// front returns the head record of host h's queue; ok is false when the
// queue is empty.
func (tq *taskQueues) front(h int) (r taskRec, ok bool) {
	if head := tq.q[h].head; head >= 0 {
		return tq.recs[head], true
	}
	return taskRec{}, false
}

// pop drops the head record of host h's non-empty queue.
func (tq *taskQueues) pop(h int) {
	hq := &tq.q[h]
	hq.head++
	if hq.head == hq.tail || hq.head%queueBlock == 0 {
		tq.dropHead(hq)
	}
}

// dropHead returns the block a pop just drained to the free list: the
// queue's last block, which empties the queue, or its head block, which
// passes the head on.
func (tq *taskQueues) dropHead(hq *hostQueue) {
	b := (hq.head - 1) / queueBlock
	if hq.head == hq.tail {
		hq.head, hq.tail = -1, 0
	} else {
		hq.head = tq.link[b] * queueBlock
	}
	tq.link[b], tq.free = tq.free, b
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
