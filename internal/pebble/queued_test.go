package pebble

import (
	"math/rand"
	"testing"
)

// blocksInUse counts the pool blocks not on the free list.
func (tq *taskQueues) blocksInUse() int {
	free := 0
	for b := tq.free; b >= 0; b = tq.link[b] {
		free++
	}
	return len(tq.link) - free
}

// TestTaskQueuesFIFO holds the block queues to one plain slice per host
// through random pushes and pops, full drains and refills, and then through
// the pool's worst case: every host with a one-record head block, full
// middle blocks and a one-record tail block.
func TestTaskQueuesFIFO(t *testing.T) {
	const (
		hosts = 3
		mid   = 2 // full middle blocks per host at the worst case
		tasks = hosts * (mid*queueBlock + 2)
	)
	tq := newTaskQueues(hosts, tasks)
	ref := make([][]taskRec, hosts)
	live, serial := 0, int32(0)
	push := func(h int) {
		r := taskRec{dst: int32(h), p: serial}
		serial++
		tq.push(h, r)
		ref[h] = append(ref[h], r)
		live++
	}
	pop := func(h int) {
		t.Helper()
		got, ok := tq.front(h)
		if !ok || got != ref[h][0] {
			t.Fatalf("host %d: front %+v (ok %v), want %+v", h, got, ok, ref[h][0])
		}
		tq.pop(h)
		ref[h] = ref[h][1:]
		live--
	}
	check := func() {
		t.Helper()
		nonEmpty := 0
		for h := range ref {
			if _, ok := tq.front(h); ok != (len(ref[h]) > 0) {
				t.Fatalf("host %d: front ok %v with %d queued", h, ok, len(ref[h]))
			}
			if len(ref[h]) > 0 {
				nonEmpty++
			}
		}
		// The bound newTaskQueues sizes its pool by: full blocks of live
		// records, plus a partial head and tail block per queue.
		if in, most := tq.blocksInUse(), live/queueBlock+2*nonEmpty; in > most {
			t.Fatalf("%d blocks in use for %d live records on %d queues, want ≤ %d", in, live, nonEmpty, most)
		}
	}

	rng := rand.New(rand.NewSource(21))
	crossed, emptied := 0, 0
	for round := 0; round < 40; round++ {
		// Grow random queues past block boundaries, then shrink them.
		for i := rng.Intn(3 * queueBlock); i > 0 && live < tasks; i-- {
			push(rng.Intn(hosts))
			check()
		}
		for i := rng.Intn(3 * queueBlock); i > 0; i-- {
			h := rng.Intn(hosts)
			if len(ref[h]) == 0 {
				continue
			}
			if tq.q[h].head%queueBlock == queueBlock-1 && len(ref[h]) > 1 {
				crossed++
			}
			pop(h)
			if len(ref[h]) == 0 {
				emptied++
			}
			check()
		}
		if round%10 == 9 { // drain every queue; the next round refills
			for h := range ref {
				for len(ref[h]) > 0 {
					pop(h)
				}
			}
			check()
			if in := tq.blocksInUse(); in != 0 {
				t.Fatalf("drained queues hold %d blocks", in)
			}
		}
	}
	if crossed == 0 || emptied == 0 {
		t.Fatalf("random phase crossed %d head blocks and emptied %d queues; want both", crossed, emptied)
	}

	// Worst case. Per host: fill one block and pop all but its last
	// record, then push mid blocks and one record more. Live records never
	// exceed tasks on the way.
	for h := 0; h < hosts; h++ {
		for i := 0; i < queueBlock; i++ {
			push(h)
		}
		for i := 0; i < queueBlock-1; i++ {
			pop(h)
		}
		for i := 0; i < mid*queueBlock+1; i++ {
			push(h)
		}
		check()
	}
	if live != tasks {
		t.Fatalf("worst case holds %d live records, want %d", live, tasks)
	}
	if in, want := tq.blocksInUse(), hosts*(mid+2); in != want {
		t.Fatalf("worst case uses %d blocks, want %d", in, want)
	}
	for h := range ref {
		for len(ref[h]) > 0 {
			pop(h)
		}
	}
	check()
}
