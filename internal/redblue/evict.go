package redblue

import (
	"fmt"

	"universalnet/internal/pebble"
)

// Policy chooses eviction victims. Victim receives the processor's
// slot-parallel tables (resident ids, last-touch ticks, pin stamps) and
// must return the index of an unpinned slot (pins[i] == tick ⇒ pinned this
// op), or -1 when every slot is pinned. Touched is invoked once per red
// reference in replay order — hits, loads, and generates alike — which is
// what lets Belady advance its offline next-use cursors in lockstep with
// the replay.
type Policy interface {
	Touched(proc int, id int32, tick int64)
	Victim(proc int, ids []int32, last []int64, pins []int64, tick int64) int
}

// PolicyNames lists the built-in eviction policies in report order.
func PolicyNames() []string { return []string{"lru", "random", "belady"} }

// NewPolicy builds a built-in policy by name. Belady is offline: it needs
// the materialized steps to pre-scan the reference sequence.
func NewPolicy(name string, sp pebble.Spec, steps [][]pebble.Op, seed uint64) (Policy, error) {
	switch name {
	case "lru":
		return NewLRU(), nil
	case "random":
		return NewRandom(seed), nil
	case "belady":
		if steps == nil {
			return nil, fmt.Errorf("redblue: belady needs materialized steps (offline policy)")
		}
		return NewBelady(sp, steps), nil
	}
	return nil, fmt.Errorf("redblue: unknown eviction policy %q (want lru|random|belady)", name)
}

// --- LRU ---

type lruPolicy struct{}

// NewLRU evicts the least-recently-touched unpinned slot.
func NewLRU() Policy { return lruPolicy{} }

func (lruPolicy) Touched(int, int32, int64) {}
func (lruPolicy) Victim(_ int, ids []int32, last []int64, pins []int64, tick int64) int {
	best, bestLast := -1, int64(0)
	for i := range ids {
		if pins[i] == tick {
			continue
		}
		if best < 0 || last[i] < bestLast {
			best, bestLast = i, last[i]
		}
	}
	return best
}

// --- seeded random ---

type randomPolicy struct {
	state uint64
}

// NewRandom evicts a uniformly random unpinned slot, deterministically from
// seed (SplitMix64 stream — replays are reproducible).
func NewRandom(seed uint64) Policy { return &randomPolicy{state: seed} }

func (*randomPolicy) Touched(int, int32, int64) {}

func (p *randomPolicy) next() uint64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (p *randomPolicy) Victim(_ int, ids []int32, last []int64, pins []int64, tick int64) int {
	candidates := 0
	for i := range ids {
		if pins[i] != tick {
			candidates++
		}
	}
	if candidates == 0 {
		return -1
	}
	k := int(p.next() % uint64(candidates))
	for i := range ids {
		if pins[i] != tick {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return -1
}

// --- Belady (offline farthest-next-use) ---

type beladyPolicy struct {
	numIDs int
	// refs[q·numIDs+id] lists the positions (per-processor reference
	// sequence indices) at which q references id; cursor is the next
	// unconsumed entry. seq[q] counts q's references consumed so far.
	refs   [][]int32
	cursor []int32
	seq    []int32
}

// NewBelady pre-scans steps (via the same reference enumeration the replay
// uses) and evicts the unpinned slot whose next use is farthest in the
// future — per-processor optimal for the load count, since each
// processor's reference sequence is fixed by the protocol and write-through
// makes every eviction free. Offline only: memory is O(m·(T+1)·n) plus the
// reference lists.
func NewBelady(sp pebble.Spec, steps [][]pebble.Op) Policy {
	n, m := sp.Guest.N(), sp.Host.N()
	numIDs := (sp.T + 1) * n
	p := &beladyPolicy{
		numIDs: numIDs,
		refs:   make([][]int32, m*numIDs),
		cursor: make([]int32, m*numIDs),
		seq:    make([]int32, m),
	}
	pos := make([]int32, m)
	for _, ops := range steps {
		forEachRef(sp, ops, func(q int, id int32, _ bool) {
			key := q*numIDs + int(id)
			p.refs[key] = append(p.refs[key], pos[q])
			pos[q]++
		})
	}
	return p
}

func (p *beladyPolicy) Touched(q int, id int32, _ int64) {
	myPos := p.seq[q]
	p.seq[q]++
	key := q*p.numIDs + int(id)
	refs := p.refs[key]
	c := p.cursor[key]
	for int(c) < len(refs) && refs[c] <= myPos {
		c++
	}
	p.cursor[key] = c
}

func (p *beladyPolicy) Victim(q int, ids []int32, last []int64, pins []int64, tick int64) int {
	best := -1
	bestNext := int32(-1)
	for i, id := range ids {
		if pins[i] == tick {
			continue
		}
		key := q*p.numIDs + int(id)
		next := int32(1<<31 - 1) // never used again
		if c := p.cursor[key]; int(c) < len(p.refs[key]) {
			next = p.refs[key][c]
		}
		if best < 0 || next > bestNext {
			best, bestNext = i, next
		}
	}
	return best
}
