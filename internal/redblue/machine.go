package redblue

import (
	"fmt"

	"universalnet/internal/pebble"
)

// Machine is the red-blue memory state of one replay: per-processor red
// slot tables (flat slot arrays scanned linearly, zero-alloc warm) and the
// shared blue bitset. Pebble (P_i, t) maps to dense id t·n+i, exactly the
// streaming validator's layout.
//
// The slot tables are the red sets: processor q's red memory is its
// slotIDs row, at most R entries. Whether q has had a pebble in red before
// (which makes a load a reload, and is the only case in which the pebble
// can still be resident) is derived, not stored: for t ≥ 1 it is the
// embedded validator's possession (see CostedValidator.account), and
// only the inputs (P_i, 0), which every processor holds from the start,
// keep a history table, inputSeen, of m·n bits.
//
// Within one host-step op every referenced pebble is pinned (pin stamp =
// the op's tick) so the policy can never evict an operand of the op that is
// loading it; if an op needs more simultaneous residents than R, the replay
// fails with a graceful capacity error instead of thrashing.
type Machine struct {
	n, m, T int
	inWords int // per inputSeen row: n bits
	r       int // 0 = unbounded

	blue      []uint64 // (T+1)·n bits: blue residency (shared)
	inputSeen []uint64 // m×inWords: q has had input (P_i, 0) in red

	slotIDs  [][]int32 // per proc: resident ids, swap-remove order
	slotLast [][]int64 // per proc: last-touch tick, slot-parallel
	slotPin  [][]int64 // per proc: pin stamp (== tick ⇒ pinned this op)

	// Per-processor charge accumulators for the makespan.
	computeQ []int64
	ioQ      []int64

	loads, coldLoads, reloads, stores int64
	peakRed                           int

	pol Policy
}

// NewMachine builds the cold start state for sp: blue holds every (P_i, 0)
// input pebble, every red memory is empty.
func NewMachine(sp pebble.Spec, model CostModel, pol Policy) (*Machine, error) {
	if err := model.check(); err != nil {
		return nil, err
	}
	if pol == nil {
		return nil, fmt.Errorf("redblue: nil eviction policy")
	}
	n, m := sp.Guest.N(), sp.Host.N()
	inWords := (n + 63) / 64
	ma := &Machine{
		n: n, m: m, T: sp.T,
		inWords:   inWords,
		r:         model.R,
		blue:      make([]uint64, ((sp.T+1)*n+63)/64),
		inputSeen: make([]uint64, m*inWords),
		slotIDs:   make([][]int32, m),
		slotLast:  make([][]int64, m),
		slotPin:   make([][]int64, m),
		computeQ:  make([]int64, m),
		ioQ:       make([]int64, m),
		pol:       pol,
	}
	capHint := model.R
	if capHint == 0 {
		capHint = 16 // unbounded mode grows on demand
	}
	for q := 0; q < m; q++ {
		ma.slotIDs[q] = make([]int32, 0, capHint)
		ma.slotLast[q] = make([]int64, 0, capHint)
		ma.slotPin[q] = make([]int64, 0, capHint)
	}
	// Inputs start in blue.
	for w := 0; w < n/64; w++ {
		ma.blue[w] = ^uint64(0)
	}
	if rem := uint(n) & 63; rem != 0 {
		ma.blue[n/64] |= 1<<rem - 1
	}
	return ma, nil
}

func (ma *Machine) blueBit(id int32) bool {
	return ma.blue[int(id)>>6]&(1<<(uint(id)&63)) != 0
}

// slotOf finds id's slot index on q by linear scan — occupancy is bounded
// by R (or the working set), so this stays cache-resident and alloc-free.
func (ma *Machine) slotOf(q int, id int32) int {
	for i, sid := range ma.slotIDs[q] {
		if sid == id {
			return i
		}
	}
	return -1
}

// access makes id resident in q's red memory at tick, charging a blue→red
// load when a read misses (write misses allocate a slot without a load —
// the value is freshly computed). The slot is pinned for the current op.
// held says whether q held id before this op; for t ≥ 1 that is exactly
// whether q has had id in red before, since every touch needs q to hold
// the pebble or gives it to q. Only then is the slot table scanned: a
// pebble never touched cannot be resident.
func (ma *Machine) access(q int, id int32, write, held bool, tick int64) error {
	input := int(id) < ma.n
	if input {
		held = ma.inputSeen[q*ma.inWords+int(id)>>6]&(1<<(uint(id)&63)) != 0
	}
	if held {
		if i := ma.slotOf(q, id); i >= 0 {
			ma.slotLast[q][i] = tick
			ma.slotPin[q][i] = tick
			ma.pol.Touched(q, id, tick)
			return nil
		}
	}
	if !write {
		if !ma.blueBit(id) {
			// Unreachable after validation: every held pebble was stored.
			return fmt.Errorf("redblue: internal: load of (P%d,t%d) on %d not in blue",
				int(id)%ma.n, int(id)/ma.n, q)
		}
		ma.loads++
		ma.ioQ[q]++
		if held {
			ma.reloads++
		} else {
			ma.coldLoads++
		}
	}
	if ma.r > 0 && len(ma.slotIDs[q]) >= ma.r {
		if err := ma.evictOne(q, tick); err != nil {
			return err
		}
	}
	if input {
		ma.inputSeen[q*ma.inWords+int(id)>>6] |= 1 << (uint(id) & 63)
	}
	ma.slotIDs[q] = append(ma.slotIDs[q], id)
	ma.slotLast[q] = append(ma.slotLast[q], tick)
	ma.slotPin[q] = append(ma.slotPin[q], tick)
	if occ := len(ma.slotIDs[q]); occ > ma.peakRed {
		ma.peakRed = occ
	}
	ma.pol.Touched(q, id, tick)
	return nil
}

// evictOne asks the policy for a victim among q's unpinned slots and drops
// it. Evictions are free: write-through keeps every red copy clean.
func (ma *Machine) evictOne(q int, tick int64) error {
	i := ma.pol.Victim(q, ma.slotIDs[q], ma.slotLast[q], ma.slotPin[q], tick)
	if i < 0 || i >= len(ma.slotIDs[q]) || ma.slotPin[q][i] == tick {
		return fmt.Errorf("redblue: red capacity %d too small: processor %d needs more than %d resident pebbles in one op",
			ma.r, q, ma.r)
	}
	last := len(ma.slotIDs[q]) - 1
	ma.slotIDs[q][i] = ma.slotIDs[q][last]
	ma.slotLast[q][i] = ma.slotLast[q][last]
	ma.slotPin[q][i] = ma.slotPin[q][last]
	ma.slotIDs[q] = ma.slotIDs[q][:last]
	ma.slotLast[q] = ma.slotLast[q][:last]
	ma.slotPin[q] = ma.slotPin[q][:last]
	return nil
}

// store write-throughs id to blue. Charged once per Generate so the store
// count is policy-independent.
func (ma *Machine) store(q int, id int32) {
	ma.blue[int(id)>>6] |= 1 << (uint(id) & 63)
	ma.stores++
	ma.ioQ[q]++
}

// MinRed is the smallest feasible red budget for protocols over guest: a
// Generate must hold the new pebble plus its ≤ MaxDegree+1 predecessors at
// once.
func MinRed(sp pebble.Spec) int {
	if sp.Guest == nil {
		return 0
	}
	return sp.Guest.MaxDegree() + 2
}
