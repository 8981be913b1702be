package pebble

import (
	"errors"
	"math/bits"
	"sort"

	"universalnet/internal/graph"
)

// State tracks a pebble-game execution for the lemma analyses: which
// processors contain which pebbles, who generated what, and when each holder
// first obtained its pebble (for the frontier analysis of Definition 3.16).
//
// State checks no move rule itself. It wraps the sequential core that
// StreamValidator and ValidateSharded run (shard.go), so its verdicts are
// theirs by construction and possession is read from the core's bitset
// rows. After the core accepts a step, State records what the analyses
// query: per pebble, the list of its holders and the list of its
// generators. Pebble (P_i, t) has the dense id t·n + i over the horizon
// [0, T], and both lists are flat arrays indexed by id. See DESIGN.md §2
// ("Pebble state representation").
//
// A rejected step is sticky. The core applies gains during its scan, so
// after a rejection ApplyStep returns the same error on every call and the
// possession queries may reflect part of the rejected step.
type State struct {
	guest *graph.Graph
	host  *graph.Graph
	T     int

	n, m int

	// sv validates every step and owns the possession bitsets.
	sv StreamValidator

	// holders is a per-id singly linked list threaded through holderEntries
	// (newest first), with holderCount the list length. Each entry records
	// the host step at which its processor first held the pebble. Initial
	// pebbles (t = 0) are held by every processor from the start and can
	// never be gained again; they carry count = m and no list entries.
	holderHead    []int32
	holderCount   []int32
	holderEntries []holderEntry

	// generators is the same linked-list layout for Q'_S: one entry per
	// (pebble, processor) pair that executed Generate.
	genHead    []int32
	genCount   []int32
	genEntries []genEntry

	// frontierVals[t] caches the sorted jump points of e_t(·) — the minima
	// over generators of the first-held step — so FrontierSize is a binary
	// search and FrontierThresholdStep a single lookup. frontierStep[t]
	// records the host step the cache was built at; any accepted step
	// invalidates it.
	frontierVals [][]int32
	frontierStep []int
}

type holderEntry struct{ proc, step, next int32 }

type genEntry struct{ proc, next int32 }

// NewState initializes the start configuration: every host processor holds
// all initial pebbles (P_i, 0).
func NewState(guest, host *graph.Graph, T int) *State {
	n, m := guest.N(), host.N()
	numIDs := (T + 1) * n
	st := &State{
		guest:       guest,
		host:        host,
		T:           T,
		n:           n,
		m:           m,
		sv:          StreamValidator{v: newShardedValidator(Spec{Guest: guest, Host: host, T: T}, 1, 1)},
		holderHead:  make([]int32, numIDs),
		holderCount: make([]int32, numIDs),
		genHead:     make([]int32, numIDs),
		genCount:    make([]int32, numIDs),
	}
	for id := 0; id < numIDs; id++ {
		st.holderHead[id] = -1
		st.genHead[id] = -1
	}
	for i := 0; i < n; i++ {
		st.holderCount[i] = int32(m)
	}
	return st
}

// HostStep returns the number of host steps accepted so far.
func (st *State) HostStep() int { return st.sv.Steps() }

// Contains reports whether processor q holds pebble ty.
func (st *State) Contains(q int, ty Type) bool { return st.sv.Holds(q, ty) }

// hasGenerator reports whether some processor generated ty.
func (st *State) hasGenerator(ty Type) bool {
	id, ok := st.sv.v.idOf(ty)
	return ok && st.genCount[id] > 0
}

// addGenerator records that q executed Generate for id; a duplicate
// generation by the same processor is recorded once.
func (st *State) addGenerator(id, q int) {
	for e := st.genHead[id]; e >= 0; e = st.genEntries[e].next {
		if int(st.genEntries[e].proc) == q {
			return
		}
	}
	st.genEntries = append(st.genEntries, genEntry{proc: int32(q), next: st.genHead[id]})
	st.genHead[id] = int32(len(st.genEntries) - 1)
	st.genCount[id]++
}

// ApplyStep validates and applies one host step's operations. The error is
// the bare rule violation; after one, every later call returns it again.
func (st *State) ApplyStep(ops []Op) error {
	return errors.Unwrap(st.apply(ops))
}

// apply runs one step through the core and, once the core accepts it,
// records the step's first gains and generations. Errors keep the core's
// "pebble: host step N:" prefix. A first gain is an op whose processor does
// not hold the pebble before the step, read off the core's bits before the
// core sees the step. Until the verdict it waits at the tail of
// holderEntries with its pebble id in next.
func (st *State) apply(ops []Op) error {
	v := st.sv.v
	step := int32(st.sv.Steps() + 1)
	pending := len(st.holderEntries)
	for _, op := range ops {
		if op.Kind != Generate && op.Kind != Receive || op.Proc < 0 || op.Proc >= st.m {
			continue
		}
		if id, ok := v.idOf(op.Pebble); ok && !v.bit(op.Proc, id) {
			st.holderEntries = append(st.holderEntries, holderEntry{proc: int32(op.Proc), step: step, next: int32(id)})
		}
	}
	if err := st.sv.AppendStep(ops); err != nil {
		st.holderEntries = st.holderEntries[:pending]
		return err
	}
	for e := pending; e < len(st.holderEntries); e++ {
		id := st.holderEntries[e].next
		st.holderEntries[e].next = st.holderHead[id]
		st.holderHead[id] = int32(e)
		st.holderCount[id]++
	}
	for _, op := range ops {
		if op.Kind == Generate {
			st.addGenerator(op.Pebble.T*st.n+op.Pebble.P, op.Proc)
		}
	}
	return nil
}

// stateSink feeds a State from a stream, keeping the core's step-numbered
// errors.
type stateSink struct{ st *State }

func (s stateSink) AppendStep(ops []Op) error { return s.st.apply(ops) }

// Representatives returns Q_S(i, t): the processors holding pebble (P_i, t)
// at the current point of the protocol, sorted.
func (st *State) Representatives(i, t int) []int {
	id, ok := st.sv.v.idOf(Type{P: i, T: t})
	if !ok || st.holderCount[id] == 0 {
		return nil
	}
	if t == 0 {
		all := make([]int, st.m)
		for q := range all {
			all[q] = q
		}
		return all
	}
	out := make([]int, 0, st.holderCount[id])
	for e := st.holderHead[id]; e >= 0; e = st.holderEntries[e].next {
		out = append(out, int(st.holderEntries[e].proc))
	}
	sort.Ints(out)
	return out
}

// Generators returns Q'_S(i, t): the processors that generated (P_i, t+1)
// (necessarily members of Q_S(i, t)), sorted.
func (st *State) Generators(i, t int) []int {
	id, ok := st.sv.v.idOf(Type{P: i, T: t + 1})
	if !ok || st.genCount[id] == 0 {
		return nil
	}
	out := make([]int, 0, st.genCount[id])
	for e := st.genHead[id]; e >= 0; e = st.genEntries[e].next {
		out = append(out, int(st.genEntries[e].proc))
	}
	sort.Ints(out)
	return out
}

// Weight returns q_{i,t} = |Q_S(i,t)| (Definition 3.11).
func (st *State) Weight(i, t int) int {
	id, ok := st.sv.v.idOf(Type{P: i, T: t})
	if !ok {
		return 0
	}
	return int(st.holderCount[id])
}

// TotalWeight returns Σ_i q_{i,t} for one guest time step.
func (st *State) TotalWeight(t int) int {
	if t < 0 || t > st.T {
		return 0
	}
	sum := 0
	for id := t * st.n; id < (t+1)*st.n; id++ {
		sum += int(st.holderCount[id])
	}
	return sum
}

// PebbleCount returns the total number of pebble placements, which is
// bounded by the operation count T'·m in the proof of Lemma 3.12.
func (st *State) PebbleCount() int {
	sum := 0
	for _, c := range st.holderCount {
		sum += int(c)
	}
	return sum
}

// GuestsOnProcessor returns 𝒫(j, t) = {i : j ∈ Q_S(i, t)} — the guest
// processors whose time-t pebble processor j holds (used for the D_i sets
// and the heavy-processor argument of Lemma 3.15).
func (st *State) GuestsOnProcessor(j, t int) []int {
	if t < 0 || t > st.T {
		return nil
	}
	var out []int
	base := t * st.n
	for i := 0; i < st.n; i++ {
		if st.sv.v.bit(j, base+i) {
			out = append(out, i)
		}
	}
	return out
}

// guestsOnCount is |GuestsOnProcessor(j, t)| without the allocation: n
// for t = 0, which every processor holds throughout, and otherwise a
// popcount over the time-t span of j's bitset row, whose ids start at n.
func (st *State) guestsOnCount(j, t int) int {
	if t < 0 || t > st.T {
		return 0
	}
	if t == 0 {
		return st.n
	}
	v := st.sv.v
	lo, hi := (t-1)*st.n, t*st.n
	row := v.contains[j*v.words : (j+1)*v.words]
	count := 0
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		word := row[w]
		if w == lo>>6 {
			word &= ^uint64(0) << (uint(lo) & 63)
		}
		if w == (hi-1)>>6 {
			if r := uint(hi) & 63; r != 0 {
				word &= 1<<r - 1
			}
		}
		count += bits.OnesCount64(word)
	}
	return count
}

// heldSince returns the host step at which q first held pebble id: 0 for
// an initial pebble, otherwise the step in q's entry of the holder list.
func (st *State) heldSince(q int32, id int) (int32, bool) {
	if id < st.n {
		return 0, true
	}
	for e := st.holderHead[id]; e >= 0; e = st.holderEntries[e].next {
		if st.holderEntries[e].proc == q {
			return st.holderEntries[e].step, true
		}
	}
	return 0, false
}

// frontierFor returns the sorted jump points of e_t(·): for each guest i
// with a generating pebble of type (P_i, t), the earliest host step at which
// some eventual generator of (P_i, t+1) first held (P_i, t). Rebuilt lazily
// after each accepted host step, then served from cache.
func (st *State) frontierFor(t int) []int32 {
	if st.frontierVals == nil {
		st.frontierVals = make([][]int32, st.T+1)
		st.frontierStep = make([]int, st.T+1)
		for i := range st.frontierStep {
			st.frontierStep[i] = -1
		}
	}
	if st.frontierStep[t] == st.HostStep() {
		return st.frontierVals[t]
	}
	vals := st.frontierVals[t][:0]
	base := t * st.n
	for i := 0; i < st.n; i++ {
		best := int32(-1)
		for e := st.genHead[base+st.n+i]; e >= 0; e = st.genEntries[e].next {
			if f, ok := st.heldSince(st.genEntries[e].proc, base+i); ok && (best < 0 || f < best) {
				best = f
			}
		}
		if best >= 0 {
			vals = append(vals, best)
		}
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
	st.frontierVals[t] = vals
	st.frontierStep[t] = st.HostStep()
	return vals
}

// FrontierSize returns e_t(τ) of Definition 3.16: the number of guest
// processors i for which a generating pebble of type (P_i, t) exists after τ
// host steps — that is, some processor that (at some point of the protocol)
// generates (P_i, t+1) already holds (P_i, t) by step τ.
func (st *State) FrontierSize(t, τ int) int {
	if t < 0 || t+1 > st.T {
		return 0
	}
	vals := st.frontierFor(t)
	return sort.Search(len(vals), func(k int) bool { return int(vals[k]) > τ })
}

// FrontierThresholdStep returns τ_j of Lemma 3.15: the earliest host step at
// which e_t(τ) ≥ target, or -1 if never reached.
func (st *State) FrontierThresholdStep(t, target, maxStep int) int {
	if maxStep < 0 {
		return -1
	}
	if target <= 0 {
		return 0
	}
	if t < 0 || t+1 > st.T {
		return -1
	}
	vals := st.frontierFor(t)
	if len(vals) < target {
		return -1
	}
	// e_t only grows at the cached jump points, so the earliest step with
	// e_t(τ) ≥ target is the target-th smallest first-held minimum.
	if τ := int(vals[target-1]); τ <= maxStep {
		return τ
	}
	return -1
}
