package pebble

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"universalnet/internal/graph"
	"universalnet/internal/obs"
)

// Sharded streaming validation. The per-processor possession bitsets are
// independent by construction (PR 5's dense layout): every Generate and
// Send check reads only the acting processor's row, and every gain writes
// only the gaining processor's row. So validation shards by processor —
// shard s owns the contiguous processor range [s·m/S, (s+1)·m/S) — with a
// barrier as the only synchronization point. Send/receive matching crosses
// shards, but sends are unique per sender and receives unique per receiver
// (the one-op rule), so a (step, proc)-indexed, stamped table gives O(ops)
// matching with no locks: senders write their own slots in phase 1,
// receivers read them after the barrier in phase 2.
//
// Barriers are windowed: the coordinator buffers up to Window host steps,
// and one 4-barrier round validates the whole batch — per-step
// synchronization cost amortizes by the window size. Windowing is sound
// because gains are applied optimistically during the scan: a shard's scan
// of window step j sees exactly the possessions the sequential engine would
// at step j, since gains only ever touch the gaining processor's own row
// and each row is scanned by exactly one shard in step order. A wrong
// ACCEPT is therefore impossible; for a wrong ERROR, optimism can at worst
// manufacture errors at steps after a genuine one (a shard freezing at its
// first error stops consuming sends, say), so the verdict picks the
// lexicographically smallest (step, class, opIdx) across shards — provably
// the error the sequential engine reports. The equivalence suite pins this
// across shard counts and window sizes.
//
// With one shard and a one-step window, the same scan/match/settle code is
// the sequential engine: StreamValidator runs it, and State wraps a
// StreamValidator, so this file holds the only implementation of the move
// rules. The validator keeps only the "lite" state — possession bitsets
// plus a generated-pebble bitset — not State's holder and generator lists.
// That is what makes n = 10⁶ fit in RAM: memory is m·T·n/8 bytes of
// bitsets, independent of the number of operations. The t = 0 pebbles are
// not stored: every processor holds them from the start and possession
// never ends, so their bits would be constant. The oracle equivalence
// suite checks the rules against an independent map-based engine.

// StreamStats summarizes a successfully validated stream.
type StreamStats struct {
	HostSteps  int
	Ops        int64
	Generates  int64
	Sends      int64
	Receives   int64
	MaxStepOps int
}

// Slowdown returns HostSteps/T for the validated horizon.
func (s *StreamStats) Slowdown(T int) float64 {
	if T == 0 {
		return 0
	}
	return float64(s.HostSteps) / float64(T)
}

// defaultBarrierWindow is the parallel validator's host-steps-per-barrier-
// round when ShardedOptions.Window is unset. Big-n steps are microseconds
// of work; 16 of them per 4-barrier round keeps synchronization under a
// percent of the step cost without letting the window arena grow past a
// few hundred KiB.
const defaultBarrierWindow = 16

// ShardedOptions configures ValidateSharded.
type ShardedOptions struct {
	// Shards is the number of parallel validation shards; values < 1 (and
	// values above the host size) are clamped. 1 runs inline with no
	// goroutines.
	Shards int
	// Window is the number of host steps validated per barrier round when
	// Shards > 1; values < 1 mean defaultBarrierWindow. Verdicts are
	// window-size-independent (see the package comment); only the
	// synchronization amortization changes.
	Window int
	// Obs, when non-nil, receives deterministic stream counters (steps, ops
	// by kind) — schedule-independent by construction, so experiment
	// metrics stay byte-identical across shard counts and window sizes.
	Obs *obs.Registry
}

// error classes, in the sequential engine's precedence order: any op-scan
// error beats any unmatched-receive error beats any unmatched-send error,
// because a one-step window scans all ops before matching and matches
// receives before checking leftover sends. Across a window, an earlier
// step's error of any class beats a later step's: the sequential engine
// never reaches the later step. Within a class the smallest op index wins —
// exactly the op the sequential engine would have tripped on first.
const (
	errClassNone = iota
	errClassScan
	errClassRecv
	errClassSend
)

// winError is a shard's best (earliest) error for the current window,
// ordered lexicographically by (step, class, opIdx). step is the global
// 1-based host step; 0 means no error.
type winError struct {
	step  int
	class int
	opIdx int
	err   error
}

func (e winError) before(o winError) bool {
	if e.step != o.step {
		return e.step < o.step
	}
	if e.class != o.class {
		return e.class < o.class
	}
	return e.opIdx < o.opIdx
}

type recvRec struct {
	j     int32 // window step index
	opIdx int32
	proc  int32
	peer  int
	pb    Type
}

type shardedValidator struct {
	sp      Spec
	n, m, T int
	words   int // per contains row: T·n bits, for the ids n … (T+1)·n−1
	win     int // max host steps per barrier round

	contains  []uint64 // m rows × words, owner-partitioned writes
	busyStamp []int32  // per processor, owner-only

	// Per-(window-step, sender) send table, slot j·m+q. Written by the
	// sender's shard in phase 1, read (and consumed) by receiver shards in
	// phase 2 after the barrier. A slot is live iff its stamp equals
	// stampOf(j).
	sendStamp    []int32
	sendTo       []int32
	sendID       []int32
	sendOpIdx    []int32
	sendConsumed []int32

	shardOf []int32 // processor → owning shard

	// The published window: winSteps steps flattened into winOps, step j
	// being winOps[winStart[j]:winStart[j+1]]. In the sequential path
	// winOps aliases the caller's step; the parallel coordinator copies
	// steps into a reused arena before the publish barrier. stepBase is
	// the number of host steps fully validated before this window.
	winOps   []Op
	winStart []int32
	winSteps int
	stepBase int
	done     bool

	sh []shardState // one per shard; each written only by its own shard

	barrier spinBarrier
}

// shardState is everything a shard writes while it scans, matches and
// settles, which it does on every op it owns. The trailing pad keeps two
// shards' fields at least 128 bytes apart whatever the slice's alignment,
// so no cache line, nor an adjacent-line prefetch pair, holds the state of
// two shards.
type shardState struct {
	// Window results, reset at scan entry: the shard's earliest error, its
	// receives, and the send-table slots it registered, both in (step, op)
	// order.
	err   winError
	recvs []recvRec
	sends []int32

	generated []uint64 // (T+1)·n bits of "was generated" by this shard

	genCount, sendCount, recvCount int64

	_ [128]byte
}

// spinBarrier is a sense-counting barrier for shards+coordinator. Rounds
// are microseconds of work, so spinning with Gosched beats channel wakeups
// by a wide margin; the atomics carry the happens-before edges the phases
// need.
type spinBarrier struct {
	n     int32
	count atomic.Int32
	gen   atomic.Uint32
}

func (b *spinBarrier) wait() {
	g := b.gen.Load()
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.gen.Add(1)
		return
	}
	for b.gen.Load() == g {
		runtime.Gosched()
	}
}

// checkSpec rejects degenerate specs that the dense layout cannot represent
// (nil graphs, zero processors, negative horizons) with a graceful error
// instead of an index panic deep in the bitset setup.
func checkSpec(sp Spec) error {
	if sp.Guest == nil {
		return fmt.Errorf("pebble: stream spec: nil guest graph")
	}
	if sp.Host == nil {
		return fmt.Errorf("pebble: stream spec: nil host graph")
	}
	if sp.Host.N() == 0 {
		return fmt.Errorf("pebble: stream spec: host has no processors")
	}
	if sp.T < 0 {
		return fmt.Errorf("pebble: stream spec: negative horizon T=%d", sp.T)
	}
	return nil
}

// maxDecodedSpecBytes is the decoder ceiling: the most validation state a
// decoded spec may need. Validating n guests on m hosts to horizon T takes
// (T+1)·n pebble ids, and each id costs m/8 bytes of possession bits plus
// 16 bytes of State's holder and generator tables. The ceiling prices
// every id so, though the validator stores no possession bits for the n
// ids of t = 0, which every processor holds from the start; it is
// conservative by m·n/8 bytes. 1.25 GiB admits every spec the repository
// builds — bigsim's largest, n = 10⁶ on m = 160 at T = 2, counts 108 MB,
// and the out-of-core ladder's n = 10⁷ counts 1.08 GB.
const maxDecodedSpecBytes = 5 << 28

// checkDecodedSpec rejects a decoded spec of n guests, m hosts and horizon
// T that validation could not size: a vertex count outside the decoder
// cap, a negative horizon, or (T+1)·n ids needing more than
// maxDecodedSpecBytes. Both protocol decoders call it before they return a
// spec, so (T+1)·n and m·(T+1)·n cannot overflow in a validator.
func checkDecodedSpec(n, m, T int) error {
	if err := graph.CheckVertexCount(n); err != nil {
		return fmt.Errorf("pebble: guest graph: %w", err)
	}
	if err := graph.CheckVertexCount(m); err != nil {
		return fmt.Errorf("pebble: host graph: %w", err)
	}
	if T < 0 {
		return fmt.Errorf("pebble: negative horizon T=%d", T)
	}
	// An id costs (m+128)/8 bytes. Dividing the budget, instead of
	// multiplying the counts, forms no product that could wrap:
	// (T+1)·max(n,1) ≤ maxIDs exactly when T < maxIDs/max(n,1).
	maxIDs := int64(8*maxDecodedSpecBytes) / int64(m+128)
	if int64(T) >= maxIDs/int64(max(n, 1)) {
		return fmt.Errorf("pebble: n=%d guests on m=%d hosts to T=%d need more than the %d-byte validation ceiling",
			n, m, T, maxDecodedSpecBytes)
	}
	return nil
}

// ValidateSharded replays a protocol stream against the lite sharded state
// and returns its stats. With one shard it drains a StreamValidator — the
// sequential core that State also wraps. With more, verdicts are
// byte-identical to that core's (errors wrapped as "pebble: host step %d:
// ..."), and so is the final-generator check. Source errors are returned
// verbatim.
func ValidateSharded(sp Spec, src StepSource, opts ShardedOptions) (*StreamStats, error) {
	if err := checkSpec(sp); err != nil {
		return nil, err
	}
	shards := min(max(opts.Shards, 1), sp.Host.N())
	var stats *StreamStats
	if shards == 1 {
		sv := &StreamValidator{v: newShardedValidator(sp, 1, 1)}
		if err := drain(src, sv); err != nil {
			return nil, err
		}
		var err error
		if stats, err = sv.Finish(); err != nil {
			return nil, err
		}
	} else {
		window := opts.Window
		if window < 1 {
			window = defaultBarrierWindow
		}
		v := newShardedValidator(sp, shards, window)
		stats = &StreamStats{}
		if err := v.runParallel(src, stats); err != nil {
			return nil, err
		}
		if err := v.finish(stats); err != nil {
			return nil, err
		}
	}
	observeStream(opts.Obs, stats)
	return stats, nil
}

// newShardedValidator builds the state for shards processor ranges and
// window-step barrier rounds. Callers pass 1 ≤ shards ≤ max(m, 1) and
// window ≥ 1; a zero-processor host (State accepts one) gets one empty
// shard, so every op it sees is out of range.
func newShardedValidator(sp Spec, shards, window int) *shardedValidator {
	n, m := sp.Guest.N(), sp.Host.N()
	words := (sp.T*n + 63) / 64
	v := &shardedValidator{
		sp:    sp,
		n:     n,
		m:     m,
		T:     sp.T,
		words: words,
		win:   window,

		contains:  make([]uint64, m*words),
		busyStamp: make([]int32, m),

		sendStamp:    make([]int32, m*window),
		sendTo:       make([]int32, m*window),
		sendID:       make([]int32, m*window),
		sendOpIdx:    make([]int32, m*window),
		sendConsumed: make([]int32, m*window),

		shardOf: make([]int32, m),

		winStart: make([]int32, window+1),

		sh: make([]shardState, shards),
	}
	for s := range v.sh {
		lo, hi := s*m/shards, (s+1)*m/shards
		for q := lo; q < hi; q++ {
			v.shardOf[q] = int32(s)
		}
		v.sh[s].generated = make([]uint64, ((sp.T+1)*n+63)/64)
		// An owned processor registers at most one send per step.
		v.sh[s].sends = make([]int32, 0, (hi-lo)*window)
	}
	return v
}

// finish runs the final-generator check (merged across shard bitsets) and
// folds the per-shard op counters into stats.
func (v *shardedValidator) finish(stats *StreamStats) error {
	base := v.T * v.n
	for i := 0; i < v.n; i++ {
		id := base + i
		found := false
		for s := range v.sh {
			if v.sh[s].generated[id>>6]&(1<<(uint(id)&63)) != 0 {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("pebble: final pebble (P%d,t%d) never generated", i, v.T)
		}
	}
	for s := range v.sh {
		stats.Generates += v.sh[s].genCount
		stats.Sends += v.sh[s].sendCount
		stats.Receives += v.sh[s].recvCount
	}
	return nil
}

func observeStream(reg *obs.Registry, stats *StreamStats) {
	if reg == nil {
		return
	}
	reg.Counter("pebble.stream.validations").Inc()
	reg.Counter("pebble.stream.host_steps").Add(int64(stats.HostSteps))
	reg.Counter("pebble.stream.ops").Add(stats.Ops)
	reg.Counter("pebble.stream.ops.generate").Add(stats.Generates)
	reg.Counter("pebble.stream.ops.send").Add(stats.Sends)
	reg.Counter("pebble.stream.ops.receive").Add(stats.Receives)
	reg.Gauge("pebble.stream.max_step_ops").SetMax(int64(stats.MaxStepOps))
}

// StreamValidator is the sequential legality engine: an explicit push-style
// StepSink that validates one host step per AppendStep call against the
// lite bitset state. It is the only sequential implementation of the move
// rules. ValidateSharded drains one when it runs a single shard, State
// wraps one and records its analysis tables after each accepted step, and
// cost-model layers (internal/redblue) embed one so their replay can
// interleave accounting with validation without re-buffering the stream.
// Verdicts — per-step errors and the Finish-time final-generator check —
// are byte-identical to the parallel ValidateSharded (see the package
// comment).
type StreamValidator struct {
	v     *shardedValidator
	stats StreamStats
	err   error
}

// NewStreamValidator builds an incremental validator for sp, rejecting
// degenerate specs (nil graphs, zero processors, negative horizons).
func NewStreamValidator(sp Spec) (*StreamValidator, error) {
	if err := checkSpec(sp); err != nil {
		return nil, err
	}
	return &StreamValidator{v: newShardedValidator(sp, 1, 1)}, nil
}

// AppendStep validates one host step. The ops slice is only read during the
// call. After the first error every subsequent call returns the same error.
func (sv *StreamValidator) AppendStep(ops []Op) error {
	if sv.err != nil {
		return sv.err
	}
	if err := sv.v.applyStepSeq(ops); err != nil {
		sv.err = err
		return err
	}
	sv.v.recordStep(&sv.stats, len(ops))
	return nil
}

// Steps reports the number of host steps validated so far.
func (sv *StreamValidator) Steps() int { return sv.stats.HostSteps }

// Holds reports whether processor q holds pebble pb after the steps
// validated so far. An out-of-range processor or pebble holds nothing.
// After a rejected step the answer may reflect part of that step.
func (sv *StreamValidator) Holds(q int, pb Type) bool {
	id, ok := sv.v.idOf(pb)
	return ok && q >= 0 && q < sv.v.m && sv.v.bit(q, id)
}

// Finish runs the final-generator check and returns the stream stats. The
// validator is spent afterwards.
func (sv *StreamValidator) Finish() (*StreamStats, error) {
	if sv.err != nil {
		return nil, sv.err
	}
	stats := sv.stats
	if err := sv.v.finish(&stats); err != nil {
		sv.err = err
		return nil, err
	}
	return &stats, nil
}

// applyStepSeq validates one step inline (single-shard window of one step,
// no barrier). The step ops are aliased, not copied.
func (v *shardedValidator) applyStepSeq(ops []Op) error {
	v.winOps = ops
	v.winStart[0] = 0
	v.winStart[1] = int32(len(ops))
	v.winSteps = 1
	v.scanWindow(0)
	v.matchWindow(0)
	v.settleWindow(0)
	err := v.windowVerdict()
	if err == nil {
		v.stepBase++
	}
	v.winOps = nil
	return err
}

// stampOf is the liveness stamp of window step j: its global 1-based host
// step number, which is unique across the run and shared by every table
// keyed on it (busyStamp, send slots).
func (v *shardedValidator) stampOf(j int) int32 {
	return int32(v.stepBase + j + 1)
}

// fillWindow copies up to v.win steps from src into the window arena.
// Returns the number of steps buffered; a non-nil error (io.EOF included)
// means the stream ended after those steps.
func (v *shardedValidator) fillWindow(src StepSource) (int, error) {
	v.winOps = v.winOps[:0]
	v.winSteps = 0
	for v.winSteps < v.win {
		ops, err := src.NextStep()
		if err != nil {
			return v.winSteps, err
		}
		v.winOps = append(v.winOps, ops...)
		v.winSteps++
		v.winStart[v.winSteps] = int32(len(v.winOps))
	}
	return v.winSteps, nil
}

func (v *shardedValidator) runParallel(src StepSource, stats *StreamStats) error {
	v.barrier.n = int32(len(v.sh)) // coordinator doubles as shard 0
	v.winStart[0] = 0
	var wg sync.WaitGroup
	for s := 1; s < len(v.sh); s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for {
				v.barrier.wait() // window published (or done)
				if v.done {
					return
				}
				v.scanWindow(s)
				v.barrier.wait() // all sends registered, all gains applied
				v.matchWindow(s)
				v.barrier.wait() // all consumption settled
				v.settleWindow(s)
				v.barrier.wait() // window verdicts readable
			}
		}(s)
	}
	var runErr error
	for {
		k, srcErr := v.fillWindow(src)
		if srcErr != nil && srcErr != io.EOF {
			runErr = srcErr
		}
		if k == 0 {
			v.done = true
			v.barrier.wait()
			break
		}
		v.barrier.wait() // publish the window
		v.scanWindow(0)
		v.barrier.wait()
		v.matchWindow(0)
		v.barrier.wait()
		v.settleWindow(0)
		v.barrier.wait()
		if err := v.windowVerdict(); err != nil {
			runErr = err
			v.done = true
			v.barrier.wait() // release workers into the exit check
			break
		}
		for j := 0; j < k; j++ {
			v.recordStep(stats, int(v.winStart[j+1]-v.winStart[j]))
		}
		v.stepBase += k
		if srcErr != nil {
			v.done = true
			v.barrier.wait()
			break
		}
	}
	wg.Wait()
	return runErr
}

func (v *shardedValidator) recordStep(stats *StreamStats, opCount int) {
	stats.HostSteps++
	stats.Ops += int64(opCount)
	if opCount > stats.MaxStepOps {
		stats.MaxStepOps = opCount
	}
}

// windowVerdict selects the deterministic error of the just-validated
// window: smallest (step, class, opIdx) across shards — the error the
// sequential engine reports (see the class comment).
func (v *shardedValidator) windowVerdict() error {
	best := winError{}
	for s := range v.sh {
		e := v.sh[s].err
		if e.step == 0 {
			continue
		}
		if best.step == 0 || e.before(best) {
			best = e
		}
	}
	if best.step == 0 {
		return nil
	}
	return fmt.Errorf("pebble: host step %d: %w", best.step, best.err)
}

// bit reports whether processor q holds pebble id. The start
// configuration is implicit: every processor holds every (P_i, 0), id < n,
// and a row stores only the ids from n on.
func (v *shardedValidator) bit(q, id int) bool {
	if id < v.n {
		return true
	}
	id -= v.n
	return v.contains[q*v.words+id>>6]&(1<<(uint(id)&63)) != 0
}

func (v *shardedValidator) setBit(q, id int) {
	if id < v.n {
		return
	}
	id -= v.n
	v.contains[q*v.words+id>>6] |= 1 << (uint(id) & 63)
}

func (v *shardedValidator) idOf(pb Type) (int, bool) {
	if pb.P < 0 || pb.P >= v.n || pb.T < 0 || pb.T > v.T {
		return 0, false
	}
	return pb.T*v.n + pb.P, true
}

// ownerOf routes out-of-range processors to shard 0, which then reports the
// same out-of-range error the sequential engine does.
func (v *shardedValidator) ownerOf(proc int) int {
	if proc < 0 || proc >= v.m {
		return 0
	}
	return int(v.shardOf[proc])
}

func (sh *shardState) fail(step, class, opIdx int, err error) {
	e := winError{step: step, class: class, opIdx: opIdx, err: err}
	if sh.err.step == 0 || e.before(sh.err) {
		sh.err = e
	}
}

// scanWindow is phase 1: per-op checks, send registration, and optimistic
// gains for every step of the window, restricted to ops whose processor the
// shard owns, in (step, op) order. Gains (Generate results and Receive
// pebbles) are applied to the possession bitsets immediately: they touch
// only the gaining processor's row, which only this shard scans, so within
// the shard step j+1 sees exactly the sequential engine's state — and
// unverified Receive gains are safe because a failed match always records
// an error that aborts the stream before the state is observed again. On
// the shard's first error the scan stops: later ops of this shard are
// unreachable for the sequential engine too, and cross-shard effects are
// screened by the (step, class) ordering.
func (v *shardedValidator) scanWindow(s int) {
	sh := &v.sh[s]
	sh.err = winError{}
	sh.recvs = sh.recvs[:0]
	sh.sends = sh.sends[:0]
	for j := 0; j < v.winSteps; j++ {
		ops := v.winOps[v.winStart[j]:v.winStart[j+1]]
		stamp := v.stampOf(j)
		jm := j * v.m
		for oi := range ops {
			op := &ops[oi]
			if v.ownerOf(op.Proc) != s {
				continue
			}
			if op.Proc < 0 || op.Proc >= v.m {
				sh.fail(int(stamp), errClassScan, oi, fmt.Errorf("processor %d out of range", op.Proc))
				return
			}
			if v.busyStamp[op.Proc] == stamp {
				sh.fail(int(stamp), errClassScan, oi, fmt.Errorf("processor %d performs two operations", op.Proc))
				return
			}
			v.busyStamp[op.Proc] = stamp
			switch op.Kind {
			case Generate:
				if err := v.checkGenerate(op.Proc, op.Pebble); err != nil {
					sh.fail(int(stamp), errClassScan, oi, err)
					return
				}
				id := op.Pebble.T*v.n + op.Pebble.P
				sh.generated[id>>6] |= 1 << (uint(id) & 63)
				v.setBit(op.Proc, id)
				sh.genCount++
			case Send:
				if !v.sp.Host.HasEdge(op.Proc, op.Peer) {
					sh.fail(int(stamp), errClassScan, oi, fmt.Errorf("send %v along non-edge %d→%d", op.Pebble, op.Proc, op.Peer))
					return
				}
				id, ok := v.idOf(op.Pebble)
				if !ok || !v.bit(op.Proc, id) {
					sh.fail(int(stamp), errClassScan, oi, fmt.Errorf("processor %d sends pebble %v it does not hold", op.Proc, op.Pebble))
					return
				}
				slot := jm + op.Proc
				v.sendStamp[slot] = stamp
				v.sendTo[slot] = int32(op.Peer)
				v.sendID[slot] = int32(id)
				v.sendOpIdx[slot] = int32(oi)
				sh.sends = append(sh.sends, int32(slot))
				sh.sendCount++
			case Receive:
				sh.recvs = append(sh.recvs, recvRec{
					j: int32(j), opIdx: int32(oi), proc: int32(op.Proc), peer: op.Peer, pb: op.Pebble,
				})
				if id, ok := v.idOf(op.Pebble); ok {
					v.setBit(op.Proc, id)
				}
				sh.recvCount++
			default:
				sh.fail(int(stamp), errClassScan, oi, fmt.Errorf("unknown op kind %v", op.Kind))
				return
			}
		}
	}
}

// matchWindow is phase 2: match the shard's receives against the global
// send table, in (step, op) order. Matching is order-independent — a send's
// destination and pebble identify its unique receiver — so concurrent
// consumption is race-free: each consumed slot is written by exactly one
// shard. The shard stops at its first unmatched receive; sends left
// unconsumed by the stop can only produce settle errors at the same step or
// later, which the verdict ordering screens.
func (v *shardedValidator) matchWindow(s int) {
	sh := &v.sh[s]
	for _, r := range sh.recvs {
		stamp := v.stampOf(int(r.j))
		matched := false
		if id, ok := v.idOf(r.pb); ok {
			from := r.peer
			if from >= 0 && from < v.m {
				slot := int(r.j)*v.m + from
				if v.sendStamp[slot] == stamp &&
					v.sendTo[slot] == r.proc &&
					v.sendID[slot] == int32(id) &&
					v.sendConsumed[slot] != stamp {
					v.sendConsumed[slot] = stamp
					matched = true
				}
			}
		}
		if !matched {
			sh.fail(int(stamp), errClassRecv, int(r.opIdx),
				fmt.Errorf("processor %d receives %v from %d without a matching send", r.proc, r.pb, r.peer))
			return
		}
	}
}

// settleWindow is phase 3: report the shard's first unmatched send in
// (step, op) order — earliest step first, smallest op index within the
// step, the sequential engine's pick. A slot is consumed iff phase 2 wrote
// its own step's stamp into sendConsumed.
func (v *shardedValidator) settleWindow(s int) {
	sh := &v.sh[s]
	for _, slot := range sh.sends {
		stamp := v.sendStamp[slot]
		if v.sendConsumed[slot] == stamp {
			continue
		}
		id := int(v.sendID[slot])
		pb := Type{P: id % v.n, T: id / v.n}
		sh.fail(int(stamp), errClassSend, int(v.sendOpIdx[slot]),
			fmt.Errorf("send of %v from %d to %d has no matching receive", pb, int(slot)%v.m, v.sendTo[slot]))
		return
	}
}

func (v *shardedValidator) checkGenerate(q int, ty Type) error {
	if ty.T < 1 || ty.T > v.T {
		return fmt.Errorf("generate %v outside guest horizon [1,%d]", ty, v.T)
	}
	if ty.P < 0 || ty.P >= v.n {
		return fmt.Errorf("generate %v: no such guest processor", ty)
	}
	base := (ty.T - 1) * v.n
	if !v.bit(q, base+ty.P) {
		return fmt.Errorf("generate %v on %d: missing predecessor %v", ty, q, Type{P: ty.P, T: ty.T - 1})
	}
	for _, j := range v.sp.Guest.Neighbors(ty.P) {
		if !v.bit(q, base+j) {
			return fmt.Errorf("generate %v on %d: missing predecessor %v", ty, q, Type{P: j, T: ty.T - 1})
		}
	}
	return nil
}
