package pebble

import (
	"errors"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"universalnet/internal/graph"
)

// The streaming pipeline: protocols no longer have to exist as a
// materialized [][]Op to be validated, minimized, replayed, or stored.
// Builders emit host steps through a StepSink as they are scheduled, and
// consumers pull them through a StepSource — so a protocol of 10⁸ operations
// flows through bounded memory. A materialized Protocol remains one
// implementation of both interfaces (Source / ProtocolSink), which is how
// the oracle suite and the small-n analyses keep working unchanged. See
// DESIGN.md §"Streaming protocol pipeline".

// StepSource yields the host steps of a protocol in order. NextStep returns
// io.EOF after the last step; any other error aborts the stream. The
// returned slice is only valid until the next NextStep call — consumers
// that retain steps must copy.
type StepSource interface {
	NextStep() ([]Op, error)
}

// StepSink consumes host steps in order. The ops slice is only valid for
// the duration of the call — sinks that retain steps must copy (ProtocolSink
// and ChunkedLog do).
type StepSink interface {
	AppendStep(ops []Op) error
}

// StepSegmentSink is an optional StepSink extension: one host step delivered
// as ordered sub-slices. The sharded builder's merge stage probes for it so
// sinks that copy anyway (Pipe, ChunkedLog, TeeSink) can consume the
// per-worker segments in place instead of paying an extra concatenation.
// Appending segs must be byte-equivalent to AppendStep on their
// concatenation; the segment slices are only valid for the duration of the
// call.
type StepSegmentSink interface {
	StepSink
	AppendStepSegments(segs [][]Op) error
}

// Spec is the frame of a protocol stream: the graphs and the guest horizon,
// everything a consumer needs that is not in the steps themselves.
type Spec struct {
	Guest *graph.Graph
	Host  *graph.Graph
	T     int
}

// Spec returns the protocol's frame for the stream-based APIs.
func (pr *Protocol) Spec() Spec { return Spec{Guest: pr.Guest, Host: pr.Host, T: pr.T} }

// Source returns a StepSource over the materialized steps.
func (pr *Protocol) Source() StepSource { return &protocolSource{steps: pr.Steps} }

type protocolSource struct {
	steps [][]Op
	next  int
}

func (s *protocolSource) NextStep() ([]Op, error) {
	if s.next >= len(s.steps) {
		return nil, io.EOF
	}
	ops := s.steps[s.next]
	s.next++
	return ops, nil
}

// ProtocolSink materializes a stream into Proto.Steps, copying each step
// into an exact-size slice (no append-growth slack — the same policy the
// builders used before they streamed).
type ProtocolSink struct {
	Proto *Protocol
}

func (s *ProtocolSink) AppendStep(ops []Op) error {
	step := make([]Op, len(ops))
	copy(step, ops)
	s.Proto.Steps = append(s.Proto.Steps, step)
	return nil
}

// TeeSink duplicates a stream into several sinks, in order.
func TeeSink(sinks ...StepSink) StepSink { return &teeSink{sinks: sinks} }

type teeSink struct {
	sinks   []StepSink
	scratch []Op // flattening buffer for children without a segment path
}

func (t *teeSink) AppendStep(ops []Op) error {
	for _, s := range t.sinks {
		if err := s.AppendStep(ops); err != nil {
			return err
		}
	}
	return nil
}

func (t *teeSink) AppendStepSegments(segs [][]Op) error {
	var flat []Op
	flattened := false
	for _, s := range t.sinks {
		if ss, ok := s.(StepSegmentSink); ok {
			if err := ss.AppendStepSegments(segs); err != nil {
				return err
			}
			continue
		}
		if !flattened {
			t.scratch = t.scratch[:0]
			for _, seg := range segs {
				t.scratch = append(t.scratch, seg...)
			}
			flat = t.scratch
			flattened = true
		}
		if err := s.AppendStep(flat); err != nil {
			return err
		}
	}
	return nil
}

// Materialize drains a source into a fresh Protocol — the adapter that lets
// Minimize, StatefulReplay, VerifyCarries and the oracle suite keep working
// unchanged on chunked or piped protocols at small n.
func Materialize(sp Spec, src StepSource) (*Protocol, error) {
	pr := &Protocol{Guest: sp.Guest, Host: sp.Host, T: sp.T}
	if err := drain(src, &ProtocolSink{Proto: pr}); err != nil {
		return nil, err
	}
	return pr, nil
}

// drain feeds every step of src to sink, stopping at the first error.
func drain(src StepSource, sink StepSink) error {
	for {
		ops, err := src.NextStep()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := sink.AppendStep(ops); err != nil {
			return err
		}
	}
}

// ValidateSource replays a stream through a State and returns the final
// state, the one Protocol.Validate returns for materialized steps. Its
// verdicts are StreamValidator's: the same degenerate-spec errors,
// "pebble: host step N: …" for a rejected step, and the same
// final-generator check. It drains src through DrainAhead: for a spec of
// stateAheadMinPebbles pebbles or more the core validates, with the
// source's decode, on a goroutine of its own while the caller's goroutine
// records State's holder and generator lists.
func ValidateSource(sp Spec, src StepSource) (*State, error) {
	if err := checkSpec(sp); err != nil {
		return nil, err
	}
	st := NewState(sp.Guest, sp.Host, sp.T)
	if err := st.sv.DrainAhead(src, stateAheadMinPebbles, st.record); err != nil {
		return nil, err
	}
	if _, err := st.sv.Finish(); err != nil {
		return nil, err
	}
	return st, nil
}

// aheadWindow is how many slots of validated steps DrainAhead's core may
// run ahead of the bookkeeping. A slot holds whole steps, at least
// aheadBatchOps ops of them unless the stream ends there: a hand-off costs
// about a microsecond, as much as validating and accounting a step of a
// dozen ops, so narrow steps travel many to a slot, while a replay step
// of about 460 ops fills one alone.
const (
	aheadWindow   = 16
	aheadBatchOps = 256
)

// stateAheadMinPebbles is the fewest pebbles, T·n, for which
// ValidateSource runs the core ahead of State's lists. Those lists cost
// little beside the core, so running ahead repays its goroutine and
// hand-offs only on large specs. Medians of 5 alternating runs on 2 cores,
// 3-regular guests: on tori of 16 and 64 processors running ahead was
// 2–131% slower than inline from T·n = 192 to 3072, and from 6144 to
// 49,152 between 12% faster and 33% slower; on the d = 7 butterfly
// (m = 896) it was between 24% faster and 3% slower from 8192 to 10⁵, and
// at perfbench replay's 2·10⁵ a pass took 401 → 362 ms (medians of 6).
// Narrow-step specs above the gate may run slower: the tori at 49,152
// read 2–12% slower ahead.
const stateAheadMinPebbles = 1 << 15

// errAheadPanicked ends DrainAhead's pipe when its goroutine panics; the
// drain then raises the panic itself.
var errAheadPanicked = errors.New("pebble: validator goroutine panicked")

// DrainAhead validates every step of src and hands each accepted step,
// with its HeldBefore flags, to account on the caller's goroutine. The
// core runs, with src's NextStep, on a goroutine of its own up to
// aheadWindow slots ahead, so validation overlaps the bookkeeping on two
// cores. The hand-off is a Pipe. The ops and flags passed to account are
// valid only during the call, and account must not touch the validator.
//
// Errors keep the sequential order of a loop that validates each step and
// then calls account: an earlier step's error wins, and a step that fails
// validation never reaches account. The first error stops both sides.
// DrainAhead returns only after its goroutine has exited, so the caller
// may use the validator, Finish included, and src again afterwards. A
// panic in src or the core is raised again on the caller's goroutine,
// where a validation loop's panic would be. A spec of fewer than
// minPebbles pebbles (T·n; a protocol generates each at least once) is
// drained inline, in the same order: a short stream does not repay the
// goroutine and its wake-ups.
func (sv *StreamValidator) DrainAhead(src StepSource, minPebbles int, account func(ops []Op, held []bool) error) error {
	if sv.v.T*sv.v.n >= minPebbles {
		return sv.drainAhead(src, account)
	}
	for {
		ops, err := src.NextStep()
		if err == io.EOF {
			return nil
		}
		if err == nil {
			err = sv.AppendStep(ops)
		}
		if err == nil {
			err = account(ops, sv.HeldBefore())
		}
		if err != nil {
			return err
		}
	}
}

// drainAhead is DrainAhead with the core on a goroutine of its own.
func (sv *StreamValidator) drainAhead(src StepSource, account func(ops []Op, held []bool) error) error {
	p := NewPipe(aheadWindow)
	exited := make(chan struct{})
	var panicked any
	go func() {
		defer close(exited)
		defer func() {
			if panicked = recover(); panicked != nil {
				p.CloseSend(errAheadPanicked)
			}
		}()
		p.CloseSend(sv.validateInto(src, p))
	}()
	defer func() {
		p.CloseRecv()
		<-exited
		if panicked != nil {
			panic(panicked)
		}
	}()
	for {
		s, err := p.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		start := int32(0)
		for _, end := range s.ends {
			if err := account(s.ops[start:end], s.held[start:end]); err != nil {
				return err
			}
			start = end
		}
	}
}

// validateInto validates src step by step and publishes the accepted steps
// with their flags to p, a slot at a time (aheadBatchOps). On the first
// error, a consumer that abandoned p included, it publishes the steps it
// accepted before it and returns the error.
func (sv *StreamValidator) validateInto(src StepSource, p *Pipe) error {
	var s *pipeSlot
	idx := int32(-1)
	for {
		ops, err := src.NextStep()
		if err == nil {
			err = sv.AppendStep(ops)
		}
		if err != nil {
			if idx >= 0 {
				if perr := p.publish(idx); perr != nil {
					return perr
				}
			}
			if err == io.EOF {
				return nil
			}
			return err
		}
		if idx < 0 {
			if idx, err = p.acquireSlot(); err != nil {
				return err
			}
			s = &p.slots[idx]
			s.ops, s.held, s.ends = s.ops[:0], s.held[:0], s.ends[:0]
		}
		s.ops = append(s.ops, ops...)
		s.held = append(s.held, sv.HeldBefore()...)
		s.ends = append(s.ends, int32(len(s.ops)))
		if len(s.ops) >= aheadBatchOps {
			if err := p.publish(idx); err != nil {
				return err
			}
			idx = -1
		}
	}
}

// ErrPipeClosed is returned to a producer whose consumer abandoned the pipe.
var ErrPipeClosed = errors.New("pebble: pipe closed by reader")

// Pipe connects a producer goroutine (StepSink side) to a consumer
// (StepSource side) through a fixed ring of reusable step buffers, so a
// builder and a validator overlap with bounded protocol storage — the
// window is the peak number of steps in flight — and zero steady-state
// allocations per step.
//
// Usage: producer calls AppendStep repeatedly, then CloseSend(err).
// Consumer calls NextStep until io.EOF (or the producer's error). A
// consumer that stops early must call CloseRecv to unblock the producer.
type Pipe struct {
	// MeasureStalls enables wall-clock accounting of time the producer
	// waits on a full window (SendStallNs) and the consumer on an empty
	// one (RecvStallNs), spinning or parked. Off by default: stall times
	// are scheduling-dependent and must stay out of deterministic
	// experiment metrics.
	MeasureStalls bool

	slots  []pipeSlot
	filled chan int32
	free   chan int32
	done   chan struct{}
	err    error // producer's terminal error; read only after filled closes
	cur    int32 // slot lent to the consumer; -1 when none

	closed      atomic.Bool
	recvClosed  atomic.Bool
	sendStallNs atomic.Int64
	recvStallNs atomic.Int64
}

// NewPipe returns a pipe with the given window (minimum 1) of in-flight
// steps.
func NewPipe(window int) *Pipe {
	if window < 1 {
		window = 1
	}
	p := &Pipe{
		slots:  make([]pipeSlot, window),
		filled: make(chan int32, window),
		free:   make(chan int32, window),
		done:   make(chan struct{}),
		cur:    -1,
	}
	for i := 0; i < window; i++ {
		p.free <- int32(i)
	}
	return p
}

// pipeSpins is how many times a side that finds the ring full (producer)
// or empty (consumer) yields with runtime.Gosched and polls again before it
// parks on the channel. With the 8-step window the streaming pipeline's
// callers pass, builder and validator hand the ring back and forth every few
// microseconds, and parking at each turn cost nearly as much as running the
// two stages one after the other. On 2 cores an n = 10⁶ run took 3.9–4.3 s
// with no spin, 3.0–3.2 s at 16 polls and 2.4–2.9 s at 64 to 1024; the bound
// keeps a side from holding a core the other side needs.
const pipeSpins = 64

// acquireSlot takes a free slot, waiting while the window is full, or fails
// once the consumer abandons the pipe. Stall accounting, when enabled,
// covers the whole wait, spin included.
func (p *Pipe) acquireSlot() (int32, error) {
	select {
	case idx := <-p.free:
		return idx, nil
	default:
	}
	var t0 time.Time
	if p.MeasureStalls {
		t0 = time.Now()
	}
	idx, err := p.waitFree()
	if p.MeasureStalls && err == nil {
		p.sendStallNs.Add(time.Since(t0).Nanoseconds())
	}
	return idx, err
}

// waitFree takes a free slot once the ring was found full: pipeSpins polls
// between yields, then a blocking receive on the same channels, so no
// returned slot and no CloseRecv can be missed.
func (p *Pipe) waitFree() (int32, error) {
	for spin := 0; spin < pipeSpins; spin++ {
		runtime.Gosched()
		select {
		case idx := <-p.free:
			return idx, nil
		case <-p.done:
			return 0, ErrPipeClosed
		default:
		}
	}
	select {
	case idx := <-p.free:
		return idx, nil
	case <-p.done:
		return 0, ErrPipeClosed
	}
}

// pipeSlot is one buffer of the ring: a step on a builder's pipe. On
// DrainAhead's it holds several whole steps, step k being
// ops[ends[k-1]:ends[k]], with the validator's per-op prior-possession
// flags in held.
type pipeSlot struct {
	ops  []Op
	held []bool
	ends []int32
}

// AppendStep copies ops into a free slot and publishes it. It blocks while
// the window is full and returns ErrPipeClosed if the consumer called
// CloseRecv.
func (p *Pipe) AppendStep(ops []Op) error {
	idx, err := p.acquireSlot()
	if err != nil {
		return err
	}
	s := &p.slots[idx]
	s.ops = append(s.ops[:0], ops...)
	return p.publish(idx)
}

// AppendStepSegments publishes one step given as ordered sub-slices,
// copying them into a single slot — the multi-producer merge's zero-extra-
// copy path.
func (p *Pipe) AppendStepSegments(segs [][]Op) error {
	idx, err := p.acquireSlot()
	if err != nil {
		return err
	}
	s := &p.slots[idx]
	s.ops = s.ops[:0]
	for _, seg := range segs {
		s.ops = append(s.ops, seg...)
	}
	return p.publish(idx)
}

// publish hands a filled slot to the consumer.
func (p *Pipe) publish(idx int32) error {
	select {
	case p.filled <- idx:
	case <-p.done:
		return ErrPipeClosed
	}
	return nil
}

// CloseSend ends the stream. A nil err means a clean end (the consumer sees
// io.EOF); otherwise the consumer's next NextStep returns err.
func (p *Pipe) CloseSend(err error) {
	if p.closed.CompareAndSwap(false, true) {
		p.err = err
		close(p.filled)
	}
}

// NextStep returns the next step. The slice is valid until the following
// NextStep call.
func (p *Pipe) NextStep() ([]Op, error) {
	s, err := p.next()
	if err != nil {
		return nil, err
	}
	return s.ops, nil
}

// next returns the next published slot, which stays lent to the consumer
// until the following call.
func (p *Pipe) next() (*pipeSlot, error) {
	if p.cur >= 0 {
		select {
		case p.free <- p.cur:
		case <-p.done:
		}
		p.cur = -1
	}
	var idx int32
	var ok bool
	select {
	case idx, ok = <-p.filled:
	default:
		var t0 time.Time
		if p.MeasureStalls {
			t0 = time.Now()
		}
		idx, ok = p.waitFilled()
		if p.MeasureStalls {
			p.recvStallNs.Add(time.Since(t0).Nanoseconds())
		}
	}
	if !ok {
		if p.err != nil {
			return nil, p.err
		}
		return nil, io.EOF
	}
	p.cur = idx
	return &p.slots[idx], nil
}

// waitFilled receives the next published slot once the ring was found
// empty: pipeSpins polls between yields, then a blocking receive on the same
// channel, so no publication can be missed.
func (p *Pipe) waitFilled() (idx int32, ok bool) {
	for spin := 0; spin < pipeSpins; spin++ {
		runtime.Gosched()
		select {
		case idx, ok = <-p.filled:
			return idx, ok
		default:
		}
	}
	idx, ok = <-p.filled
	return idx, ok
}

// CloseRecv abandons the consumer side, unblocking a producer stuck on a
// full window. Idempotent.
func (p *Pipe) CloseRecv() {
	if p.recvClosed.CompareAndSwap(false, true) {
		close(p.done)
	}
}

// Stalls reports the accumulated producer/consumer blocking time in
// nanoseconds. Zero unless MeasureStalls was set before use.
func (p *Pipe) Stalls() (sendNs, recvNs int64) {
	return p.sendStallNs.Load(), p.recvStallNs.Load()
}
