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

// ValidateSource replays a stream through a State, exactly as
// Protocol.Validate does for materialized steps, and returns the final
// state. Its verdicts are StreamValidator's: the same degenerate-spec
// errors, "pebble: host step N: …" for a rejected step, and the same
// final-generator check.
func ValidateSource(sp Spec, src StepSource) (*State, error) {
	if err := checkSpec(sp); err != nil {
		return nil, err
	}
	st := NewState(sp.Guest, sp.Host, sp.T)
	if err := drain(src, stateSink{st}); err != nil {
		return nil, err
	}
	if _, err := st.sv.Finish(); err != nil {
		return nil, err
	}
	return st, nil
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

	slots  [][]Op
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
		slots:  make([][]Op, window),
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

// AppendStep copies ops into a free slot and publishes it. It blocks while
// the window is full and returns ErrPipeClosed if the consumer called
// CloseRecv.
func (p *Pipe) AppendStep(ops []Op) error {
	idx, err := p.acquireSlot()
	if err != nil {
		return err
	}
	buf := p.slots[idx][:0]
	buf = append(buf, ops...)
	p.slots[idx] = buf
	select {
	case p.filled <- idx:
	case <-p.done:
		return ErrPipeClosed
	}
	return nil
}

// AppendStepSegments publishes one step given as ordered sub-slices,
// copying them into a single slot — the multi-producer merge's zero-extra-
// copy path.
func (p *Pipe) AppendStepSegments(segs [][]Op) error {
	idx, err := p.acquireSlot()
	if err != nil {
		return err
	}
	buf := p.slots[idx][:0]
	for _, seg := range segs {
		buf = append(buf, seg...)
	}
	p.slots[idx] = buf
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
	return p.slots[idx], nil
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
