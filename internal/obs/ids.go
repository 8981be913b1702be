package obs

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"
)

// This file adds distributed-trace identity to the span layer: 128-bit
// trace IDs, 64-bit span IDs, a SplitMix64-backed IDSource (deterministic
// under a fixed seed, which is what tests pin), context carriage for the
// current span, and the wire format of the X-Uninet-Trace header that
// carries a trace across cluster forwards. IDs are identity only — they
// never enter a deterministic Snapshot, matching the rule that wall-clock
// (and now identity) flows exclusively through the span channel.

// TraceID identifies one end-to-end request across every node it touches.
// The zero value means "no trace".
type TraceID struct {
	Hi, Lo uint64
}

// IsZero reports whether t is the absent trace.
func (t TraceID) IsZero() bool { return t.Hi == 0 && t.Lo == 0 }

// String renders the canonical 32-hex-digit form.
func (t TraceID) String() string {
	return fmt.Sprintf("%016x%016x", t.Hi, t.Lo)
}

// ParseTraceID parses the canonical 32-hex-digit form.
func ParseTraceID(s string) (TraceID, error) {
	if len(s) != 32 {
		return TraceID{}, fmt.Errorf("obs: trace id %q is not 32 hex digits", s)
	}
	hi, err := strconv.ParseUint(s[:16], 16, 64)
	if err != nil {
		return TraceID{}, fmt.Errorf("obs: bad trace id %q: %v", s, err)
	}
	lo, err := strconv.ParseUint(s[16:], 16, 64)
	if err != nil {
		return TraceID{}, fmt.Errorf("obs: bad trace id %q: %v", s, err)
	}
	return TraceID{Hi: hi, Lo: lo}, nil
}

// SpanID identifies one span within a trace. Zero means "no span".
type SpanID uint64

// String renders the canonical 16-hex-digit form.
func (s SpanID) String() string { return fmt.Sprintf("%016x", uint64(s)) }

// ParseSpanID parses the canonical 16-hex-digit form.
func ParseSpanID(s string) (SpanID, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("obs: span id %q is not 16 hex digits", s)
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad span id %q: %v", s, err)
	}
	return SpanID(v), nil
}

// SpanContext is the propagated identity of the current span: the trace it
// belongs to and the span itself (the parent of anything started under it).
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context names a trace at all.
func (sc SpanContext) Valid() bool { return !sc.Trace.IsZero() }

// HeaderValue renders the X-Uninet-Trace wire form: "<trace32>-<span16>",
// or just "<trace32>" when no span is set.
func (sc SpanContext) HeaderValue() string {
	if sc.Span == 0 {
		return sc.Trace.String()
	}
	return sc.Trace.String() + "-" + sc.Span.String()
}

// ParseSpanContext parses the X-Uninet-Trace wire form ("<trace32>" or
// "<trace32>-<span16>"). ok is false for "", for malformed values and for
// the all-zero trace ID, which names no trace: a span parented under it
// would start a fresh trace whose parent no span carries. Propagation must
// degrade to a fresh trace, never fail a request.
func ParseSpanContext(s string) (sc SpanContext, ok bool) {
	switch len(s) {
	case 32:
		t, err := ParseTraceID(s)
		if err != nil {
			return SpanContext{}, false
		}
		sc = SpanContext{Trace: t}
	case 49:
		if s[32] != '-' {
			return SpanContext{}, false
		}
		t, err := ParseTraceID(s[:32])
		if err != nil {
			return SpanContext{}, false
		}
		sp, err := ParseSpanID(s[33:])
		if err != nil {
			return SpanContext{}, false
		}
		sc = SpanContext{Trace: t, Span: sp}
	}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// IDSource generates trace and span IDs from a SplitMix64 stream. A fixed
// seed yields a fixed ID sequence (single-consumer), which is how tests pin
// exact IDs; concurrent consumers draw unique, decorrelated IDs from the
// same atomic stream. The zero value is usable and seeds from zero.
type IDSource struct {
	state atomic.Uint64
}

// mix64 is the SplitMix64 output mixer (Steele et al.).
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// NewIDSource returns a source whose stream is a pure function of seed.
func NewIDSource(seed int64) *IDSource {
	s := &IDSource{}
	s.state.Store(mix64(uint64(seed) ^ 0x9E3779B97F4A7C15))
	return s
}

// next draws one nonzero 64-bit value.
func (s *IDSource) next() uint64 {
	for {
		z := mix64(s.state.Add(0x9E3779B97F4A7C15))
		if z != 0 {
			return z
		}
	}
}

// TraceID draws a fresh nonzero 128-bit trace ID. Nil-safe (zero on nil —
// callers without a source cannot start traces).
func (s *IDSource) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return TraceID{Hi: s.next(), Lo: s.next()}
}

// SpanID draws a fresh nonzero span ID. Nil-safe.
func (s *IDSource) SpanID() SpanID {
	if s == nil {
		return 0
	}
	return SpanID(s.next())
}

// processIDSeed decorrelates the default ID streams of registries created in
// one process (and across processes, via the clock).
var processIDSeed atomic.Int64

func defaultIDSeed() int64 {
	return time.Now().UnixNano() ^ processIDSeed.Add(0x9E3779B9)<<17
}

// spanCtxKey is the private context key for span-context propagation.
type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying sc as the current span context, so
// spans (and cluster forwards) started below join the same trace.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanFromContext extracts the current span context (zero when absent).
func SpanFromContext(ctx context.Context) SpanContext {
	if ctx == nil {
		return SpanContext{}
	}
	sc, _ := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc
}
