package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// TestIDSourceDeterminism: a fixed seed yields a fixed, nonzero ID stream —
// the property tests lean on to pin exact trace identities.
func TestIDSourceDeterminism(t *testing.T) {
	a, b := NewIDSource(42), NewIDSource(42)
	for i := 0; i < 100; i++ {
		ta, tb := a.TraceID(), b.TraceID()
		if ta != tb {
			t.Fatalf("draw %d: trace IDs diverged: %v vs %v", i, ta, tb)
		}
		if ta.IsZero() {
			t.Fatalf("draw %d: zero trace ID", i)
		}
		sa, sb := a.SpanID(), b.SpanID()
		if sa != sb || sa == 0 {
			t.Fatalf("draw %d: span IDs %v vs %v", i, sa, sb)
		}
	}
	c := NewIDSource(43)
	if a0, c0 := NewIDSource(42).TraceID(), c.TraceID(); a0 == c0 {
		t.Fatal("different seeds produced the same first trace ID")
	}
}

func TestIDSourceNilSafe(t *testing.T) {
	var s *IDSource
	if !s.TraceID().IsZero() {
		t.Fatal("nil source produced a trace ID")
	}
	if s.SpanID() != 0 {
		t.Fatal("nil source produced a span ID")
	}
}

// TestSpanContextHeaderRoundTrip: HeaderValue/ParseSpanContext are inverses
// for both wire forms.
func TestSpanContextHeaderRoundTrip(t *testing.T) {
	src := NewIDSource(7)
	for i := 0; i < 20; i++ {
		sc := SpanContext{Trace: src.TraceID(), Span: src.SpanID()}
		got, ok := ParseSpanContext(sc.HeaderValue())
		if !ok || got != sc {
			t.Fatalf("round trip failed: %v -> %q -> %v ok=%v", sc, sc.HeaderValue(), got, ok)
		}
		bare := SpanContext{Trace: sc.Trace}
		got, ok = ParseSpanContext(bare.HeaderValue())
		if !ok || got != bare {
			t.Fatalf("trace-only round trip failed: %q", bare.HeaderValue())
		}
	}
}

func TestParseSpanContextRejects(t *testing.T) {
	bad := []string{
		"",
		"deadbeef",
		"zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz",  // 32 non-hex
		"0123456789abcdef0123456789abcdef0", // 33 chars
		"0123456789abcdef0123456789abcdef_0123456789abcdef", // wrong separator
		"0123456789abcdef0123456789abcdef-0123456789abcdeZ", // bad span hex
		"0123456789abcdef0123456789abcdef-0123",             // short span
		"00000000000000000000000000000000",                  // zero trace
		"00000000000000000000000000000000-00000000000000ab", // zero trace, span set
	}
	for _, s := range bad {
		if _, ok := ParseSpanContext(s); ok {
			t.Errorf("ParseSpanContext(%q) accepted", s)
		}
	}
	if sc, ok := ParseSpanContext("0123456789abcdef0123456789abcdef"); !ok || sc.Span != 0 {
		t.Fatal("valid trace-only header rejected")
	}
}

// FuzzParseSpanContext: whatever the X-Uninet-Trace parser accepts names a
// trace and survives the HeaderValue round trip.
func FuzzParseSpanContext(f *testing.F) {
	src := NewIDSource(1)
	for i := 0; i < 2; i++ {
		f.Add(SpanContext{Trace: src.TraceID()}.HeaderValue())
		f.Add(SpanContext{Trace: src.TraceID(), Span: src.SpanID()}.HeaderValue())
	}
	f.Add("00000000000000000000000000000000-00000000000000ab")
	f.Add("0123456789ABCDEF0123456789ABCDEF-0123456789ABCDEF")
	f.Fuzz(func(t *testing.T, s string) {
		sc, ok := ParseSpanContext(s)
		if !ok {
			return
		}
		if !sc.Valid() {
			t.Fatalf("ParseSpanContext(%q) accepted invalid %+v", s, sc)
		}
		again, ok := ParseSpanContext(sc.HeaderValue())
		if !ok || again != sc {
			t.Fatalf("%q -> %+v -> %q -> %+v ok=%v", s, sc, sc.HeaderValue(), again, ok)
		}
	})
}

// TestStartSpanCtxParentage: nested StartSpanCtx calls share one trace and
// chain parent IDs, and the emitted JSONL carries all three identity fields.
func TestStartSpanCtxParentage(t *testing.T) {
	var buf bytes.Buffer
	r := New().SetIDSeed(1).SetTrace(NewTraceSink(&buf))
	ctx, root := r.StartSpanCtx(context.Background(), "root")
	if root == nil {
		t.Fatal("no root span with sink attached")
	}
	ctx2, child := r.StartSpanCtx(ctx, "child")
	_, grand := r.StartSpanCtx(ctx2, "grandchild")
	grand.End()
	child.End()
	root.End()
	if err := r.Sink().Flush(); err != nil {
		t.Fatal(err)
	}

	events := map[string]SpanEvent{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev SpanEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line: %v", err)
		}
		events[ev.Span] = ev
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	rt, ch, gr := events["root"], events["child"], events["grandchild"]
	if rt.Trace == "" || rt.Trace != ch.Trace || ch.Trace != gr.Trace {
		t.Fatalf("trace IDs not shared: %q %q %q", rt.Trace, ch.Trace, gr.Trace)
	}
	if rt.Parent != "" {
		t.Fatalf("root has parent %q", rt.Parent)
	}
	if ch.Parent != rt.SpanID || gr.Parent != ch.SpanID {
		t.Fatalf("parent chain broken: root=%s child(parent=%s) grand(parent=%s)",
			rt.SpanID, ch.Parent, gr.Parent)
	}
	if got := SpanFromContext(ctx2); got.Span.String() != ch.SpanID {
		t.Fatalf("context carries span %s, child emitted %s", got.Span, ch.SpanID)
	}
}

// TestStartSpanCtxJoinsIncomingContext: a context seeded via ContextWithSpan
// (the header-propagation path) parents the new span into the remote trace.
func TestStartSpanCtxJoinsIncomingContext(t *testing.T) {
	var buf bytes.Buffer
	r := New().SetIDSeed(2).SetTrace(NewTraceSink(&buf))
	remote := SpanContext{Trace: TraceID{Hi: 0xabc, Lo: 0xdef}, Span: SpanID(0x123)}
	ctx := ContextWithSpan(context.Background(), remote)
	_, sp := r.StartSpanCtx(ctx, "owner")
	if got := sp.Context().Trace; got != remote.Trace {
		t.Fatalf("span trace %v, want remote %v", got, remote.Trace)
	}
	sp.End()
	r.Sink().Flush()
	var ev SpanEvent
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Trace != remote.Trace.String() || ev.Parent != remote.Span.String() {
		t.Fatalf("event trace=%q parent=%q, want trace=%q parent=%q",
			ev.Trace, ev.Parent, remote.Trace, remote.Span)
	}
}

// TestStartSpanCtxDisabledZeroAlloc: with no sink, StartSpanCtx must return
// the context untouched with zero allocations — the disabled-tracing
// contract the serving hot path relies on.
func TestStartSpanCtxDisabledZeroAlloc(t *testing.T) {
	r := New()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c2, sp := r.StartSpanCtx(ctx, "x")
		if sp != nil || c2 != ctx {
			t.Fatal("disabled StartSpanCtx not a no-op")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled StartSpanCtx allocates %.1f/op, want 0", allocs)
	}
}

func TestTraceEnabled(t *testing.T) {
	r := New()
	if r.TraceEnabled() {
		t.Fatal("fresh registry reports tracing enabled")
	}
	r.SetTrace(NewTraceSink(&bytes.Buffer{}))
	if !r.TraceEnabled() {
		t.Fatal("registry with sink reports tracing disabled")
	}
	var nilr *Registry
	if nilr.TraceEnabled() || nilr.Sink() != nil || nilr.IDs() != nil {
		t.Fatal("nil registry trace accessors not nil-safe")
	}
}
