package main

import (
	"strings"
	"testing"

	"universalnet/internal/obs"
)

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []obs.SpanEvent{
		{Span: "root", SpanID: "r", StartUS: 0, DurUS: 100},
		// Two overlapping children (concurrent stages) cover [10,50] once,
		// and a child running past the parent's end counts only up to it.
		{Span: "build", SpanID: "a", Parent: "r", StartUS: 10, DurUS: 20},
		{Span: "validate", SpanID: "b", Parent: "r", StartUS: 20, DurUS: 30},
		{Span: "tail", SpanID: "c", Parent: "r", StartUS: 90, DurUS: 30},
		{Span: "validate.inner", SpanID: "d", Parent: "b", StartUS: 25, DurUS: 10},
	}
	self := selfTimes(spans)
	want := map[string]int64{"r": 50, "a": 20, "b": 20, "c": 30, "d": 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%s) = %d, want %d", id, self[id], w)
		}
	}
	byName := selfByName(append(spans, obs.SpanEvent{Span: "build", SpanID: "e", Parent: "r", StartUS: 60, DurUS: 5}))
	if byName["build"] != 25 || byName["root"] != 45 {
		t.Errorf("selfByName = %v, want build=25 root=45", byName)
	}
}

func TestUniqueSpanIDs(t *testing.T) {
	spans := []obs.SpanEvent{
		{Span: "bench.rep", SpanID: "a"},
		{Span: "http.request", SpanID: "b", Parent: "a"},
		{Span: "universal.run"}, {Span: "universal.run"}, // outside any trace
	}
	if err := uniqueSpanIDs(spans); err != nil {
		t.Fatalf("distinct IDs: %v", err)
	}
	if err := uniqueSpanIDs(append(spans, obs.SpanEvent{Span: "decode", SpanID: "b"})); err == nil {
		t.Error("a reused span ID passed")
	}
}

func TestReadSpansRoundTrip(t *testing.T) {
	in := `{"span":"bench.rep","id":1,"trace":"0123456789abcdef0123456789abcdef","span_id":"00000000000000aa","start_us":5,"dur_us":7}

{"span":"pebble.validate","id":2,"trace":"0123456789abcdef0123456789abcdef","span_id":"00000000000000bb","parent":"00000000000000aa","start_us":6,"dur_us":3,"attrs":{"steps":4}}
`
	spans, err := readSpans(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[1].Parent != spans[0].SpanID || spans[1].Attrs["steps"] != float64(4) {
		t.Fatalf("readSpans = %+v", spans)
	}
	if _, err := readSpans(strings.NewReader("{not json}\n")); err == nil {
		t.Error("readSpans accepted a malformed line")
	}
}
