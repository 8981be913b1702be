package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"

	"universalnet/internal/obs"
)

// Traced runs write spans in the obs JSONL format that `uninet trace` joins:
// one trace ID per run, a bench.run root written by the parent process, one
// bench.rep span per repetition process under it, and one span per call
// into a layer below that. Per-step timings (every AppendStep, every
// NextStep) are summed into attributes of the span of the call that made
// them, not written as spans of their own.

// readSpans decodes a JSONL span stream.
func readSpans(r io.Reader) ([]obs.SpanEvent, error) {
	var out []obs.SpanEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var ev obs.SpanEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("bad span line: %w", err)
		}
		out = append(out, ev)
	}
	return out, sc.Err()
}

// selfTimes returns each span's self time in µs, keyed by span ID: its
// duration minus the part of its interval that its children cover.
// Children that ran at once (a builder and a validator under one pipeline
// span) are counted once, not summed, so self time never goes negative.
func selfTimes(spans []obs.SpanEvent) map[string]int64 {
	children := map[string][]obs.SpanEvent{}
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64, len(spans))
	for _, s := range spans {
		if s.SpanID == "" {
			continue
		}
		start, end := s.StartUS, s.StartUS+s.DurUS
		kids := children[s.SpanID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
		var covered int64
		cur := start // end of the covered prefix so far
		for _, k := range kids {
			lo, hi := max(k.StartUS, cur), min(k.StartUS+k.DurUS, end)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.SpanID] = s.DurUS - covered
	}
	return out
}

// selfByName sums self time per span name.
func selfByName(spans []obs.SpanEvent) map[string]int64 {
	self := selfTimes(spans)
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Span] += self[s.SpanID]
	}
	return out
}

// uniqueSpanIDs fails when two spans share an ID. `uninet trace` keeps one
// span per ID, so a reused ID would silently drop a span and attach its
// children to another. Spans without an ID (emitted outside any trace, which
// `uninet trace` skips) are not checked.
func uniqueSpanIDs(spans []obs.SpanEvent) error {
	seen := make(map[string]string, len(spans))
	for _, s := range spans {
		if s.SpanID == "" {
			continue
		}
		if prev, ok := seen[s.SpanID]; ok {
			return fmt.Errorf("span ID %s is used by both a %s and a %s span", s.SpanID, prev, s.Span)
		}
		seen[s.SpanID] = s.Span
	}
	return nil
}

// checkJoin runs `uninet trace -json` over a run's trace file and requires
// exactly one trace, joined across processes, with no orphan spans.
func checkJoin(uninet, path string) error {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(uninet, "trace", "-json", "-top", "1", path)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("uninet trace: %v: %s", err, stderr.String())
	}
	var doc struct {
		Spans  int `json:"spans"`
		Traces int `json:"traces"`
		Joined int `json:"joined"`
		Top    []struct {
			Orphans int `json:"orphans"`
		} `json:"top"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		return fmt.Errorf("uninet trace: bad -json output: %w", err)
	}
	if doc.Traces != 1 || doc.Joined != 1 || len(doc.Top) != 1 || doc.Top[0].Orphans != 0 {
		return fmt.Errorf("uninet trace: %d spans in %d traces, %d joined, top orphans %v; want one joined trace with no orphans",
			doc.Spans, doc.Traces, doc.Joined, doc.Top)
	}
	return nil
}

// appendFile copies src onto the end of dst and removes src.
func appendFile(dst io.Writer, src string) error {
	f, err := os.Open(src)
	if err != nil {
		return err
	}
	_, err = io.Copy(dst, f)
	f.Close()
	if err != nil {
		return err
	}
	return os.Remove(src)
}
