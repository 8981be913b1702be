package main

import (
	"reflect"
	"testing"
)

func TestRequestSequenceIsSeeded(t *testing.T) {
	hot1, timed1 := requestSequence(1)
	hot2, timed2 := requestSequence(1)
	if !reflect.DeepEqual(hot1, hot2) || !reflect.DeepEqual(timed1, timed2) {
		t.Fatal("the same seed gave different request sequences")
	}
	hot3, timed3 := requestSequence(2)
	if reflect.DeepEqual(hot1, hot3) || reflect.DeepEqual(timed1, timed3) {
		t.Fatal("different seeds gave the same request sequence")
	}
}

func TestRequestSequenceMissesOneInTen(t *testing.T) {
	hot, timed := requestSequence(7)
	if len(hot) != serveHot || len(timed) != serveTimed {
		t.Fatalf("got %d hot and %d timed requests, want %d and %d", len(hot), len(timed), serveHot, serveTimed)
	}
	seen := map[string]bool{}
	for _, q := range hot {
		if seen[q.key()] {
			t.Fatalf("hot key %s repeats", q.key())
		}
		seen[q.key()] = true
	}
	misses := 0
	for _, q := range timed {
		if !seen[q.key()] {
			misses++
			seen[q.key()] = true
		}
	}
	if misses != serveTimed/serveColdEvery {
		t.Errorf("%d of %d timed requests miss a warmed cache, want %d", misses, serveTimed, serveTimed/serveColdEvery)
	}
}
