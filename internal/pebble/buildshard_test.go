package pebble

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"universalnet/internal/topology"
)

// TestShardedBuildMatchesSerial pins the tentpole invariant: for every
// worker count, the merged sharded build is byte-identical to the serial
// queued builder — same steps, same op order within each step.
func TestShardedBuildMatchesSerial(t *testing.T) {
	workerCounts := []int{1, 2, 3, 5, 8, 1000}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(10)
		T := 2 + rng.Intn(2)
		guest, err := topology.RandomGuest(rng, n, 2)
		if err != nil {
			t.Fatal(err)
		}
		h, err := topology.Torus(9)
		if seed%2 == 1 {
			h, err = topology.Mesh(16)
		}
		if err != nil {
			t.Fatal(err)
		}
		f := RandomizedAssignment(n, h.N(), seed)
		serial, err := BuildQueuedEmbeddingProtocol(guest, h, f, T)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, workers := range workerCounts {
			got := &Protocol{Guest: guest, Host: h, T: T}
			err := StreamQueuedEmbeddingProtocolSharded(context.Background(), guest, h, f, T,
				BuildShardedOptions{Workers: workers}, &ProtocolSink{Proto: got})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if !reflect.DeepEqual(serial.Steps, got.Steps) {
				t.Fatalf("seed %d workers %d: sharded build diverged from serial", seed, workers)
			}
		}
	}
}

// TestShardedBuildSegmentsThroughPipe runs the sharded build into a Pipe —
// the production path, where the merge uses AppendStepSegments — and
// checks the consumed stream against the serial builder.
func TestShardedBuildSegmentsThroughPipe(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	guest, err := topology.RandomGuest(rng, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	h, err := topology.Torus(16)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := BuildQueuedEmbeddingProtocol(guest, h, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	pipe := NewPipe(4)
	go func() {
		pipe.CloseSend(StreamQueuedEmbeddingProtocolSharded(context.Background(), guest, h, nil, 3,
			BuildShardedOptions{Workers: 4}, pipe))
	}()
	got, err := Materialize(serial.Spec(), pipe)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Steps, got.Steps) {
		t.Fatal("piped sharded build diverged from serial")
	}
}

// TestShardedBuildInvalidInputs: input validation fires before any worker
// spawns and matches the serial builder's errors.
func TestShardedBuildInvalidInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	guest, err := topology.RandomGuest(rng, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := topology.Torus(9)
	if err != nil {
		t.Fatal(err)
	}
	badF := make([]int, 6)
	badF[3] = 99
	serialErr := StreamQueuedEmbeddingProtocol(guest, h, badF, 2, &ProtocolSink{Proto: &Protocol{}})
	shardErr := StreamQueuedEmbeddingProtocolSharded(context.Background(), guest, h, badF, 2,
		BuildShardedOptions{Workers: 3}, &ProtocolSink{Proto: &Protocol{}})
	if serialErr == nil || shardErr == nil {
		t.Fatalf("invalid assignment accepted: serial %v, sharded %v", serialErr, shardErr)
	}
	if serialErr.Error() != shardErr.Error() {
		t.Fatalf("error mismatch: serial %q, sharded %q", serialErr, shardErr)
	}
}

// errAfterSink fails the k-th AppendStep — the shape of a consumer
// (validator) rejecting the stream mid-flight.
type errAfterSink struct {
	left int
	err  error
}

func (s *errAfterSink) AppendStep(ops []Op) error {
	if s.left--; s.left < 0 {
		return s.err
	}
	return nil
}

// waitGoroutines polls until the goroutine count drops back to the
// baseline; parallel teardown is asynchronous only in the scheduler, not in
// the harness (streamSharded joins its workers), so this guards against
// regressions that leak.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShardedBuildSinkErrorTearsDown: a failing sink (the validator-error
// path) must surface its error and leave no workers or merger behind.
func TestShardedBuildSinkErrorTearsDown(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	guest, err := topology.RandomGuest(rng, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	h, err := topology.Torus(16)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	before := runtime.NumGoroutine()
	for _, workers := range []int{2, 4} {
		err := StreamQueuedEmbeddingProtocolSharded(context.Background(), guest, h, nil, 3,
			BuildShardedOptions{Workers: workers}, &errAfterSink{left: 5, err: boom})
		if err != boom {
			t.Fatalf("workers %d: want sink error, got %v", workers, err)
		}
	}
	waitGoroutines(t, before)
}

// TestShardedBuildContextCancel: cancelling the context mid-stream tears
// all workers down, returns ctx.Err(), and leaks nothing.
func TestShardedBuildContextCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	guest, err := topology.RandomGuest(rng, 512, 3)
	if err != nil {
		t.Fatal(err)
	}
	h, err := topology.Torus(16)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pipe := NewPipe(2)
	done := make(chan error, 1)
	go func() {
		done <- StreamQueuedEmbeddingProtocolSharded(ctx, guest, h, nil, 4,
			BuildShardedOptions{Workers: 3}, pipe)
	}()
	// Keep draining so the merge is never parked on the main pipe — the
	// caller's job (abandoning the pipe would do as well).
	go func() {
		for {
			if _, err := pipe.NextStep(); err != nil {
				return
			}
		}
	}()
	err = <-done
	pipe.CloseSend(err)
	pipe.CloseRecv()
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	waitGoroutines(t, before)
}

// TestShardedBuildAbandonedPipe: the consumer walking away from the merged
// stream (CloseRecv) unblocks and ends the whole build fan-in.
func TestShardedBuildAbandonedPipe(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	guest, err := topology.RandomGuest(rng, 512, 3)
	if err != nil {
		t.Fatal(err)
	}
	h, err := topology.Torus(16)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	pipe := NewPipe(1)
	done := make(chan error, 1)
	go func() {
		done <- StreamQueuedEmbeddingProtocolSharded(context.Background(), guest, h, nil, 4,
			BuildShardedOptions{Workers: 4}, pipe)
	}()
	if _, err := pipe.NextStep(); err != nil {
		t.Fatal(err)
	}
	pipe.CloseRecv()
	if err := <-done; err != ErrPipeClosed {
		t.Fatalf("want ErrPipeClosed, got %v", err)
	}
	waitGoroutines(t, before)
}

// TestMergeAlignmentGuard: streams of unequal length are an internal
// invariant violation the merger must report, not deadlock on.
func TestMergeAlignmentGuard(t *testing.T) {
	mkPipe := func(steps int) *Pipe {
		p := NewPipe(4)
		go func() {
			for i := 0; i < steps; i++ {
				if err := p.AppendStep([]Op{{Kind: Generate, Proc: i}}); err != nil {
					p.CloseSend(err)
					return
				}
			}
			p.CloseSend(nil)
		}()
		return p
	}
	pipes := []*Pipe{mkPipe(2), mkPipe(3)}
	err := mergeStreams(pipes, &ProtocolSink{Proto: &Protocol{}})
	for _, p := range pipes {
		p.CloseRecv()
	}
	if err == nil || err.Error() != "pebble: sharded build: worker streams misaligned" {
		t.Fatalf("want misalignment error, got %v", err)
	}
}

// drainCount consumes a source to EOF and returns the step count.
func drainCount(t *testing.T, src StepSource) int {
	t.Helper()
	steps := 0
	for {
		_, err := src.NextStep()
		if err == io.EOF {
			return steps
		}
		if err != nil {
			t.Fatal(err)
		}
		steps++
	}
}

// TestShardedBuildEmptySubSteps: with more workers than busy processors,
// some workers emit only empty sub-steps; the merged stream must still
// align and match the serial step count (fmt is anchored by the serial
// build elsewhere — this guards the step framing).
func TestShardedBuildEmptySubSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	guest, err := topology.RandomGuest(rng, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := topology.Torus(36)
	if err != nil {
		t.Fatal(err)
	}
	// Cram all guests onto one host: every other worker range is idle.
	f := make([]int, 8)
	serial, err := BuildQueuedEmbeddingProtocol(guest, h, f, 2)
	if err != nil {
		t.Fatal(err)
	}
	pipe := NewPipe(4)
	go func() {
		pipe.CloseSend(StreamQueuedEmbeddingProtocolSharded(context.Background(), guest, h, f, 2,
			BuildShardedOptions{Workers: 6}, pipe))
	}()
	if got := drainCount(t, pipe); got != serial.HostSteps() {
		t.Fatalf("step count %d, want %d", got, serial.HostSteps())
	}
}
