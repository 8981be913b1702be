package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"universalnet/internal/obs"
)

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

func TestSimulateEndToEnd(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	req := SimulateRequest{Topology: "torus", N: 64, M: 16, Seed: 7, Steps: 4}
	res, err := s.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("first request reported cached")
	}
	if res.GuestSteps != 4 || res.HostSteps <= 0 || res.Slowdown <= 0 {
		t.Errorf("implausible result: %+v", res)
	}
	if res.MaxLoad != 4 { // 64 guests on 16 hosts, balanced
		t.Errorf("max_load = %d, want 4", res.MaxLoad)
	}
	// The identical request is answered from cache with the identical
	// computation (checksum pins determinism).
	res2, err := s.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Error("second identical request not served from cache")
	}
	if res2.Checksum != res.Checksum || res2.HostSteps != res.HostSteps {
		t.Errorf("cached result differs: %+v vs %+v", res2, res)
	}
	// A different seed is a different computation.
	req.Seed = 8
	res3, err := s.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Cached {
		t.Error("distinct request served from cache")
	}
}

func TestRouteAndEmbedEndToEnd(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	ctx := context.Background()
	rres, err := s.Route(ctx, RouteRequest{Topology: "butterfly", M: 3, Seed: 1, Pattern: "permutation"})
	if err != nil {
		t.Fatal(err)
	}
	if rres.Delivered != rres.Packets || rres.Steps <= 0 {
		t.Errorf("route result implausible: %+v", rres)
	}
	eres, err := s.Embed(ctx, EmbedRequest{Topology: "torus", N: 64, M: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if eres.Load != 4 || eres.Dilation <= 0 || eres.Congestion <= 0 {
		t.Errorf("embed result implausible: %+v", eres)
	}
	// hh pattern and bitreversal-on-non-power-of-two behavior.
	if _, err := s.Route(ctx, RouteRequest{Topology: "ring", M: 12, Seed: 1, Pattern: "hh", H: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Route(ctx, RouteRequest{Topology: "torus", M: 36, Seed: 1, Pattern: "bitreversal"}); err == nil {
		t.Error("bitreversal on 36-node torus should fail")
	}
}

func TestValidation(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	ctx := context.Background()
	cases := []error{
		func() error {
			_, err := s.Simulate(ctx, SimulateRequest{Topology: "klein-bottle", N: 64, M: 16})
			return err
		}(),
		func() error {
			_, err := s.Simulate(ctx, SimulateRequest{Topology: "torus", N: 1 << 20, M: 16})
			return err
		}(),
		func() error {
			_, err := s.Simulate(ctx, SimulateRequest{Topology: "torus", N: 64, M: 16, Steps: 10000})
			return err
		}(),
		func() error {
			_, err := s.Route(ctx, RouteRequest{Topology: "torus", M: 16, Pattern: "scenic"})
			return err
		}(),
		func() error { _, err := s.Embed(ctx, EmbedRequest{Topology: "torus", N: 64, M: 1 << 20}); return err }(),
	}
	for i, err := range cases {
		if !errors.Is(err, ErrInvalid) {
			t.Errorf("case %d: err = %v, want ErrInvalid", i, err)
		}
	}
	// Validation failures never enter the queue.
	if got := s.Status().Accepted; got != 0 {
		t.Errorf("accepted = %d after validation-only traffic, want 0", got)
	}
}

// TestSingleflightDedup is the ISSUE's dedup contract at the service layer:
// N concurrent identical requests → exactly one computation (one result-
// cache miss), everyone gets the same answer. Run with -race.
func TestSingleflightDedup(t *testing.T) {
	s := newTestService(t, Config{Workers: 4, QueueDepth: 128})
	req := SimulateRequest{Topology: "expander", N: 128, M: 32, Seed: 11, Steps: 6}
	const N = 32
	results := make([]*SimulateResult, N)
	errs := make([]error, N)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = s.Simulate(context.Background(), req)
		}(i)
	}
	close(start)
	wg.Wait()
	var want uint64
	for i := 0; i < N; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if want == 0 {
			want = results[i].Checksum
		}
		if results[i].Checksum != want {
			t.Fatalf("request %d diverged: checksum %d vs %d", i, results[i].Checksum, want)
		}
	}
	st := s.Status()
	if st.Cache.Misses != 1 {
		t.Errorf("result-cache misses = %d for %d identical concurrent requests, want exactly 1 computation", st.Cache.Misses, N)
	}
	if st.Cache.Hits+st.Cache.Coalesced != N-1 {
		t.Errorf("hits(%d) + coalesced(%d) = %d, want %d followers",
			st.Cache.Hits, st.Cache.Coalesced, st.Cache.Hits+st.Cache.Coalesced, N-1)
	}
}

// TestAdmissionControl pins the 429 path: with one worker wedged and a
// one-slot queue occupied, the next submission is rejected immediately.
func TestAdmissionControl(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 1})
	block := make(chan struct{})
	running := make(chan struct{})
	// Wedge the worker.
	if err := s.submit(func() { close(running); <-block }); err != nil {
		t.Fatal(err)
	}
	<-running
	// Fill the queue slot.
	if err := s.submit(func() {}); err != nil {
		t.Fatal(err)
	}
	// Admission control must now fail fast, including for a real request.
	if err := s.submit(func() {}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit on full queue: %v, want ErrOverloaded", err)
	}
	_, err := s.Simulate(context.Background(), SimulateRequest{Topology: "torus", N: 16, M: 16, Seed: 1})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Simulate on full queue: %v, want ErrOverloaded", err)
	}
	st := s.Status()
	if st.Rejected < 2 {
		t.Errorf("rejected = %d, want >= 2", st.Rejected)
	}
	close(block)
}

func TestDeadline(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 4})
	block := make(chan struct{})
	defer close(block)
	running := make(chan struct{})
	if err := s.submit(func() { close(running); <-block }); err != nil {
		t.Fatal(err)
	}
	<-running
	// This request sits behind the wedged worker past its 20ms deadline.
	_, err := s.Simulate(context.Background(),
		SimulateRequest{Topology: "torus", N: 16, M: 16, Seed: 1, DeadlineMS: 20})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if got := s.Status().DeadlineExceeded; got != 1 {
		t.Errorf("deadline_exceeded = %d, want 1", got)
	}
}

// TestGracefulDrain: Close rejects new work with ErrClosed, but queued work
// completes before Close returns.
func TestGracefulDrain(t *testing.T) {
	reg := obs.New()
	s := New(Config{Workers: 1, QueueDepth: 8, Obs: reg})
	gate := make(chan struct{})
	running := make(chan struct{})
	done := make(chan struct{}, 8)
	if err := s.submit(func() { close(running); <-gate; done <- struct{}{} }); err != nil {
		t.Fatal(err)
	}
	<-running
	for i := 0; i < 3; i++ {
		if err := s.submit(func() { done <- struct{}{} }); err != nil {
			t.Fatal(err)
		}
	}
	closeRet := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		closeRet <- s.Close(ctx)
	}()
	// Draining must flip promptly and new submissions must bounce.
	waitFor(t, s.Draining, "service did not start draining")
	if err := s.submit(func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit during drain: %v, want ErrClosed", err)
	}
	if _, err := s.Simulate(context.Background(), SimulateRequest{Topology: "torus", N: 16, M: 16, Seed: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Simulate during drain: %v, want ErrClosed", err)
	}
	close(gate) // let the wedged job and the queue drain
	if err := <-closeRet; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(done) != 4 {
		t.Errorf("%d of 4 queued jobs ran during drain, want all", len(done))
	}
	// Close is idempotent.
	if err := s.Close(context.Background()); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSharedScheduleCache: two different requests over the same host and
// relation shape share routing schedules through the service-wide cache.
func TestSharedScheduleCache(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	ctx := context.Background()
	// Same topology/m/seed → same host graph and same guest → the per-step
	// relation is identical; the second request's simulation replays the
	// first's schedule from the shared cache.
	if _, err := s.Simulate(ctx, SimulateRequest{Topology: "torus", N: 64, M: 16, Seed: 5, Steps: 4}); err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := s.Status().Schedules.Misses
	if missesAfterFirst == 0 {
		t.Fatal("first simulate recorded no schedule-cache misses")
	}
	// Different Steps → different result-cache key, same schedule.
	if _, err := s.Simulate(ctx, SimulateRequest{Topology: "torus", N: 64, M: 16, Seed: 5, Steps: 6}); err != nil {
		t.Fatal(err)
	}
	st := s.Status()
	if st.Schedules.Misses != missesAfterFirst {
		t.Errorf("second simulate recomputed the schedule: misses %d → %d", missesAfterFirst, st.Schedules.Misses)
	}
	if st.Schedules.Hits == 0 {
		t.Error("schedule cache recorded no hits across requests")
	}
	if st.Hosts.Hits == 0 {
		t.Error("host cache recorded no hits across requests")
	}
}
