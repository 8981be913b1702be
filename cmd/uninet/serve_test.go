package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"universalnet/internal/experiments"
	"universalnet/internal/obs"
)

// waitGoroutines polls until the goroutine count drops back to at most
// want, failing the test after two seconds. A plain equality check would be
// flaky: finished goroutines take a scheduler beat to be reaped.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines = %d, want <= %d after shutdown\n%s", n, want, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunServeShutdownNoLeak is the regression test for serve's lifecycle:
// canceling the context must close the server, return from runServe, flush
// the trace sink, and leave no goroutine behind.
func TestRunServeShutdownNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	exps, err := experiments.Select([]string{"E2"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.Config{Seed: 1, FaultSeed: 1}
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- runServe(ctx, ln, exps, cfg, serveOpts{
			parallel:  2,
			tracePath: tracePath,
		}, &out)
	}()

	// The server must answer while the suite runs / idles.
	tr := &http.Transport{}
	client := &http.Client{Transport: tr, Timeout: 2 * time.Second}
	var snap obs.Snapshot
	if err := pollJSON(client, "http://"+addr+"/metrics.json", &snap); err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	// /metrics itself is Prometheus text exposition — parser-verified.
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	fams, err := obs.ParseProm(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus exposition: %v", err)
	}
	if len(fams) == 0 {
		t.Error("/metrics exposition is empty")
	}
	tr.CloseIdleConnections()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runServe returned %v, want nil on interrupt", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("runServe did not return after cancel")
	}

	// The port must be closed …
	if conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		conn.Close()
		t.Error("listener still accepting connections after shutdown")
	}
	// … the trace sink flushed with at least the experiment span …
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(trace), `"experiment"`) || !strings.Contains(string(trace), `"E2"`) {
		t.Errorf("trace file missing experiment span:\n%s", trace)
	}
	// … and every goroutine runServe started must be gone. Allow two over
	// the pre-test count for test-runner and HTTP-client stragglers that do
	// not belong to runServe.
	waitGoroutines(t, baseline+2)

	if !strings.Contains(out.String(), "suite done") {
		t.Errorf("missing suite summary in output:\n%s", out.String())
	}
}

// TestRunServeDrainWindow covers the graceful-drain contract: after the
// shutdown trigger, the server answers new requests with an explicit 503
// for the drain-grace window instead of letting them race the listener
// teardown — and still leaves no goroutine behind afterwards.
func TestRunServeDrainWindow(t *testing.T) {
	baseline := runtime.NumGoroutine()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	exps, err := experiments.Select([]string{"E2"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.Config{Seed: 1, FaultSeed: 1}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- runServe(ctx, ln, exps, cfg, serveOpts{
			parallel:   1,
			drainGrace: 500 * time.Millisecond,
		}, &out)
	}()

	tr := &http.Transport{}
	client := &http.Client{Transport: tr, Timeout: 2 * time.Second}
	defer tr.CloseIdleConnections()

	// The service must answer before the drain: a real request end to end.
	body := `{"topology":"ring","n":16,"m":8,"seed":1,"steps":2}`
	var postErr error
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := client.Post("http://"+addr+"/v1/simulate", "application/json", strings.NewReader(body))
		if err == nil && resp.StatusCode == http.StatusOK {
			resp.Body.Close()
			break
		}
		if err == nil {
			postErr = fmt.Errorf("status %s", resp.Status)
			resp.Body.Close()
		} else {
			postErr = err
		}
		if time.Now().After(deadline) {
			t.Fatalf("/v1/simulate never answered 200: %v", postErr)
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel()

	// During the grace window new requests must observe an explicit 503 —
	// not a connection error. Poll through the small gap between cancel()
	// and the draining flag flipping.
	saw503 := false
	deadline = time.Now().Add(2 * time.Second)
	for !saw503 {
		resp, err := client.Get("http://" + addr + "/v1/status")
		if err != nil {
			t.Fatalf("connection failed before a 503 was observed: %v", err)
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			saw503 = true
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("never observed a 503 during the drain window")
		}
		time.Sleep(5 * time.Millisecond)
	}
	tr.CloseIdleConnections()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runServe returned %v, want nil on interrupt", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runServe did not return after cancel")
	}
	// Every goroutine from the server, the service worker pool, and the
	// drain machinery must be gone.
	waitGoroutines(t, baseline+2)
}

// TestRunServeOnce covers the -once path: runServe returns by itself after
// the suite, reporting suite errors, without waiting for a cancel.
func TestRunServeOnce(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	exps, err := experiments.Select([]string{"E3"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.Config{Seed: 1, FaultSeed: 1}
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- runServe(context.Background(), ln, exps, cfg, serveOpts{parallel: 1, once: true}, &out)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runServe -once: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runServe -once did not return")
	}
	if !strings.Contains(out.String(), "1 experiments, 0 failed") {
		t.Errorf("unexpected summary:\n%s", out.String())
	}
}

// pollJSON GETs url until it answers 200 with decodable JSON (the server
// goroutine may not have accepted its listener yet on the first try).
func pollJSON(client *http.Client, url string, into any) error {
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := client.Get(url)
		if err == nil {
			if resp.StatusCode == http.StatusOK {
				err = json.NewDecoder(resp.Body).Decode(into)
				resp.Body.Close()
				return err
			}
			resp.Body.Close()
			err = fmt.Errorf("status %s", resp.Status)
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}
}
