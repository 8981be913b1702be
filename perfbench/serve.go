package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"universalnet/internal/cluster"
	"universalnet/internal/obs"
	"universalnet/internal/service"
)

// The serve workload is the /v1 service under mixed traffic: service.New
// with its defaults behind service.Handler on a loopback listener, driven
// by a closed loop of serveConns keep-alive connections, each caller
// waiting for its reply. Hits exercise decode/encode, the cache peek and
// telemetry; misses exercise the simulation engines, the queue and the
// caches.
const (
	serveHot       = 32   // hot keys, warmed during set-up
	serveTimed     = 1500 // timed requests per repetition: 15 lie beyond p99
	serveColdEvery = 10   // every tenth timed request is a key never seen before
	serveConns     = 2
	serveZipfS     = 1.2 // popularity skew over the hot keys
)

// serveRequest is one /v1 call. The body is the whole request tuple, so
// equal bodies are equal cache keys.
type serveRequest struct {
	path, body string
}

func (q serveRequest) key() string { return q.path + " " + q.body }

// requestKinds are the request shapes, all about n = 1024 and m = 64, with
// the key's seed left to fill in. A miss costs from under a millisecond
// (route) to tens of milliseconds (simulate).
var requestKinds = []serveRequest{
	{"/v1/simulate", `{"topology":"torus","n":1024,"m":64,"seed":%d}`},
	{"/v1/simulate", `{"topology":"expander","n":1024,"m":64,"seed":%d}`},
	{"/v1/simulate", `{"topology":"ccc","n":1024,"m":4,"seed":%d}`}, // dimension 4: 64 processors
	{"/v1/embed", `{"topology":"expander","n":1024,"m":64,"seed":%d}`},
	{"/v1/route", `{"topology":"torus","m":64,"seed":%d,"pattern":"hh","h":8}`},
}

// keyed fills kind i (mod the kinds) with seed.
func keyed(i int, seed int64) serveRequest {
	k := requestKinds[i%len(requestKinds)]
	return serveRequest{k.path, fmt.Sprintf(k.body, seed)}
}

// requestSequence returns seed's hot keys, which set-up warms, and its
// timed sequence: Zipf draws over the hot keys, except that every
// serveColdEvery-th request is a fresh key from the cold tail. Exactly one
// timed request in serveColdEvery therefore misses the cache, whatever the
// seed, so the miss count — which sets throughput — does not vary between
// seeds. Kinds rotate in fixed order over both sets for the same reason.
func requestSequence(seed int64) (hot, timed []serveRequest) {
	rng := rand.New(rand.NewSource(seed))
	used := map[int64]bool{}
	fresh := func(lo int64) int64 { // hot seeds in [0, 2³⁰), cold in [2³⁰, 2³¹)
		for {
			s := lo + rng.Int63n(1<<30)
			if !used[s] {
				used[s] = true
				return s
			}
		}
	}
	for i := 0; i < serveHot; i++ {
		hot = append(hot, keyed(i, fresh(0)))
	}
	zipf := rand.NewZipf(rng, serveZipfS, 1, serveHot-1)
	for i := 0; i < serveTimed; i++ {
		if i%serveColdEvery == serveColdEvery-1 {
			timed = append(timed, keyed(i/serveColdEvery, fresh(1<<30)))
		} else {
			timed = append(timed, hot[zipf.Uint64()])
		}
	}
	return hot, timed
}

// answer is one reply as the client saw it.
type answer struct {
	status  int
	body    []byte
	latency time.Duration
	err     error
}

func runServe(ctx context.Context, r *rep) error {
	hot, timed := requestSequence(r.seed)
	var cfg service.Config // the defaults; traced, a registry for /v1/status
	if r.traced {
		// The server draws its span IDs from a stream of its own, seeded per
		// repetition like the client's, so no two spans of a run share an ID.
		cfg.Obs = obs.New().SetTrace(r.sink).SetIDSeed(r.idSeed ^ 0x5e7e)
	}
	svc := service.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	// Telemetry is a pass-through without a registry, so only the traced
	// run pays for it.
	srv := &http.Server{Handler: service.Telemetry(svc, service.TelemetryOptions{Node: ln.Addr().String()}, service.Handler(svc))}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	transport := &http.Transport{MaxIdleConnsPerHost: serveConns, MaxConnsPerHost: serveConns}
	client := &http.Client{Transport: transport}
	base := "http://" + ln.Addr().String()
	stopped := false
	stop := func() error {
		if stopped {
			return nil
		}
		stopped = true
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		transport.CloseIdleConnections()
		err := srv.Shutdown(sctx)
		if serr := <-serveErr; serr != http.ErrServerClosed && err == nil {
			err = serr
		}
		if cerr := svc.Close(sctx); err == nil {
			err = cerr
		}
		return err
	}
	defer stop()

	wctx, wsp := r.span(ctx, "service.warm")
	first := map[string]string{} // key → canonical first answer
	for _, q := range hot {
		a := r.call(wctx, client, base, q)
		c, _, err := canonical(a.body)
		if a.err != nil || a.status != http.StatusOK || err != nil {
			wsp.End()
			return fmt.Errorf("warm-up %s: status %d: %v %v", q.key(), a.status, a.err, err)
		}
		first[q.key()] = c
	}
	wsp.End()

	tctx, done := r.timed(ctx)
	answers := make([]answer, len(timed))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(timed) {
					return
				}
				answers[i] = r.call(tctx, client, base, timed[i])
			}
		}()
	}
	wg.Wait()
	done()

	var status service.Status
	if r.traced {
		_, sp := r.span(ctx, "service.status")
		err := getJSON(client, base+"/v1/status", &status)
		sp.End()
		if err != nil {
			return fmt.Errorf("status: %w", err)
		}
	}
	if err := stop(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}

	r.res.Attempted = int64(len(timed))
	var all, hits, misses []float64
	for i, a := range answers {
		c, cached, err := canonical(a.body)
		if a.err != nil || a.status != http.StatusOK || err != nil {
			r.res.Failed++
			if r.res.Failed <= 3 {
				r.fail("request %d %s: status %d: %v %v", i, timed[i].key(), a.status, a.err, err)
			}
			continue
		}
		k := timed[i].key()
		if f, ok := first[k]; !ok {
			first[k] = c
		} else if f != c {
			r.res.Failed++
			r.fail("request %d %s: answer %s differs from first answer %s", i, k, c, f)
			continue
		}
		r.res.Ops++
		ms := float64(a.latency) / 1e6
		all = append(all, ms)
		if cached {
			hits = append(hits, ms)
		} else {
			misses = append(misses, ms)
		}
	}
	r.repeat("answers", "%016x over %d keys", answersDigest(first), len(first))
	r.repeat("hits", "%d", len(hits))

	r.layer("service.completed", float64(r.res.Ops))
	r.ratio("service.hit_share", int64(len(hits)), r.res.Ops, "completed requests answered from cache")
	r.pct("service.latency_p50_ms", all, 50)
	r.pct("service.latency_p99_ms", all, 99)
	r.pct("service.hit.latency_p50_ms", hits, 50)
	r.pct("service.miss.latency_p50_ms", misses, 50)
	r.pct("service.miss.latency_p90_ms", misses, 90)
	if !r.traced {
		return nil
	}
	r.ratio("cache.hit_ratio", status.Cache.Hits, status.Cache.Hits+status.Cache.Misses, "result-cache lookups")
	r.ratio("service.hosts.hit_ratio", status.Hosts.Hits, status.Hosts.Hits+status.Hosts.Misses, "host-graph lookups")
	r.ratio("routing.schedules.hit_ratio", status.Schedules.Hits, status.Schedules.Hits+status.Schedules.Misses, "routing-schedule lookups")
	r.layer("cache.coalesced", float64(status.Cache.Coalesced))
	r.layer("service.rejected", float64(status.Rejected))
	r.layer("service.deadline_exceeded", float64(status.DeadlineExceeded))

	// Stage times come from the stage spans the telemetry middleware emits
	// for timed requests. They are whole microseconds, and /v1/status's
	// histograms put every stage under 50 µs in one bucket, so a p50 of
	// either would read the same on every run. The mean resolves a change:
	// it divides a stage's summed time by the requests that pass through the
	// stage, not by the spans emitted, since a stage that took under 1 µs
	// emits none.
	if err := r.sink.Flush(); err != nil {
		return err
	}
	spans, err := readSpans(strings.NewReader(r.spans.String()))
	if err != nil {
		return err
	}
	from, to := r.timedStart.UnixMicro(), r.timedStart.Add(time.Duration(r.res.TimedS*float64(time.Second))).UnixMicro()
	sum := map[string]int64{}
	for _, s := range spans {
		if s.StartUS >= from && s.StartUS <= to {
			sum[s.Span] += s.DurUS
		}
	}
	for _, st := range []struct {
		name     string
		requests int
	}{
		{"decode", len(all)}, {"cache", len(all)}, {"encode", len(all)}, // every request
		{"queue", len(misses)}, {"compute", len(misses)}, // misses only
	} {
		if st.requests == 0 {
			r.fail("no timed request passed the %s stage", st.name)
			continue
		}
		r.layer("service.stage."+st.name+".mean_us", float64(sum[st.name])/float64(st.requests))
	}
	return nil
}

// call makes one request, in a span whose context the server's telemetry
// joins through the trace header.
func (r *rep) call(ctx context.Context, client *http.Client, base string, q serveRequest) answer {
	_, sp := r.span(ctx, "service.http")
	defer sp.End()
	req, err := http.NewRequest(http.MethodPost, base+q.path, strings.NewReader(q.body))
	if err != nil {
		return answer{err: err}
	}
	if sp != nil {
		req.Header.Set(cluster.TraceHeader, sp.Context().HeaderValue())
		sp.Annotate("endpoint", q.path)
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return answer{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	a := answer{status: resp.StatusCode, body: body, latency: time.Since(t0), err: err}
	sp.Annotate("status", a.status)
	return a
}

// canonical re-encodes an answer without its cached flag (keys sorted), so
// answers to one key compare byte for byte however they were served.
func canonical(body []byte) (string, bool, error) {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return "", false, fmt.Errorf("bad answer %q: %w", body, err)
	}
	cached, _ := m["cached"].(bool)
	delete(m, "cached")
	b, err := json.Marshal(m)
	return string(b), cached, err
}

// answersDigest hashes every key's canonical answer, in key order.
func answersDigest(answers map[string]string) uint64 {
	keys := make([]string, 0, len(answers))
	for k := range answers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s\x00%s\x00", k, answers[k])
	}
	return h.Sum64()
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
