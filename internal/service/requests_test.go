package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	"universalnet/internal/topology"
)

// TestValidateCeilings checks each request limit just inside and just
// outside its boundary. Only Validate runs: no over-ceiling request is
// computed.
func TestValidateCeilings(t *testing.T) {
	route := func(topology string, m int) error {
		return RouteRequest{Topology: topology, M: m}.withDefaults().Validate()
	}
	simulate := func(topology string, n, m int) error {
		return SimulateRequest{Topology: topology, N: n, M: m}.withDefaults().Validate()
	}
	embed := func(topology string, n, m int) error {
		return EmbedRequest{Topology: topology, N: n, M: m}.withDefaults().Validate()
	}
	cases := []struct {
		name string
		err  error
		ok   bool
	}{
		// Greedy-routed hosts: at most 4096 processors.
		{"ring m=4096", route("ring", 4096), true},
		{"ring m=4097", route("ring", 4097), false},
		{"expander m=4096", route("expander", 4096), true},
		{"expander m=4097", route("expander", 4097), false},
		{"embed ring m=4097", embed("ring", 64, 4097), false},
		{"butterfly d=8 (2048 processors)", route("butterfly", 8), true},
		{"butterfly d=9 (4608 processors)", route("butterfly", 9), false},
		{"ccc d=8 (2048 processors)", route("ccc", 8), true},
		{"ccc d=9 (4608 processors)", route("ccc", 9), false},
		// Dimension floors: the wrapped butterfly starts at 2, ccc at 3.
		{"butterfly d=2", route("butterfly", 2), true},
		{"butterfly d=1", route("butterfly", 1), false},
		{"ccc d=3", route("ccc", 3), true},
		{"ccc d=2", route("ccc", 2), false},
		// The dimension-order torus keeps no BFS rows: only maxHostSize.
		{"torus m=65536", route("torus", 1<<16), true},
		{"torus m=65537", route("torus", 1<<16+1), false},
		// Simulations: m·n at most 2²⁴, m counted in processors.
		{"simulate torus 4096·4096", simulate("torus", 4096, 4096), true},
		{"simulate torus 4096·4097", simulate("torus", 4097, 4096), false},
		{"simulate torus 65536·256", simulate("torus", 256, 1<<16), true},
		{"simulate torus 65536·257", simulate("torus", 257, 1<<16), false},
		{"simulate ring 1024·16384", simulate("ring", 1<<14, 1024), true},
		{"simulate ring 1025·16384", simulate("ring", 1<<14, 1025), false},
		{"simulate ccc d=8 2048·8192", simulate("ccc", 8192, 8), true},
		{"simulate ccc d=8 2048·8193", simulate("ccc", 8193, 8), false},
		{"embed torus 65536·16384", embed("torus", 1<<14, 1<<16), true},
	}
	for _, c := range cases {
		if (c.err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, c.err, c.ok)
		}
	}
}

// TestCCCDimensionTwoIsBadRequest: Validate starts ccc at dimension 3, where
// its builder does, so m=2 is the client's error (400), not a failed
// computation (500).
func TestCCCDimensionTwoIsBadRequest(t *testing.T) {
	h := Handler(newTestService(t, Config{Workers: 1}))
	if w := postJSON(t, h, "/v1/route", `{"topology":"ccc","m":2,"seed":1}`); w.Code != http.StatusBadRequest {
		t.Errorf("ccc m=2: status %d, want 400; body %s", w.Code, w.Body)
	}
}

// TestHostCacheKeysOnlyWhatTheHostDependsOn: torus graphs do not depend on
// the seed, so two seeds share one cached host; expander graphs do, so they
// do not.
func TestHostCacheKeysOnlyWhatTheHostDependsOn(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	ctx := context.Background()
	for _, seed := range []int64{1, 2} {
		if _, err := s.Route(ctx, RouteRequest{Topology: "torus", M: 16, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Status().Hosts; st.Misses != 1 || st.Hits != 1 {
		t.Errorf("two torus seeds: host cache misses %d, hits %d; want 1 and 1", st.Misses, st.Hits)
	}
	for _, seed := range []int64{1, 2} {
		if _, err := s.Route(ctx, RouteRequest{Topology: "expander", M: 16, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Status().Hosts; st.Misses != 3 || st.Hits != 1 {
		t.Errorf("then two expander seeds: host cache misses %d, hits %d; want 3 and 1", st.Misses, st.Hits)
	}
}

// TestValidateRejectsWhatBuildersRefuse: each request below once passed
// Validate and failed in its host, guest or pattern builder with a 500; it
// is now the client's error, a 400 carrying Validate's message.
func TestValidateRejectsWhatBuildersRefuse(t *testing.T) {
	h := Handler(newTestService(t, Config{Workers: 1}))
	cases := []struct{ path, body, want string }{
		{"/v1/route", `{"topology":"torus","m":5,"seed":1}`,
			"service: torus size m=5 out of range [9,65536]"},
		{"/v1/simulate", `{"topology":"torus","n":64,"m":10,"seed":1}`,
			"service: torus size m=10 is not a perfect square"},
		{"/v1/route", `{"topology":"torus","m":4,"seed":1}`,
			"service: torus size m=4 out of range [9,65536]"},
		{"/v1/route", `{"topology":"expander","m":4,"seed":1}`,
			"service: expander size m=4 out of range [5,65536]"},
		{"/v1/simulate", `{"topology":"ring","n":5,"m":8,"seed":1,"guest_degree":3}`,
			"service: n·guest_degree = 5·3 is odd"},
		{"/v1/embed", `{"topology":"ring","n":5,"m":8,"seed":1,"guest_degree":3}`,
			"service: n·guest_degree = 5·3 is odd"},
		{"/v1/embed", `{"topology":"ring","n":4,"m":8,"seed":1,"guest_degree":4}`,
			"service: guest_degree=4 not below n=4"},
		{"/v1/embed", `{"topology":"torus","n":1024,"m":64,"seed":1,"guest_degree":2}`,
			"service: guest_degree=2 out of range [3,8]"},
		{"/v1/route", `{"topology":"ring","m":7,"seed":1,"pattern":"bitreversal"}`,
			"service: bitreversal needs a power-of-two host, ring m=7 has 7 processors"},
		{"/v1/route", `{"topology":"butterfly","m":3,"seed":1,"pattern":"bitreversal"}`,
			"service: bitreversal needs a power-of-two host, butterfly m=3 has 24 processors"},
	}
	for _, c := range cases {
		w := postJSON(t, h, c.path, c.body)
		var body apiError
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatalf("POST %s %s: %v", c.path, c.body, err)
		}
		if want := ErrInvalid.Error() + ": " + c.want; w.Code != http.StatusBadRequest || body.Error != want {
			t.Errorf("POST %s %s: status %d error %q, want 400 %q", c.path, c.body, w.Code, body.Error, want)
		}
	}
}

// FuzzRequestValidate decodes a /v1 body as the handler does (the first
// byte picks simulate, route or embed), applies the request's defaults and
// Validate, and for an accepted request on at most 64 processors with at
// most 256 guests builds what its compute builds first: the host, then the
// guest or the route pattern. Nothing may panic, and an accepted request's
// builders may fail only by chance, with topology.ErrGenerationFailed.
func FuzzRequestValidate(f *testing.F) {
	seeds := []struct {
		kind byte
		body string
	}{
		{0, `{"topology":"torus","n":64,"m":16,"seed":1,"steps":2}`},
		{0, `{"topology":"ccc","n":96,"m":3,"seed":4,"guest_degree":3}`},
		{0, `{"topology":"torus","n":64,"m":5}`},
		{0, `{"topology":"ring","n":5,"m":8,"guest_degree":3}`},
		{1, `{"topology":"expander","m":16,"seed":2,"pattern":"hh","h":3}`},
		{1, `{"topology":"butterfly","m":2,"pattern":"bitreversal"}`},
		{1, `{"topology":"butterfly","m":3,"pattern":"bitreversal"}`},
		{1, `{"topology":"ring","m":7,"pattern":"bitreversal"}`},
		{2, `{"topology":"expander","n":40,"m":5,"seed":9,"guest_degree":4}`},
		{2, `{"topology":"ring","n":4,"m":8,"guest_degree":4}`},
		{2, `{"topology":"torus","n":20,"m":9,"bogus":1}`},
	}
	for _, s := range seeds {
		f.Add(append([]byte{s.kind}, s.body...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		body := data[1:]
		small := func(name string, m, n int) bool { return processors(name, m) <= 64 && n <= 256 }
		// build runs buildHost, then next on the host's processor count.
		build := func(name string, m int, seed int64, next func(procs int) error) {
			host, err := buildHost(name, m, seed)
			if err == nil {
				err = next(host.Graph.N())
			}
			if err != nil && !errors.Is(err, topology.ErrGenerationFailed) {
				t.Fatalf("%s m=%d seed %d: accepted, then %v", name, m, seed, err)
			}
		}
		guestOf := func(n, deg int, seed int64) func(int) error {
			return func(int) error {
				_, _, err := guest(n, deg, seed)
				return err
			}
		}
		switch data[0] % 3 {
		case 0:
			if req, ok := accepted[SimulateRequest](body); ok && small(req.Topology, req.M, req.N) {
				build(req.Topology, req.M, req.Seed, guestOf(req.N, req.GuestDegree, req.Seed))
			}
		case 1:
			if req, ok := accepted[RouteRequest](body); ok && small(req.Topology, req.M, 0) {
				build(req.Topology, req.M, req.Seed, func(procs int) error {
					_, err := req.problem(procs)
					return err
				})
			}
		case 2:
			if req, ok := accepted[EmbedRequest](body); ok && small(req.Topology, req.M, req.N) {
				build(req.Topology, req.M, req.Seed, guestOf(req.N, req.GuestDegree, req.Seed))
			}
		}
	})
}

// request is what each /v1 request type provides.
type request[T any] interface {
	withDefaults() T
	Validate() error
}

// accepted decodes body as the handler does and reports whether the
// request, with its defaults, passes Validate.
func accepted[T request[T]](body []byte) (T, bool) {
	var req T
	err := newDecoder(bytes.NewReader(body)).Decode(&req)
	req = req.withDefaults()
	return req, err == nil && req.Validate() == nil
}

// TestHostSizeChargesRows checks that the host cache charges each family's
// graph the bytes its rows hold, 8(N+1) + 16M, plus 64 for the entry; the
// d = 2 wrapped butterfly repeats edges, and its charge covers the spare
// capacity their removal leaves.
func TestHostSizeChargesRows(t *testing.T) {
	for _, c := range []struct {
		name string
		m    int
	}{{"torus", 64}, {"ring", 64}, {"expander", 64}, {"butterfly", 2}, {"butterfly", 5}, {"ccc", 3}, {"ccc", 6}} {
		h, err := buildHost(c.name, c.m, 1)
		if err != nil {
			t.Fatal(err)
		}
		g := h.Graph
		rows := int64(8*(g.N()+1) + 16*g.M())
		got := hostSize(hostEntry{name: h.Name, g: g})
		if c.name == "butterfly" && c.m == 2 {
			if got <= rows+64 {
				t.Errorf("butterfly m=2: charged %d bytes, want more than its rows' %d plus 64", got, rows)
			}
		} else if got != rows+64 {
			t.Errorf("%s m=%d: charged %d bytes, want its rows' %d plus 64", c.name, c.m, got, rows)
		}
	}
}
