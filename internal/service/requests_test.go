package service

import (
	"context"
	"net/http"
	"testing"
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
