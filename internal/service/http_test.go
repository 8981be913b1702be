package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"universalnet/internal/obs"
)

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestHandlerSimulate(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	h := Handler(s)
	w := postJSON(t, h, "/v1/simulate", `{"topology":"torus","n":64,"m":16,"seed":7,"steps":4}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var res SimulateResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Slowdown <= 0 || res.Cached {
		t.Errorf("implausible first response: %+v", res)
	}
	w = postJSON(t, h, "/v1/simulate", `{"topology":"torus","n":64,"m":16,"seed":7,"steps":4}`)
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("identical request not served from cache")
	}
}

func TestHandlerRouteEmbedStatus(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	h := Handler(s)
	if w := postJSON(t, h, "/v1/route", `{"topology":"ring","m":16,"seed":2}`); w.Code != http.StatusOK {
		t.Errorf("route status = %d, body %s", w.Code, w.Body)
	}
	if w := postJSON(t, h, "/v1/embed", `{"topology":"torus","n":64,"m":16,"seed":2}`); w.Code != http.StatusOK {
		t.Errorf("embed status = %d, body %s", w.Code, w.Body)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/status", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status endpoint = %d", w.Code)
	}
	var st Status
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Workers != 2 || st.Completed < 2 {
		t.Errorf("status implausible: %+v", st)
	}
}

func TestHandlerErrorMapping(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	h := Handler(s)
	cases := []struct {
		path, body string
		want       int
	}{
		{"/v1/simulate", `{"topology":"klein-bottle","n":64,"m":16}`, http.StatusBadRequest},
		{"/v1/simulate", `not json`, http.StatusBadRequest},
		{"/v1/simulate", `{"topology":"torus","n":64,"m":16,"bogus_field":1}`, http.StatusBadRequest},
		{"/v1/route", `{"topology":"torus","m":36,"pattern":"bitreversal"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if w := postJSON(t, h, c.path, c.body); w.Code != c.want {
			t.Errorf("POST %s %q: status %d, want %d (body %s)", c.path, c.body, w.Code, c.want, w.Body)
		}
	}
	// Method guards.
	req := httptest.NewRequest(http.MethodGet, "/v1/simulate", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET simulate = %d, want 405", w.Code)
	}
	req = httptest.NewRequest(http.MethodPost, "/v1/status", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", w.Code)
	}
}

func TestHandlerOverloadMapsTo429(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 1})
	h := Handler(s)
	block := make(chan struct{})
	defer close(block)
	running := make(chan struct{})
	if err := s.submit(func() { close(running); <-block }); err != nil {
		t.Fatal(err)
	}
	<-running
	if err := s.submit(func() {}); err != nil {
		t.Fatal(err)
	}
	w := postJSON(t, h, "/v1/simulate", `{"topology":"torus","n":16,"m":16,"seed":1}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded status = %d, want 429 (body %s)", w.Code, w.Body)
	}
	var e apiError
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Errorf("429 body not a JSON error envelope: %s", w.Body)
	}
}

func TestDrainWrapper(t *testing.T) {
	s := New(Config{Workers: 1, Obs: obs.New()})
	h := Drain(s.Draining, Handler(s))
	w := postJSON(t, h, "/v1/route", `{"topology":"ring","m":16,"seed":2}`)
	if w.Code != http.StatusOK {
		t.Fatalf("pre-drain status = %d", w.Code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	w = postJSON(t, h, "/v1/route", `{"topology":"ring","m":16,"seed":2}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d, want 503", w.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/status", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("status during drain = %d, want 503", rec.Code)
	}
}
