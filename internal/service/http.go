package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"universalnet/internal/cluster"
	"universalnet/internal/obs"
)

// maxBodyBytes bounds a request body; the typed requests are tiny.
const maxBodyBytes = 1 << 16

// Handler mounts the service as JSON-over-HTTP under /v1/: POST
// /v1/simulate, /v1/route, /v1/embed and GET /v1/status, /v1/health.
// Error mapping: 400 invalid request, 429 admission-control rejection
// (ErrOverloaded), 502 peer unreachable without local fallback
// (cluster.ErrPeerUnreachable), 503 draining (ErrClosed), 504 per-request
// deadline, 500 engine errors.
func Handler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(cluster.HealthPath, handleHealth(""))
	mux.HandleFunc("/v1/simulate", post(s, func(ctx context.Context, req SimulateRequest) (*SimulateResult, error) {
		return s.Simulate(ctx, req)
	}))
	mux.HandleFunc("/v1/route", post(s, func(ctx context.Context, req RouteRequest) (*RouteResult, error) {
		return s.Route(ctx, req)
	}))
	mux.HandleFunc("/v1/embed", post(s, func(ctx context.Context, req EmbedRequest) (*EmbedResult, error) {
		return s.Embed(ctx, req)
	}))
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, errors.New("service: GET only"), s.encodeErrs)
			return
		}
		writeJSON(w, http.StatusOK, s.Status(), s.encodeErrs)
	})
	return mux
}

// validated is implemented by every request type; post uses it to separate
// 400s from engine failures.
type validated interface {
	Validate() error
}

// post adapts one typed service method to an HTTP handler, timing the
// decode and encode stages onto the request's timings (when the Telemetry
// middleware installed them).
func post[Req validated, Res any](s *Service, call func(context.Context, Req) (*Res, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, errors.New("service: POST only"), s.encodeErrs)
			return
		}
		rt := timingsFrom(r.Context())
		var req Req
		dec := newDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		decodeStart := time.Now()
		err := dec.Decode(&req)
		rt.record(stageDecode, decodeStart)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad request body: %w", err), s.encodeErrs)
			return
		}
		res, err := call(r.Context(), req)
		if err != nil {
			writeError(w, statusFor(err), err, s.encodeErrs)
			return
		}
		encodeStart := time.Now()
		writeJSON(w, http.StatusOK, res, s.encodeErrs)
		rt.record(stageEncode, encodeStart)
	}
}

// newDecoder returns the request body decoder, which refuses unknown
// fields.
func newDecoder(body io.Reader) *json.Decoder {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	return dec
}

// statusFor maps service errors onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, cluster.ErrPeerUnreachable):
		return http.StatusBadGateway
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error, encodeErrs *obs.Counter) {
	writeJSON(w, code, apiError{Error: err.Error()}, encodeErrs)
}

// writeJSON encodes v onto w. Encode failures (client hangup mid-response,
// unmarshalable value) cannot be reported to the client — the status line is
// already written — so they are counted on encodeErrs (nil-safe) and logged
// once per error class instead of being silently discarded.
func writeJSON(w http.ResponseWriter, code int, v any, encodeErrs *obs.Counter) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		encodeErrs.Inc()
		logEncodeErrorOnce(err)
	}
}

// Drain wraps next so that once draining() reports true every request is
// answered 503 immediately — the serve command flips this during graceful
// shutdown so in-flight keep-alive connections cannot race the listener
// teardown with new work.
func Drain(draining func() bool, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if draining() {
			w.Header().Set("Connection", "close")
			writeError(w, http.StatusServiceUnavailable, ErrClosed, nil)
			return
		}
		next.ServeHTTP(w, r)
	})
}
