package graph

import (
	"bytes"
	"strings"
	"testing"
)

// Native fuzz targets (run with seed corpus in normal `go test`; extend
// with `go test -fuzz=FuzzReadJSON ./internal/graph`).

func FuzzReadJSON(f *testing.F) {
	f.Add(`{"n":3,"edges":[[0,1],[1,2]]}`)
	f.Add(`{"n":0}`)
	f.Add(`{"n":2,"edges":[[0,0]]}`)
	f.Add(`{`)
	f.Add(`{"n":-1}`)
	f.Add(`{"n":1099511627776}`)
	f.Fuzz(func(t *testing.T, data string) {
		g, err := ReadJSON(strings.NewReader(data))
		if err != nil {
			return // malformed input must only error, never panic
		}
		// Round-trip stability for accepted graphs.
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted graph fails validation: %v", verr)
		}
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !g.Equal(back) {
			t.Fatal("round trip changed the graph")
		}
	})
}
