package pebble

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"universalnet/internal/graph"
	"universalnet/internal/topology"
)

func FuzzProtocolReadJSON(f *testing.F) {
	f.Add(`{"guest":{"n":2,"edges":[[0,1]]},"host":{"n":2,"edges":[[0,1]]},"t":1,"steps":[[{"kind":"generate","proc":0,"p":0,"t":1}]]}`)
	f.Add(`{"guest":{"n":1},"host":{"n":1},"t":0,"steps":[]}`)
	f.Add(`garbage`)
	f.Fuzz(func(t *testing.T, data string) {
		pr, err := ReadJSON(strings.NewReader(data))
		if err != nil {
			return
		}
		// Decoded protocols may be illegal — Validate must reject, not panic.
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Validate panicked: %v", r)
				}
			}()
			_, _ = pr.Validate()
		}()
		// And re-encoding must succeed for anything we decoded.
		var buf bytes.Buffer
		if err := pr.WriteJSON(&buf); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
	})
}

// fuzzHeaderBytes is the prefix of a FuzzLegalityEngines input that picks
// the spec (see fuzzSpec); the rest is steps in the chunk codec.
const fuzzHeaderBytes = 4

// maxFuzzSteps caps the steps decoded from one input.
const maxFuzzSteps = 64

// fuzzSpec maps a header to a small spec: a connected 2-regular guest on
// 3 + hdr[0]%7 processors drawn from seed hdr[1]; by hdr[2]%4 a 6-ring, the
// 3×3 torus, the 3×3 mesh or a random 3-regular host on 8 processors; and
// T = 1 + hdr[3]%3. ok is false when the seed draws no such graph.
func fuzzSpec(hdr []byte) (sp Spec, ok bool) {
	rng := rand.New(rand.NewSource(int64(hdr[1])))
	guest, err := topology.RandomGuest(rng, 3+int(hdr[0])%7, 2)
	if err != nil {
		return Spec{}, false
	}
	var host *graph.Graph
	switch hdr[2] % 4 {
	case 0:
		host, err = topology.Ring(6)
	case 1:
		host, err = topology.Torus(9)
	case 2:
		host, err = topology.Mesh(9)
	default:
		host, err = topology.RandomRegular(rng, 8, 3)
	}
	if err != nil {
		return Spec{}, false
	}
	return Spec{Guest: guest, Host: host, T: 1 + int(hdr[3])%3}, true
}

// encodeFuzzInput is the inverse of FuzzLegalityEngines' decoding.
func encodeFuzzInput(hdr []byte, steps [][]Op) []byte {
	data := append([]byte(nil), hdr...)
	for _, ops := range steps {
		data = appendStepBytes(data, ops)
	}
	return data
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzLegalityEngines is the differential guard on the legality engines.
// Every input is a spec and an op stream. The map-based oracle and
// State.ApplyStep must agree at every step (replayBoth's rule), and
// ValidateSource, StreamValidator with Finish, and ValidateSharded at every
// shard count and barrier window must return identical error text. A panic
// in any engine fails the target. The seed corpus is builder protocols and
// their mutants, as in the fixed-seed suites.
func FuzzLegalityEngines(f *testing.F) {
	for seed := 0; seed < 16; seed++ {
		hdr := []byte{byte(seed), byte(seed), byte(seed), byte(seed / 4)}
		sp, ok := fuzzSpec(hdr)
		if !ok {
			continue
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		fa := RandomizedAssignment(sp.Guest.N(), sp.Host.N(), int64(seed))
		var pr *Protocol
		var err error
		switch seed % 5 {
		case 0:
			pr, err = RandomProtocol(sp.Guest, sp.Host, sp.T, rng, 0)
		case 1:
			pr, err = BuildEmbeddingProtocol(sp.Guest, sp.Host, fa, sp.T)
		case 2:
			pr, err = BuildPipelinedProtocol(sp.Guest, sp.Host, fa, sp.T)
		case 3:
			pr, err = BuildMulticastProtocol(sp.Guest, sp.Host, fa, sp.T)
		default:
			pr, err = BuildQueuedEmbeddingProtocol(sp.Guest, sp.Host, fa, sp.T)
		}
		if err != nil {
			continue // e.g. a disconnected random host
		}
		f.Add(encodeFuzzInput(hdr, pr.Steps))
		for k := 0; k < 2; k++ {
			f.Add(encodeFuzzInput(hdr, mutate(pr, rng).Steps))
		}
	}
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < fuzzHeaderBytes {
			return
		}
		sp, ok := fuzzSpec(data[:fuzzHeaderBytes])
		if !ok {
			return
		}
		pr := &Protocol{Guest: sp.Guest, Host: sp.Host, T: sp.T}
		for rest := data[fuzzHeaderBytes:]; len(rest) > 0 && len(pr.Steps) < maxFuzzSteps; {
			ops, k, err := decodeStepBytes(rest, nil)
			if err != nil {
				break
			}
			pr.Steps = append(pr.Steps, ops)
			rest = rest[k:]
		}

		replayBoth(t, pr, false)

		_, err := ValidateSource(sp, pr.Source())
		want := errText(err)
		sv, err := NewStreamValidator(sp)
		if err != nil {
			t.Fatal(err)
		}
		if err = drain(pr.Source(), sv); err == nil {
			_, err = sv.Finish()
		}
		if got := errText(err); got != want {
			t.Fatalf("StreamValidator %q, ValidateSource %q", got, want)
		}
		for _, shards := range []int{1, 2, 3, 5} {
			for _, window := range []int{1, 3, 16} {
				_, err := ValidateSharded(sp, pr.Source(), ShardedOptions{Shards: shards, Window: window})
				if got := errText(err); got != want {
					t.Fatalf("shards=%d window=%d: ValidateSharded %q, ValidateSource %q", shards, window, got, want)
				}
			}
		}
	})
}
