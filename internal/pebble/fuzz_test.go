package pebble

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"universalnet/internal/graph"
	"universalnet/internal/topology"
)

// craftedJSON are protocol documents whose graph vertex counts are negative
// or far above graph.CheckVertexCount's cap. Each must be an error: before
// the check, the first panicked and the second exhausted memory.
var craftedJSON = []string{
	`{"guest":{"n":-1},"host":{"n":1},"t":0,"steps":[]}`,
	`{"guest":{"n":1},"host":{"n":1099511627776},"t":0,"steps":[]}`,
}

// upb1 returns a UPB1 stream: the magic, a guest vertex count n, then rest.
func upb1(n uint64, rest ...byte) []byte {
	return append(binary.AppendUvarint([]byte("UPB1"), n), rest...)
}

// craftedBinary are UPB1 streams with a crafted count. Each must be an
// error. Before the checks, a guest of 2⁶³ vertices wrapped negative and
// panicked, while the 11-byte stream with a guest of 2⁴⁰ vertices and the
// step claiming 2²⁸ ops ran out of memory, which no recover can catch.
var craftedBinary = [][]byte{
	upb1(1<<63, 0),
	upb1(1<<40, 0),
	upb1(1<<24+1, 0),
	// A one-vertex guest and host, T = 0, then a step of 2²⁸ ops.
	upb1(1, append([]byte{0, 1, 0, 0, 1}, binary.AppendUvarint(nil, 1<<28)...)...),
}

func TestDecodersRejectCraftedCounts(t *testing.T) {
	for _, data := range craftedJSON {
		if _, err := ReadJSON(strings.NewReader(data)); err == nil {
			t.Errorf("ReadJSON accepted %s", data)
		}
	}
	for _, data := range craftedBinary {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("ReadBinary accepted %x", data)
		}
	}
	// The cap itself is admissible: the read fails only at the missing
	// edge count that follows.
	_, _, err := NewBinaryReader(bytes.NewReader(upb1(1 << 24)))
	if !errors.Is(err, io.EOF) {
		t.Errorf("header with 2²⁴ vertices: %v, want EOF", err)
	}
}

func FuzzProtocolReadJSON(f *testing.F) {
	f.Add(`{"guest":{"n":2,"edges":[[0,1]]},"host":{"n":2,"edges":[[0,1]]},"t":1,"steps":[[{"kind":"generate","proc":0,"p":0,"t":1}]]}`)
	f.Add(`{"guest":{"n":1},"host":{"n":1},"t":0,"steps":[]}`)
	f.Add(`garbage`)
	for _, data := range craftedJSON {
		f.Add(data)
	}
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

// FuzzReadBinary feeds arbitrary bytes to the UPB1 decoder. It must return
// an error or a protocol, never panic or run out of memory, and a protocol
// it accepts must come back unchanged through WriteBinary.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := streamFixture(f).WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, data := range craftedBinary {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pr, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var re bytes.Buffer
		if err := pr.WriteBinary(&re); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := ReadBinary(&re)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if back.T != pr.T || !back.Guest.Equal(pr.Guest) || !back.Host.Equal(pr.Host) ||
			!reflect.DeepEqual(back.Steps, pr.Steps) {
			t.Fatal("round trip changed the protocol")
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
