package pebble

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"universalnet/internal/graph"
	"universalnet/internal/topology"
)

// upb1 returns a UPB1 stream: the magic, a guest vertex count n, then rest.
func upb1(n uint64, rest ...byte) []byte {
	return append(binary.AppendUvarint([]byte("UPB1"), n), rest...)
}

// upb1Spec returns a complete UPB1 stream with no steps: an edgeless
// guest of n vertices, an edgeless host of m vertices, and horizon T.
func upb1Spec(n, m, T uint64) []byte {
	data := binary.AppendUvarint(upb1(n, 0), m)
	return append(binary.AppendUvarint(append(data, 0), T), 0)
}

// craftedBinary are UPB1 streams with a crafted count. Each must be an
// error. Before the checks, a guest of 2⁶³ vertices wrapped negative and
// panicked, while the 11-byte stream with a guest of 2⁴⁰ vertices and the
// step claiming 2²⁸ ops ran out of memory, which no recover can catch.
// Before checkDecodedSpec, the horizon streams decoded, and validating
// them ran out of memory (T = 2⁴⁰), panicked in makeslice (T = 2⁶²), or
// sized the tables from a wrapped (T+1)·n (T = 2⁶³ reads as -2⁶³). Before
// the ceiling was checked ahead of the graphs, the 16-byte stream of a
// 2²⁴-vertex guest on a 2²⁴-vertex host allocated 1.5 GB of adjacency
// before it was refused.
var craftedBinary = [][]byte{
	upb1(1<<63, 0),
	upb1(1<<40, 0),
	upb1(1<<24+1, 0),
	// A one-vertex guest and host, T = 0, then a step of 2²⁸ ops.
	upb1(1, append([]byte{0, 1, 0, 0, 1}, binary.AppendUvarint(nil, 1<<28)...)...),
	upb1Spec(1, 1, 1<<40),
	upb1Spec(1, 1, 1<<62),
	upb1Spec(4, 1, 1<<62),
	upb1Spec(1, 1, 1<<63),
	upb1Spec(1<<24, 1<<24, 0),
}

func TestDecodersRejectCraftedCounts(t *testing.T) {
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
	// A crafted horizon is refused with the header, before a validator
	// could size anything from it.
	if _, _, err := NewBinaryReader(bytes.NewReader(upb1Spec(1, 1, 1<<40))); err == nil {
		t.Error("NewBinaryReader accepted T = 2⁴⁰")
	}
}

// TestCeilingCheckedBeforeGraphs: NewBinaryReader refuses the 16-byte
// header of 2²⁴ guests on 2²⁴ hosts before it builds either graph, so the
// refusal costs the reader's buffer, not the 256 MiB of CSR offsets that
// two graphs at the vertex cap take.
func TestCeilingCheckedBeforeGraphs(t *testing.T) {
	data := upb1Spec(1<<24, 1<<24, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := NewBinaryReader(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("NewBinaryReader accepted 2²⁴ guests on 2²⁴ hosts")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("refusing a %d-byte header allocated %d bytes, want under 1 MiB", len(data), alloc)
	}
}

// TestDecodedSpecCeiling pins the decoder ceiling against the specs the
// repository builds: bigsim's n = 10⁶ and the out-of-core ladder's
// n = 10⁷, both on the d = 5 wrapped butterfly (m = 160) at T = 2, pass;
// one step more of horizon at 10⁷, and the crafted shapes, do not.
func TestDecodedSpecCeiling(t *testing.T) {
	for _, ok := range []struct{ n, m, T int }{
		{1_000_000, 160, 2},
		{10_000_000, 160, 2},
		{100_000, 896, 2},
		{0, 1, 0},
		{1 << 24, 1, 0},
	} {
		if err := checkDecodedSpec(ok.n, ok.m, ok.T); err != nil {
			t.Errorf("n=%d m=%d T=%d rejected: %v", ok.n, ok.m, ok.T, err)
		}
	}
	for _, bad := range []struct{ n, m, T int }{
		{10_000_000, 160, 3},
		{1, 1, 1 << 40},
		{4, 1, 1 << 62},
		{1, 1, math.MaxInt},
		{0, 1, math.MaxInt},
		{1 << 24, 1 << 24, 0},
		{1, 1, -1},
		{-1, 1, 0},
		{1, 1<<24 + 1, 0},
	} {
		if err := checkDecodedSpec(bad.n, bad.m, bad.T); err == nil {
			t.Errorf("n=%d m=%d T=%d accepted", bad.n, bad.m, bad.T)
		}
	}
}

// validateNoPanic validates a decoded protocol, which may be illegal:
// Validate must reject it, not panic.
func validateNoPanic(t *testing.T, pr *Protocol) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Validate panicked: %v", r)
		}
	}()
	_, _ = pr.Validate()
}

// FuzzReadBinary feeds arbitrary bytes to the UPB1 decoder. It must return
// an error or a protocol, never panic or run out of memory; a protocol it
// accepts must validate or be rejected without a panic, and come back
// unchanged through WriteBinary.
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
		validateNoPanic(t, pr)
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
// shard count and barrier window must return identical error text. The
// State that ValidateSource's ahead path records while its core runs ahead
// must equal one built by ApplyStep over the same steps (sameStates). A
// panic in any engine fails the target. The seed corpus is builder protocols and their
// mutants, as in the fixed-seed suites.
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
		inc := NewState(sp.Guest, sp.Host, sp.T)
		var incErr error
		for i, ops := range pr.Steps {
			if err := inc.ApplyStep(ops); err != nil {
				incErr = fmt.Errorf("pebble: host step %d: %w", i+1, err)
				break
			}
		}
		if incErr == nil {
			_, incErr = inc.sv.Finish()
		}
		// ValidateSource drains specs this small inline, so its ahead path
		// is driven directly.
		ahead := NewState(sp.Guest, sp.Host, sp.T)
		aheadErr := ahead.sv.drainAhead(pr.Source(), ahead.record)
		if aheadErr == nil {
			_, aheadErr = ahead.sv.Finish()
		}
		if got, gotAhead := errText(incErr), errText(aheadErr); got != want || gotAhead != want {
			t.Fatalf("State.ApplyStep %q, ahead drain %q, ValidateSource %q", got, gotAhead, want)
		}
		if err == nil {
			sameStates(t, inc, ahead)
		}
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

// sameStates requires two States of one spec to give the same answers:
// HostStep, PebbleCount, and Weight, Representatives and Generators for
// every (i, t), and FrontierSize at the start, middle and end of the run.
func sameStates(t *testing.T, want, got *State) {
	t.Helper()
	if want.HostStep() != got.HostStep() || want.PebbleCount() != got.PebbleCount() {
		t.Fatalf("HostStep, PebbleCount: ApplyStep %d, %d; ValidateSource %d, %d",
			want.HostStep(), want.PebbleCount(), got.HostStep(), got.PebbleCount())
	}
	for tt := 0; tt <= want.T; tt++ {
		for i := 0; i < want.n; i++ {
			if a, b := want.Weight(i, tt), got.Weight(i, tt); a != b {
				t.Fatalf("Weight(%d,%d): ApplyStep %d, ValidateSource %d", i, tt, a, b)
			}
			if a, b := want.Representatives(i, tt), got.Representatives(i, tt); !slices.Equal(a, b) {
				t.Fatalf("Representatives(%d,%d): ApplyStep %v, ValidateSource %v", i, tt, a, b)
			}
			if a, b := want.Generators(i, tt), got.Generators(i, tt); !slices.Equal(a, b) {
				t.Fatalf("Generators(%d,%d): ApplyStep %v, ValidateSource %v", i, tt, a, b)
			}
		}
		for _, τ := range []int{0, want.HostStep() / 2, want.HostStep()} {
			if a, b := want.FrontierSize(tt, τ), got.FrontierSize(tt, τ); a != b {
				t.Fatalf("FrontierSize(%d,%d): ApplyStep %d, ValidateSource %d", tt, τ, a, b)
			}
		}
	}
}
