package pebble

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"
)

func TestStepCodecRoundTrip(t *testing.T) {
	steps := [][]Op{
		nil,
		{},
		{{Kind: Generate, Proc: 0, Pebble: Type{P: 0, T: 1}}},
		{
			{Kind: Send, Proc: 3, Pebble: Type{P: 7, T: 2}, Peer: 4},
			{Kind: Receive, Proc: 4, Pebble: Type{P: 7, T: 2}, Peer: 3},
		},
		// Adversarial values: the codec must be lossless for arbitrary ops,
		// not just well-formed ones, so corrupted protocols survive a
		// round-trip and still fail validation with the same error.
		{{Kind: OpKind(-9), Proc: -1, Pebble: Type{P: -1000000, T: 1 << 40}, Peer: 1 << 33}},
	}
	var buf []byte
	for _, step := range steps {
		buf = appendStepBytes(buf[:0], step)
		got, n, err := decodeStepBytes(buf, nil)
		if err != nil {
			t.Fatalf("decode %v: %v", step, err)
		}
		if n != len(buf) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(buf))
		}
		if len(got) != len(step) {
			t.Fatalf("decoded %d ops, want %d", len(got), len(step))
		}
		for i := range step {
			if got[i] != step[i] {
				t.Fatalf("op %d: got %+v, want %+v", i, got[i], step[i])
			}
		}
	}
}

func TestDecodeStepRejectsCorruptInput(t *testing.T) {
	for _, src := range [][]byte{
		{},                 // no count
		{0x05},             // count 5, no ops
		{0x01, 0x02},       // one op, truncated mid-op
		{0xff, 0xff, 0xff}, // unterminated varint count
	} {
		if _, _, err := decodeStepBytes(src, nil); err == nil {
			t.Fatalf("decode %v: expected error", src)
		}
	}
}

func TestChunkedLogRoundTrip(t *testing.T) {
	pr := streamFixture(t)
	for _, budget := range []int64{0, 256} { // in-memory, and aggressive spill
		log := NewChunkedLog(ChunkedLogOptions{
			TargetChunkBytes: 128,
			MemBudgetBytes:   budget,
			SpillDir:         t.TempDir(),
		})
		src := pr.Source()
		for {
			ops, err := src.NextStep()
			if err != nil {
				break
			}
			if err := log.AppendStep(ops); err != nil {
				t.Fatal(err)
			}
		}
		if log.Steps() != pr.HostSteps() {
			t.Fatalf("log has %d steps, want %d", log.Steps(), pr.HostSteps())
		}
		got, err := Materialize(pr.Spec(), log.Source())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Steps, pr.Steps) {
			t.Fatalf("budget %d: chunked round-trip diverged", budget)
		}
		// A second independent reader must see the same stream.
		again, err := Materialize(pr.Spec(), log.Source())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Steps, pr.Steps) {
			t.Fatalf("budget %d: second reader diverged", budget)
		}
		if budget > 0 {
			if log.SpilledBytes() == 0 {
				t.Fatal("expected spilling under a tiny budget")
			}
			// Peak residency stays near budget + one open chunk, far below the
			// total encoding — the bound the bigsim smoke test relies on.
			if log.PeakResidentBytes() >= log.TotalBytes() {
				t.Fatalf("peak resident %d not below total %d", log.PeakResidentBytes(), log.TotalBytes())
			}
		} else if log.SpilledBytes() != 0 {
			t.Fatal("spilled without a budget")
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestChunkedLogRejectsAppendAfterSource(t *testing.T) {
	log := NewChunkedLog(ChunkedLogOptions{})
	if err := log.AppendStep([]Op{{Kind: Generate}}); err != nil {
		t.Fatal(err)
	}
	log.Source()
	if err := log.AppendStep([]Op{{Kind: Generate}}); err == nil {
		t.Fatal("expected append-after-Source error")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	pr := streamFixture(t)
	var buf bytes.Buffer
	if err := pr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.T != pr.T || !got.Guest.Equal(pr.Guest) || !got.Host.Equal(pr.Host) {
		t.Fatal("binary round-trip changed the spec")
	}
	if !reflect.DeepEqual(got.Steps, pr.Steps) {
		t.Fatal("binary round-trip changed the steps")
	}
	if _, err := got.Validate(); err != nil {
		t.Fatalf("round-tripped protocol rejected: %v", err)
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	pr := streamFixture(t)
	var buf bytes.Buffer
	if err := pr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadBinary(bytes.NewReader(full[:len(full)/2])); err == nil {
		t.Fatal("truncated stream accepted")
	}
	// A two-vertex guest with one bad edge, then one host vertex and T = 1.
	if _, err := ReadBinary(bytes.NewReader(upb1(2, 1, 0, 5, 1, 0, 1, 0))); err == nil {
		t.Error("out-of-range guest edge accepted")
	}
	if _, err := ReadBinary(bytes.NewReader(upb1(2, 1, 1, 1, 1, 0, 1, 0))); err == nil {
		t.Error("guest self-loop accepted")
	}
}

// referenceStepBytes is the step encoding spelled out with one
// binary.AppendUvarint or binary.AppendVarint per field. appendStepBytes
// must write exactly these bytes: a varint that is not canonical still
// decodes, so a round trip alone would not notice one, yet it would change
// every stream fingerprint.
func referenceStepBytes(dst []byte, ops []Op) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ops)))
	for _, op := range ops {
		dst = binary.AppendVarint(dst, int64(op.Kind))
		dst = binary.AppendVarint(dst, int64(op.Proc))
		dst = binary.AppendVarint(dst, int64(op.Pebble.P))
		dst = binary.AppendVarint(dst, int64(op.Pebble.T))
		dst = binary.AppendVarint(dst, int64(op.Peer))
	}
	return dst
}

// referenceDecodeStep is the step decoder spelled out with one
// binary.Varint per field. decodeStepBytes decodes short varints inline
// and must return this decoder's ops, byte count and error text on every
// input: a non-canonical varint such as 0x80 0x00 decodes (to 0, in two
// bytes), so a round trip alone would not notice a wrong decode of one.
func referenceDecodeStep(src []byte) ([]Op, int, error) {
	count, k := binary.Uvarint(src)
	if k <= 0 {
		return nil, 0, fmt.Errorf("pebble: chunk: bad op count")
	}
	if count > uint64(len(src)-k)/minEncodedOpBytes+1 {
		return nil, 0, fmt.Errorf("pebble: chunk: op count %d exceeds remaining bytes", count)
	}
	ops := make([]Op, count)
	off := k
	for i := range ops {
		var vals [5]int64
		for j := range vals {
			v, n := binary.Varint(src[off:])
			if n <= 0 {
				return nil, 0, fmt.Errorf("pebble: chunk: truncated op %d", i)
			}
			vals[j] = v
			off += n
		}
		ops[i] = Op{Kind: OpKind(vals[0]), Proc: int(vals[1]), Pebble: Type{P: int(vals[2]), T: int(vals[3])}, Peer: int(vals[4])}
	}
	return ops, off, nil
}

// Every one- and two-byte field, at each of an op's five positions, and
// every truncated prefix of the step around it, must decode as
// binary.Varint does. Longer fields (three bytes, ten bytes, an overflowing
// tenth byte, an eleventh byte) go through the same check.
func TestDecodeStepMatchesVarint(t *testing.T) {
	var checks int
	var buf []Op
	// check decodes src[:k] for every k ≥ from; the shorter prefixes are
	// the same for every field at a position, and the loop below reaches
	// each of them once.
	check := func(src []byte, from int) {
		for k := from; k <= len(src); k++ {
			got, gn, gerr := decodeStepBytes(src[:k], buf)
			want, wn, werr := referenceDecodeStep(src[:k])
			if errText(gerr) != errText(werr) || gn != wn || !slices.Equal(got, want) {
				t.Fatalf("% x: decoded %v, %d bytes, error %q; binary.Varint gives %v, %d bytes, error %q",
					src[:k], got, gn, errText(gerr), want, wn, errText(werr))
			}
			if got != nil {
				buf = got
			}
			checks++
		}
	}
	check(nil, 0)
	fields := [][]byte{
		{0x80, 0x80, 0x01},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00},
	}
	for x := 0; x < 1<<16; x++ {
		fields = append(fields, []byte{byte(x), byte(x >> 8)})
	}
	for x := 0; x < 1<<8; x++ {
		fields = append(fields, []byte{byte(x)})
	}
	// Three-byte fields: the two continuation bytes at the edges of their
	// range, each with every third byte, which ends the varint below 0x80
	// and carries it on into the filler bytes from 0x80 up.
	edges := []byte{0x80, 0x81, 0xfe, 0xff}
	for _, b0 := range edges {
		for _, b1 := range edges {
			for x := 0; x < 1<<8; x++ {
				fields = append(fields, []byte{b0, b1, byte(x)})
			}
		}
	}
	var src []byte
	for pos := 0; pos < 5; pos++ {
		for _, field := range fields {
			src = append(src[:0], 1)
			for j := 0; j < pos; j++ {
				src = append(src, 0x02)
			}
			src = append(src, field...)
			for j := pos + 1; j < 5; j++ {
				src = append(src, 0x04)
			}
			check(src, 1+pos)
		}
	}
	t.Logf("%d inputs decoded alike", checks)
}

// FuzzStepCodec checks both directions: any encodable step round-trips, and
// the decoder never panics or over-reads on arbitrary bytes (re-encoding a
// successful decode must reproduce a decodable, equal step). The
// re-encoding must also match referenceStepBytes byte for byte.
func FuzzStepCodec(f *testing.F) {
	pr := streamFixture(f)
	var seed []byte
	for _, step := range pr.Steps[:4] {
		seed = appendStepBytes(seed[:0], step)
		f.Add(append([]byte(nil), seed...))
	}
	f.Add([]byte{})
	f.Add([]byte{0x03, 0x00})
	// Fields at the varint length boundaries: zigzag maps 63 and 64 to one
	// and two bytes, 8191 and 8192 to two and three, 1,048,575 and
	// −1,048,576 (zigzag 2²¹ − 2 and 2²¹ − 1) to three and 1,048,576 and
	// −1,048,577 to four, and the int64 extremes to ten.
	for _, v := range []int64{math.MinInt64, math.MaxInt64, -1, 63, 64, 8191, 8192,
		1<<20 - 1, -1 << 20, 1 << 20, -1<<20 - 1} {
		x := int(v)
		f.Add(referenceStepBytes(nil, []Op{
			{Kind: OpKind(x), Proc: x, Pebble: Type{P: x, T: x}, Peer: x},
			{Kind: Send, Proc: 1, Pebble: Type{P: x, T: 2}, Peer: x},
		}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, n, err := decodeStepBytes(data, nil)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("decoder consumed %d of %d bytes", n, len(data))
		}
		// Encode after a prefix so that writing at a non-zero offset is
		// covered; the prefix must survive untouched.
		prefix := []byte{0xa5, 0x5a, 0xff}
		re := appendStepBytes(append([]byte(nil), prefix...), ops)
		if !bytes.Equal(re[:len(prefix)], prefix) {
			t.Fatalf("encoder overwrote the existing bytes: % x", re[:len(prefix)])
		}
		re = re[len(prefix):]
		if want := referenceStepBytes(nil, ops); !bytes.Equal(re, want) {
			t.Fatalf("encoding differs from the reference:\n got % x\nwant % x", re, want)
		}
		ops2, n2, err := decodeStepBytes(re, nil)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if n2 != len(re) || len(ops2) != len(ops) {
			t.Fatalf("re-decode shape mismatch: %d/%d bytes, %d/%d ops", n2, len(re), len(ops2), len(ops))
		}
		for i := range ops {
			if ops[i] != ops2[i] {
				t.Fatalf("op %d changed across re-encode: %+v vs %+v", i, ops[i], ops2[i])
			}
		}
	})
}

// TestChunkedLogLargeRandomStream stresses chunk boundaries with irregular
// step sizes.
func TestChunkedLogLargeRandomStream(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var steps [][]Op
	for i := 0; i < 500; i++ {
		step := make([]Op, rng.Intn(17))
		for j := range step {
			step[j] = Op{
				Kind:   OpKind(rng.Intn(3)),
				Proc:   rng.Intn(1000),
				Pebble: Type{P: rng.Intn(100000), T: rng.Intn(50)},
				Peer:   rng.Intn(1000),
			}
		}
		steps = append(steps, step)
	}
	log := NewChunkedLog(ChunkedLogOptions{TargetChunkBytes: 512, MemBudgetBytes: 2048, SpillDir: t.TempDir()})
	for _, s := range steps {
		if err := log.AppendStep(s); err != nil {
			t.Fatal(err)
		}
	}
	src := log.Source()
	for i, want := range steps {
		got, err := src.NextStep()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("step %d: %d ops, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("step %d op %d mismatch", i, j)
			}
		}
	}
	if _, err := src.NextStep(); err == nil {
		t.Fatal("expected EOF")
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChunkedLogAppendAfterClose: Close poisons the log, so a straggling
// producer cannot silently recreate a spill file nobody will ever remove.
func TestChunkedLogAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	log := NewChunkedLog(ChunkedLogOptions{
		TargetChunkBytes: 32,
		MemBudgetBytes:   1,
		SpillDir:         dir,
	})
	step := []Op{{Kind: Generate, Proc: 1, Pebble: Type{P: 2, T: 3}}}
	for i := 0; i < 64; i++ {
		if err := log.AppendStep(step); err != nil {
			t.Fatal(err)
		}
	}
	if log.SpilledBytes() == 0 {
		t.Fatal("fixture did not spill")
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := log.AppendStep(step); err == nil {
		t.Fatal("append after Close succeeded")
	}
	if err := log.AppendStepSegments([][]Op{step}); err == nil {
		t.Fatal("segment append after Close succeeded")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill dir not empty after Close: %v", ents)
	}
}

// TestChunkedLogSpillWriteErrorCleansUp: a failed spill write must remove
// the partial spill file and poison the log instead of stranding a temp
// file for the caller to guess at.
func TestChunkedLogSpillWriteErrorCleansUp(t *testing.T) {
	dir := t.TempDir()
	log := NewChunkedLog(ChunkedLogOptions{
		TargetChunkBytes: 32,
		MemBudgetBytes:   1,
		SpillDir:         dir,
	})
	step := []Op{{Kind: Generate, Proc: 1, Pebble: Type{P: 2, T: 3}}}
	if err := log.AppendStep(step); err != nil {
		t.Fatal(err)
	}
	// Force the next spill write to fail by closing the file under the log.
	for log.spillFile == nil {
		if err := log.AppendStep(step); err != nil {
			t.Fatal(err)
		}
	}
	log.spillFile.Close()
	var appendErr error
	for i := 0; i < 256 && appendErr == nil; i++ {
		appendErr = log.AppendStep(step)
	}
	if appendErr == nil {
		t.Fatal("spill write against a closed file succeeded")
	}
	if log.spillFile != nil {
		t.Fatal("spill file handle survived the failed write")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("partial spill file left behind: %v", ents)
	}
	if err := log.AppendStep(step); err == nil {
		t.Fatal("append after spill failure succeeded")
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChunkedLogSpillDirMissing: a bogus spill directory errors without
// leaving anything behind, and the error sticks.
func TestChunkedLogSpillDirMissing(t *testing.T) {
	log := NewChunkedLog(ChunkedLogOptions{
		TargetChunkBytes: 32,
		MemBudgetBytes:   1,
		SpillDir:         "/nonexistent-spill-dir-for-test",
	})
	step := []Op{{Kind: Generate, Proc: 1, Pebble: Type{P: 2, T: 3}}}
	var appendErr error
	for i := 0; i < 256 && appendErr == nil; i++ {
		appendErr = log.AppendStep(step)
	}
	if appendErr == nil {
		t.Fatal("spilling into a missing directory succeeded")
	}
	if err := log.AppendStep(step); err == nil {
		t.Fatal("error did not stick")
	}
}

// TestChunkedLogFingerprint: the fingerprint is a pure function of the
// encoded stream — identical for AppendStep and AppendStepSegments of the
// same steps, different once the stream differs.
func TestChunkedLogFingerprint(t *testing.T) {
	pr := streamFixture(t)
	encode := func(split bool) uint64 {
		log := NewChunkedLog(ChunkedLogOptions{TargetChunkBytes: 128})
		src := pr.Source()
		for {
			ops, err := src.NextStep()
			if err != nil {
				break
			}
			if split {
				mid := len(ops) / 2
				if err := log.AppendStepSegments([][]Op{ops[:mid], ops[mid:]}); err != nil {
					t.Fatal(err)
				}
			} else if err := log.AppendStep(ops); err != nil {
				t.Fatal(err)
			}
		}
		return log.Fingerprint()
	}
	whole, split := encode(false), encode(true)
	if whole != split {
		t.Fatalf("segment encoding changed the fingerprint: %x vs %x", whole, split)
	}
	empty := NewChunkedLog(ChunkedLogOptions{})
	if empty.Fingerprint() == whole {
		t.Fatal("fingerprint ignores the stream")
	}
}
