package pebble

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"universalnet/internal/graph"
	"universalnet/internal/obs"
)

// Chunked protocol storage. Steps are encoded into a compact varint binary
// format and accumulated into chunks of ~TargetChunkBytes; when the
// resident encoded bytes exceed MemBudgetBytes, sealed chunks spill to a
// temporary file oldest-first, and a spilled chunk's buffer becomes the
// next open chunk, so a long spilling stream allocates no chunk buffers in
// steady state. A ChunkedLog is a StepSink; Source() replays it (loading
// spilled chunks back one at a time through a reused buffer), and
// Materialize turns it back into a Protocol for the small-n analyses.
//
// Encoding per step: uvarint op count, then per op five zigzag varints —
// kind, proc, pebble.P, pebble.T, peer. Signed varints make the codec
// lossless for any Op value (corrupted or adversarial protocols round-trip
// too, which the fuzz target exercises); well-formed ops cost ~5–8 bytes.

// maxEncodedOpBytes is the largest encoding of one op: five varints of
// at most binary.MaxVarintLen64 bytes each.
const maxEncodedOpBytes = 5 * binary.MaxVarintLen64

// appendOpsBytes encodes a run of ops (no count prefix) onto dst. It grows
// dst once for the worst case and then writes each zigzag varint by index —
// the bytes binary.AppendVarint would append, without its per-field append.
func appendOpsBytes(dst []byte, ops []Op) []byte {
	dst = slices.Grow(dst, len(ops)*maxEncodedOpBytes)
	n := len(dst)
	buf := dst[:cap(dst)]
	for i := range ops {
		op := &ops[i]
		n = putVarintAt(buf, n, int64(op.Kind))
		n = putVarintAt(buf, n, int64(op.Proc))
		n = putVarintAt(buf, n, int64(op.Pebble.P))
		n = putVarintAt(buf, n, int64(op.Pebble.T))
		n = putVarintAt(buf, n, int64(op.Peer))
	}
	return buf[:n]
}

// putVarintAt writes v's zigzag varint at buf[n:] and returns the offset
// just past it.
func putVarintAt(buf []byte, n int, v int64) int {
	ux := uint64(v) << 1
	if v < 0 {
		ux = ^ux
	}
	for ux >= 0x80 {
		buf[n] = byte(ux) | 0x80
		ux >>= 7
		n++
	}
	buf[n] = byte(ux)
	return n + 1
}

// appendStepBytes encodes one step onto dst.
func appendStepBytes(dst []byte, ops []Op) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ops)))
	return appendOpsBytes(dst, ops)
}

// minEncodedOpBytes is the smallest possible encoding of one op (five
// one-byte varints) — the bound that lets decodeStepBytes reject absurd op
// counts before allocating.
const minEncodedOpBytes = 5

// decodeStepBytes decodes one step from src into buf (reused when large
// enough), returning the ops and the number of bytes consumed.
func decodeStepBytes(src []byte, buf []Op) ([]Op, int, error) {
	count, k := binary.Uvarint(src)
	if k <= 0 {
		return nil, 0, fmt.Errorf("pebble: chunk: bad op count")
	}
	if count > uint64(len(src)-k)/minEncodedOpBytes+1 {
		return nil, 0, fmt.Errorf("pebble: chunk: op count %d exceeds remaining bytes", count)
	}
	if uint64(cap(buf)) < count {
		buf = make([]Op, count)
	}
	buf = buf[:count]
	off := k
	for i := range buf {
		var vals [5]int64
		for j := range vals {
			// One- and two-byte varints, which are most fields, decode
			// inline; binary.Varint is not inlined. Longer values,
			// truncations and overflows go to it, so the inputs accepted
			// and the errors are its own.
			var ux uint64
			switch {
			case off < len(src) && src[off] < 0x80:
				ux = uint64(src[off])
				off++
			case off+1 < len(src) && src[off+1] < 0x80:
				ux = uint64(src[off]&0x7f) | uint64(src[off+1])<<7
				off += 2
			default:
				v, n := binary.Varint(src[off:])
				if n <= 0 {
					return nil, 0, fmt.Errorf("pebble: chunk: truncated op %d", i)
				}
				vals[j] = v
				off += n
				continue
			}
			vals[j] = int64(ux>>1) ^ -int64(ux&1)
		}
		buf[i] = Op{
			Kind:   OpKind(vals[0]),
			Proc:   int(vals[1]),
			Pebble: Type{P: int(vals[2]), T: int(vals[3])},
			Peer:   int(vals[4]),
		}
	}
	return buf, off, nil
}

// ChunkedLogOptions configures a ChunkedLog. The zero value is usable:
// 1 MiB chunks, no spilling.
type ChunkedLogOptions struct {
	// TargetChunkBytes seals a chunk once its encoding reaches this size.
	// Default 1 MiB.
	TargetChunkBytes int
	// MemBudgetBytes spills sealed chunks (oldest first) to a temp file once
	// resident encoded bytes exceed it. 0 keeps everything in memory.
	MemBudgetBytes int64
	// SpillDir is where the spill file is created; empty uses os.TempDir().
	SpillDir string
	// Obs, when non-nil, receives the storage profile: encoded bytes,
	// spilled bytes, and the peak resident gauge. All values are pure
	// functions of the appended stream, hence deterministic.
	Obs *obs.Registry
}

type chunkMeta struct {
	data     []byte // nil once spilled
	steps    int
	size     int
	spillOff int64
	spilled  bool
}

// ChunkedLog is the chunked, spill-able protocol store.
type ChunkedLog struct {
	opts      ChunkedLogOptions
	chunks    []chunkMeta
	spillNext int // index of the first unspilled sealed chunk

	cur      []byte
	curSteps int
	spare    []byte // a spilled chunk's emptied buffer, reused as the next cur

	steps        int
	totalBytes   int64
	resident     int64
	peakResident int64
	spilledBytes int64

	fingerprint uint64

	spillFile *os.File
	spillOff  int64
	frozen    bool
	err       error
}

// fnvOffset/fnvPrime are the FNV-1a 64-bit parameters for the running
// stream fingerprint.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// NewChunkedLog returns an empty log.
func NewChunkedLog(opts ChunkedLogOptions) *ChunkedLog {
	if opts.TargetChunkBytes <= 0 {
		opts.TargetChunkBytes = 1 << 20
	}
	return &ChunkedLog{opts: opts, fingerprint: fnvOffset}
}

// Fingerprint returns the FNV-1a hash of the encoded step stream so far —
// a cheap identity for asserting that two runs (say, with different
// validator shard counts) produced byte-identical protocols.
func (l *ChunkedLog) Fingerprint() uint64 { return l.fingerprint }

// noteStep finishes one appended step whose encoding starts at byte offset
// `before` of the current chunk: fingerprint, accounting, sealing.
func (l *ChunkedLog) noteStep(before int) error {
	fp := l.fingerprint
	for _, b := range l.cur[before:] {
		fp = (fp ^ uint64(b)) * fnvPrime
	}
	l.fingerprint = fp
	l.totalBytes += int64(len(l.cur) - before)
	l.curSteps++
	l.steps++
	if len(l.cur) >= l.opts.TargetChunkBytes {
		if err := l.seal(); err != nil {
			l.err = err
			return err
		}
	}
	if r := l.resident + int64(len(l.cur)); r > l.peakResident {
		l.peakResident = r
	}
	return nil
}

func (l *ChunkedLog) appendReady() error {
	if l.err != nil {
		return l.err
	}
	if l.frozen {
		l.err = fmt.Errorf("pebble: chunk: append after Source")
		return l.err
	}
	if l.cur == nil {
		l.cur, l.spare = l.spare, nil
		if l.cur == nil {
			l.cur = make([]byte, 0, l.opts.TargetChunkBytes+l.opts.TargetChunkBytes/8)
		}
	}
	return nil
}

// AppendStep encodes and stores one step.
func (l *ChunkedLog) AppendStep(ops []Op) error {
	if err := l.appendReady(); err != nil {
		return err
	}
	before := len(l.cur)
	l.cur = appendStepBytes(l.cur, ops)
	return l.noteStep(before)
}

// AppendStepSegments encodes one step given as ordered sub-slices, byte-
// identical to AppendStep on their concatenation.
func (l *ChunkedLog) AppendStepSegments(segs [][]Op) error {
	if err := l.appendReady(); err != nil {
		return err
	}
	before := len(l.cur)
	total := 0
	for _, seg := range segs {
		total += len(seg)
	}
	l.cur = binary.AppendUvarint(l.cur, uint64(total))
	for _, seg := range segs {
		l.cur = appendOpsBytes(l.cur, seg)
	}
	return l.noteStep(before)
}

func (l *ChunkedLog) seal() error {
	if l.curSteps == 0 {
		return nil
	}
	l.chunks = append(l.chunks, chunkMeta{data: l.cur, steps: l.curSteps, size: len(l.cur)})
	l.resident += int64(len(l.cur))
	if r := l.resident; r > l.peakResident {
		l.peakResident = r
	}
	l.cur = nil
	l.curSteps = 0
	return l.maybeSpill()
}

func (l *ChunkedLog) maybeSpill() error {
	if l.opts.MemBudgetBytes <= 0 {
		return nil
	}
	for l.resident > l.opts.MemBudgetBytes && l.spillNext < len(l.chunks) {
		c := &l.chunks[l.spillNext]
		if l.spillFile == nil {
			f, err := os.CreateTemp(l.opts.SpillDir, "pebble-chunks-*.bin")
			if err != nil {
				return fmt.Errorf("pebble: chunk spill: %w", err)
			}
			l.spillFile = f
		}
		if _, err := l.spillFile.WriteAt(c.data, l.spillOff); err != nil {
			// A failed write poisons the log (the caller sees the sticky
			// error), so drop the partial spill file now rather than
			// stranding it until Close.
			l.removeSpillFile()
			return fmt.Errorf("pebble: chunk spill: %w", err)
		}
		c.spillOff = l.spillOff
		c.spilled = true
		// Nothing reads a chunk's bytes before Source freezes the log, and
		// nothing spills after, so the written buffer is free for reuse.
		l.spare = c.data[:0]
		c.data = nil
		l.spillOff += int64(c.size)
		l.resident -= int64(c.size)
		l.spilledBytes += int64(c.size)
		l.spillNext++
	}
	return nil
}

// Steps returns the number of appended steps.
func (l *ChunkedLog) Steps() int { return l.steps }

// TotalBytes returns the total encoded size of the stream.
func (l *ChunkedLog) TotalBytes() int64 { return l.totalBytes }

// PeakResidentBytes returns the high-water mark of the encoded bytes held
// in memory — the number the bigsim smoke gate bounds.
func (l *ChunkedLog) PeakResidentBytes() int64 { return l.peakResident }

// SpilledBytes returns the bytes written to the spill file.
func (l *ChunkedLog) SpilledBytes() int64 { return l.spilledBytes }

// Source freezes the log and returns a reader over its steps from the
// beginning. Spilled chunks are read back one at a time through a reused
// buffer, so replay memory stays one chunk regardless of protocol size.
// Multiple Sources may be taken (each independent); appending after the
// first Source is an error.
func (l *ChunkedLog) Source() StepSource {
	if !l.frozen {
		l.frozen = true
		if l.curSteps > 0 {
			l.chunks = append(l.chunks, chunkMeta{data: l.cur, steps: l.curSteps, size: len(l.cur)})
			l.resident += int64(len(l.cur))
			l.cur = nil
			l.curSteps = 0
		}
		l.spare = nil
		if l.opts.Obs != nil {
			l.opts.Obs.Counter("pebble.chunk.bytes").Add(l.totalBytes)
			l.opts.Obs.Counter("pebble.chunk.spilled_bytes").Add(l.spilledBytes)
			l.opts.Obs.Counter("pebble.chunk.steps").Add(int64(l.steps))
			l.opts.Obs.Gauge("pebble.chunk.resident_peak_bytes").SetMax(l.peakResident)
		}
	}
	return &chunkReader{l: l, ci: -1}
}

// Close releases the spill file, if any. The log is unusable afterwards:
// further appends fail instead of silently recreating a spill file the
// caller would never learn about, let alone remove.
func (l *ChunkedLog) Close() error {
	err := l.removeSpillFile()
	if l.err == nil {
		l.err = fmt.Errorf("pebble: chunk: log closed")
	}
	return err
}

func (l *ChunkedLog) removeSpillFile() error {
	if l.spillFile == nil {
		return nil
	}
	name := l.spillFile.Name()
	err := l.spillFile.Close()
	if rmErr := os.Remove(name); err == nil {
		err = rmErr
	}
	l.spillFile = nil
	return err
}

type chunkReader struct {
	l         *ChunkedLog
	ci        int
	data      []byte
	off       int
	stepsLeft int
	opsBuf    []Op
	spillBuf  []byte
}

func (r *chunkReader) NextStep() ([]Op, error) {
	for r.stepsLeft == 0 {
		r.ci++
		if r.ci >= len(r.l.chunks) {
			return nil, io.EOF
		}
		c := &r.l.chunks[r.ci]
		if c.spilled {
			if cap(r.spillBuf) < c.size {
				r.spillBuf = make([]byte, c.size)
			}
			r.spillBuf = r.spillBuf[:c.size]
			if _, err := r.l.spillFile.ReadAt(r.spillBuf, c.spillOff); err != nil {
				return nil, fmt.Errorf("pebble: chunk read: %w", err)
			}
			r.data = r.spillBuf
		} else {
			r.data = c.data
		}
		r.off = 0
		r.stepsLeft = c.steps
	}
	ops, n, err := decodeStepBytes(r.data[r.off:], r.opsBuf)
	if err != nil {
		return nil, err
	}
	r.opsBuf = ops
	r.off += n
	r.stepsLeft--
	return ops, nil
}

// Binary protocol files. Format: magic "UPB1", guest graph, host graph,
// uvarint T, then framed steps (byte 1 + step encoding), terminated by
// byte 0. Graphs are uvarint n, uvarint edge count, then uvarint endpoint
// pairs. The streaming writer/reader never materialize the step list, so
// million-node protocols can be archived and replayed from disk.

var binaryMagic = [4]byte{'U', 'P', 'B', '1'}

func writeGraphBinary(w *bufio.Writer, g *graph.Graph) error {
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := w.Write(buf[:n])
		return err
	}
	if err := put(uint64(g.N())); err != nil {
		return err
	}
	edges := g.Edges()
	if err := put(uint64(len(edges))); err != nil {
		return err
	}
	for _, e := range edges {
		if err := put(uint64(e.U)); err != nil {
			return err
		}
		if err := put(uint64(e.V)); err != nil {
			return err
		}
	}
	return nil
}

func readGraphBinary(r *bufio.Reader) (*graph.Graph, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	// Clamped first, so that a count of 2⁶³ or more cannot wrap negative.
	nv := int(min(n, math.MaxInt))
	if err := graph.CheckVertexCount(nv); err != nil {
		return nil, err
	}
	ec, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	b := graph.NewBuilder(nv)
	for i := uint64(0); i < ec; i++ {
		u, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		if err := b.AddEdge(int(u), int(v)); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// WriteBinary streams a protocol to w in the binary format.
func WriteBinary(w io.Writer, sp Spec, src StepSource) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	if err := writeGraphBinary(bw, sp.Guest); err != nil {
		return err
	}
	if err := writeGraphBinary(bw, sp.Host); err != nil {
		return err
	}
	var vbuf [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(vbuf[:], uint64(sp.T))
	if _, err := bw.Write(vbuf[:k]); err != nil {
		return err
	}
	var stepBuf []byte
	for {
		ops, err := src.NextStep()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := bw.WriteByte(1); err != nil {
			return err
		}
		stepBuf = appendStepBytes(stepBuf[:0], ops)
		if _, err := bw.Write(stepBuf); err != nil {
			return err
		}
	}
	if err := bw.WriteByte(0); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteBinary streams the materialized protocol to w.
func (pr *Protocol) WriteBinary(w io.Writer) error {
	return WriteBinary(w, pr.Spec(), pr.Source())
}

type binaryStepReader struct {
	br     *bufio.Reader
	opsBuf []Op
	done   bool
}

func (r *binaryStepReader) NextStep() ([]Op, error) {
	if r.done {
		return nil, io.EOF
	}
	marker, err := r.br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("pebble: binary: %w", err)
	}
	if marker == 0 {
		r.done = true
		return nil, io.EOF
	}
	if marker != 1 {
		return nil, fmt.Errorf("pebble: binary: bad step marker %d", marker)
	}
	count, err := binary.ReadUvarint(r.br)
	if err != nil {
		return nil, fmt.Errorf("pebble: binary: %w", err)
	}
	if count > 1<<28 {
		return nil, fmt.Errorf("pebble: binary: absurd op count %d", count)
	}
	// The buffer grows with the ops actually read, not with the count the
	// input claims, so a crafted count cannot allocate ahead of the data.
	r.opsBuf = r.opsBuf[:0]
	for i := uint64(0); i < count; i++ {
		var vals [5]int64
		for j := range vals {
			v, err := binary.ReadVarint(r.br)
			if err != nil {
				return nil, fmt.Errorf("pebble: binary: %w", err)
			}
			vals[j] = v
		}
		r.opsBuf = append(r.opsBuf, Op{
			Kind:   OpKind(vals[0]),
			Proc:   int(vals[1]),
			Pebble: Type{P: int(vals[2]), T: int(vals[3])},
			Peer:   int(vals[4]),
		})
	}
	return r.opsBuf, nil
}

// NewBinaryReader parses the header of a binary protocol stream and returns
// its Spec plus a StepSource over the steps. The source's slices are only
// valid until the next call (the binary reader's contract matches every
// other StepSource).
func NewBinaryReader(r io.Reader) (Spec, StepSource, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return Spec{}, nil, fmt.Errorf("pebble: binary: %w", err)
	}
	if magic != binaryMagic {
		return Spec{}, nil, fmt.Errorf("pebble: binary: bad magic %q", magic[:])
	}
	guest, err := readGraphBinary(br)
	if err != nil {
		return Spec{}, nil, fmt.Errorf("pebble: binary: guest graph: %w", err)
	}
	host, err := readGraphBinary(br)
	if err != nil {
		return Spec{}, nil, fmt.Errorf("pebble: binary: host graph: %w", err)
	}
	T, err := binary.ReadUvarint(br)
	if err != nil {
		return Spec{}, nil, fmt.Errorf("pebble: binary: %w", err)
	}
	sp := Spec{Guest: guest, Host: host, T: int(min(T, math.MaxInt))}
	if err := checkDecodedSpec(guest.N(), host.N(), sp.T); err != nil {
		return Spec{}, nil, err
	}
	return sp, &binaryStepReader{br: br}, nil
}

// ReadBinary materializes a protocol written by WriteBinary. The result is
// not validated; call Validate to replay and check it.
func ReadBinary(r io.Reader) (*Protocol, error) {
	sp, src, err := NewBinaryReader(r)
	if err != nil {
		return nil, err
	}
	return Materialize(sp, src)
}
