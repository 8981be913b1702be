package pebble

import (
	"io"
	"math/rand"
	"testing"

	"universalnet/internal/topology"
)

// Allocation budgets for the dense pebble engine. These are regression
// tripwires, not targets: measured values are 0 (warm ApplyStep — the
// per-State scratch absorbs everything once buffers have grown) and 43
// (full Validate of a small protocol, dominated by NewState's tables). The
// ceilings leave headroom for runtime jitter; a real regression — a map or
// per-step slice creeping back into ApplyStep — blows well past them.
const (
	warmApplyStepAllocBudget = 2
	smallValidateAllocBudget = 48
)

func allocFixture(t *testing.T) (*Protocol, *State) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	guest, err := topology.RandomGuest(rng, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	host, err := topology.Torus(9)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := BuildEmbeddingProtocol(guest, host, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(guest, host, 3)
	for _, ops := range pr.Steps {
		if err := st.ApplyStep(ops); err != nil {
			t.Fatal(err)
		}
	}
	return pr, st
}

func TestApplyStepWarmAllocations(t *testing.T) {
	pr, st := allocFixture(t)
	// Re-applying already-applied steps is legal (regenerating a held
	// pebble passes checkGenerate; every gain is a no-op), so it exercises
	// the full validation path with the scratch already grown.
	avg := testing.AllocsPerRun(200, func() {
		for _, ops := range pr.Steps {
			if err := st.ApplyStep(ops); err != nil {
				t.Fatal(err)
			}
		}
	})
	perStep := avg / float64(len(pr.Steps))
	if perStep > warmApplyStepAllocBudget {
		t.Errorf("warm ApplyStep allocates %.2f/step (budget %d): scratch reuse regressed", perStep, warmApplyStepAllocBudget)
	}
}

func TestValidateSmallProtocolAllocations(t *testing.T) {
	pr, _ := allocFixture(t)
	avg := testing.AllocsPerRun(100, func() {
		if _, err := pr.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > smallValidateAllocBudget {
		t.Errorf("Validate of a small protocol allocates %.1f (budget %d)", avg, smallValidateAllocBudget)
	}
}

// Streaming warm-path budgets: the per-step steady state of the pipeline —
// pipe hand-off, step codec, and sharded validation — allocates nothing,
// matching the dense engine's warm ApplyStep guarantee. These pins are what
// keeps n = 10⁶ runs out of the allocator entirely.

func TestPipeWarmAllocations(t *testing.T) {
	pr, _ := allocFixture(t)
	// Window 2: the consumer returns its lent slot on the *next* NextStep
	// call, so strict append/next alternation needs one slot of slack.
	pipe := NewPipe(2)
	// Warm every slot once so the ring buffers reach their final size.
	for _, ops := range pr.Steps {
		if err := pipe.AppendStep(ops); err != nil {
			t.Fatal(err)
		}
		if _, err := pipe.NextStep(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		for _, ops := range pr.Steps {
			if err := pipe.AppendStep(ops); err != nil {
				t.Fatal(err)
			}
			if _, err := pipe.NextStep(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perStep := avg / float64(len(pr.Steps)); perStep > 0 {
		t.Errorf("warm pipe cycle allocates %.3f/step (budget 0): slot reuse regressed", perStep)
	}
}

func TestStepCodecWarmAllocations(t *testing.T) {
	pr, _ := allocFixture(t)
	var encBuf []byte
	var decBuf []Op
	// Grow both buffers to their steady-state capacity.
	for _, ops := range pr.Steps {
		encBuf = appendStepBytes(encBuf[:0], ops)
		out, _, err := decodeStepBytes(encBuf, decBuf)
		if err != nil {
			t.Fatal(err)
		}
		decBuf = out
	}
	avg := testing.AllocsPerRun(200, func() {
		for _, ops := range pr.Steps {
			encBuf = appendStepBytes(encBuf[:0], ops)
			out, _, err := decodeStepBytes(encBuf, decBuf)
			if err != nil {
				t.Fatal(err)
			}
			decBuf = out
		}
	})
	if perStep := avg / float64(len(pr.Steps)); perStep > 0 {
		t.Errorf("warm codec cycle allocates %.3f/step (budget 0): buffer reuse regressed", perStep)
	}
}

// repeatSource replays the same materialized steps r times — legal input
// (regenerating held pebbles passes checkGenerate), which isolates the
// validator's per-step marginal cost from its fixed setup cost.
type repeatSource struct {
	steps [][]Op
	reps  int
	i     int
}

func (s *repeatSource) NextStep() ([]Op, error) {
	if s.i >= s.reps*len(s.steps) {
		return nil, io.EOF
	}
	ops := s.steps[s.i%len(s.steps)]
	s.i++
	return ops, nil
}

func TestShardedValidateWarmAllocations(t *testing.T) {
	pr, _ := allocFixture(t)
	sp := pr.Spec()
	measure := func(reps int) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := ValidateSharded(sp, &repeatSource{steps: pr.Steps, reps: reps}, ShardedOptions{Shards: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := measure(1)
	long := measure(21)
	extraSteps := float64(20 * len(pr.Steps))
	perStep := (long - base) / extraSteps
	if perStep > 0.05 {
		t.Errorf("sharded validation allocates %.3f per marginal step (budget 0): steady state regressed", perStep)
	}
}

// TestPipeSegmentsWarmAllocations pins the merge stage's warm path: once
// the slot ring is sized, publishing a step as segments allocates nothing.
func TestPipeSegmentsWarmAllocations(t *testing.T) {
	pr, _ := allocFixture(t)
	pipe := NewPipe(2)
	segs := make([][]Op, 2)
	cycle := func() {
		for _, ops := range pr.Steps {
			mid := len(ops) / 2
			segs[0], segs[1] = ops[:mid], ops[mid:]
			if err := pipe.AppendStepSegments(segs); err != nil {
				t.Fatal(err)
			}
			if _, err := pipe.NextStep(); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle() // warm every slot to its final size
	avg := testing.AllocsPerRun(200, cycle)
	if perStep := avg / float64(len(pr.Steps)); perStep > 0 {
		t.Errorf("warm segment cycle allocates %.3f/step (budget 0): slot reuse regressed", perStep)
	}
}
