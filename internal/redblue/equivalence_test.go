package redblue

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"universalnet/internal/pebble"
	"universalnet/internal/topology"
)

// corrupt returns a seeded-random mutant of pr: one step altered in a way
// that is usually invalid. Either way the costed replay's verdict must
// match ValidateSharded's byte for byte.
func corrupt(pr *pebble.Protocol, rng *rand.Rand) *pebble.Protocol {
	out := &pebble.Protocol{Guest: pr.Guest, Host: pr.Host, T: pr.T, Steps: make([][]pebble.Op, len(pr.Steps))}
	for i, ops := range pr.Steps {
		out.Steps[i] = append([]pebble.Op(nil), ops...)
	}
	if len(out.Steps) == 0 {
		return out
	}
	si := rng.Intn(len(out.Steps))
	ops := out.Steps[si]
	if len(ops) == 0 {
		return out
	}
	oi := rng.Intn(len(ops))
	switch rng.Intn(6) {
	case 0: // processor acts twice
		out.Steps[si] = append(ops, ops[oi])
	case 1: // drop an op — may orphan a send or receive
		out.Steps[si] = append(ops[:oi:oi], ops[oi+1:]...)
	case 2: // pebble from the future
		ops[oi].Pebble.T++
	case 3: // out-of-range processor
		ops[oi].Proc = pr.Host.N() + rng.Intn(3)
	case 4: // wrong peer
		ops[oi].Peer = (ops[oi].Peer + 1 + rng.Intn(pr.Host.N()-1)) % pr.Host.N()
	case 5: // out-of-range guest index
		ops[oi].Pebble.P = pr.Guest.N() + rng.Intn(3)
	}
	return out
}

// compareVerdicts replays pr through ValidateSharded and through a costed
// replay (unbounded red — no capacity errors possible) and requires
// identical accept/reject verdicts with identical error text.
func compareVerdicts(t *testing.T, pr *pebble.Protocol) {
	t.Helper()
	sp := pr.Spec()
	_, errS := pebble.ValidateSharded(sp, pr.Source(), pebble.ShardedOptions{Shards: 1})
	_, errC := ReplayCosted(sp, pr.Source(), DefaultCostModel(0), NewLRU(), Options{})
	switch {
	case errS == nil && errC == nil:
	case errS == nil || errC == nil:
		t.Fatalf("verdicts diverge: sharded %v, costed %v", errS, errC)
	case errS.Error() != errC.Error():
		t.Fatalf("errors diverge:\n  sharded: %s\n  costed:  %s", errS, errC)
	}
}

// equivalenceFixture builds the protocol of one equivalence seed: a random
// 2-regular guest of 5–9 vertices on the 3×3 torus under a randomized
// assignment, T = 2 or 3, by one of four builders in turn. rng has drawn
// the guest and T; the caller draws the mutants from it.
func equivalenceFixture(t *testing.T, seed int64, rng *rand.Rand) *pebble.Protocol {
	t.Helper()
	n := 5 + rng.Intn(5)
	T := 2 + rng.Intn(2)
	guest, err := topology.RandomGuest(rng, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	host, err := topology.Torus(9)
	if err != nil {
		t.Fatal(err)
	}
	f := pebble.RandomizedAssignment(n, host.N(), seed)
	var pr *pebble.Protocol
	switch seed % 4 {
	case 0:
		pr, err = pebble.BuildEmbeddingProtocol(guest, host, f, T)
	case 1:
		pr, err = pebble.BuildPipelinedProtocol(guest, host, f, T)
	case 2:
		pr, err = pebble.BuildMulticastProtocol(guest, host, f, T)
	default:
		pr, err = pebble.BuildQueuedEmbeddingProtocol(guest, host, f, T)
	}
	if err != nil {
		t.Fatalf("building protocol: %v", err)
	}
	return pr
}

// Costed replay must never alter validation verdicts: 80 seeds across four
// builders, valid protocols and two mutants each.
func TestCostedReplayVerdictEquivalence(t *testing.T) {
	protocols, mutants := 0, 0
	for seed := int64(0); seed < 80; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pr := equivalenceFixture(t, seed, rng)

			compareVerdicts(t, pr)
			protocols++

			// A bounded replay of the valid protocol must also accept.
			sp := pr.Spec()
			if _, err := ReplayCosted(sp, pr.Source(), DefaultCostModel(MinRed(sp)+2), NewLRU(), Options{}); err != nil {
				t.Fatalf("bounded replay of valid protocol: %v", err)
			}

			for k := 0; k < 2; k++ {
				compareVerdicts(t, corrupt(pr, rng))
				mutants++
			}
		})
	}
	if !t.Failed() {
		t.Logf("compared %d protocols and %d mutants with zero verdict divergence", protocols, mutants)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// failingSource yields inner's steps but fails with err in place of step k
// (counted from 0).
type failingSource struct {
	inner pebble.StepSource
	k     int
	err   error
	calls int
}

func (s *failingSource) NextStep() ([]pebble.Op, error) {
	s.calls++
	if s.calls == s.k+1 {
		return nil, s.err
	}
	return s.inner.NextStep()
}

// appendStepReplay prices src by the incremental path: an AppendStep loop,
// then Finish.
func appendStepReplay(sp pebble.Spec, src pebble.StepSource, model CostModel, pol Policy) (*Costs, error) {
	cv, err := NewCostedValidator(sp, model, pol, Options{})
	if err != nil {
		return nil, err
	}
	for {
		ops, err := src.NextStep()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := cv.AppendStep(ops); err != nil {
			return nil, err
		}
	}
	return cv.Finish()
}

// TestReplayCostedMatchesAppendStep: ReplayCosted, whose validator runs
// ahead of the machine on a goroutine of its own, must give what an
// AppendStep loop and Finish give, every Costs field or the error text,
// whichever side fails first and however far validation has run ahead.
func TestReplayCostedMatchesAppendStep(t *testing.T) {
	type replayCase struct {
		name  string
		pr    *pebble.Protocol
		r     int                           // red budget; 0 is unbounded
		pol   string                        // eviction policy
		src   func() pebble.StepSource      // nil replays pr's steps
		check func(t *testing.T, err error) // nil accepts any outcome
	}
	var cases []replayCase
	wantErr := func(part string) func(*testing.T, error) {
		return func(t *testing.T, err error) {
			if err == nil || !strings.Contains(err.Error(), part) {
				t.Fatalf("got %v, want an error containing %q", err, part)
			}
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pr := equivalenceFixture(t, seed, rng)
		sp := pr.Spec()
		// Belady's pre-scan takes only valid protocols, so mutants use the
		// online policies.
		pol, online := PolicyNames()[seed%3], PolicyNames()[seed%2]
		cases = append(cases,
			replayCase{name: fmt.Sprintf("seed%d/%s", seed, pol), pr: pr, r: MinRed(sp) + int(seed%3), pol: pol},
			replayCase{name: fmt.Sprintf("seed%d/unbounded", seed), pr: pr, pol: "lru"},
			replayCase{name: fmt.Sprintf("seed%d/mutant/%s", seed, online), pr: corrupt(pr, rng), r: MinRed(sp) + 2, pol: online})
	}

	// ReplayCosted drains the fixtures above inline, being small. The rest
	// run on one with T·n = 4096 pebbles, which it runs ahead, and whose
	// stream overfills the drain's ring, so the validator is still blocked
	// on it when the machine fails.
	big := fixture(t, 1, 2048, 3, 16, 2)
	bsp := big.Spec()
	if big.T*big.Guest.N() < aheadMinPebbles {
		t.Fatalf("the ahead fixture has T·n = %d; ReplayCosted runs ahead from %d", big.T*big.Guest.N(), aheadMinPebbles)
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 4; k++ {
		pol := PolicyNames()[k%2]
		cases = append(cases, replayCase{name: fmt.Sprintf("ahead/mutant%d/%s", k, pol), pr: corrupt(big, rng), r: MinRed(bsp) + 2, pol: pol})
	}
	cases = append(cases, replayCase{name: "ahead/lru", pr: big, r: MinRed(bsp) + 2, pol: "lru"})

	// r = MinRed − 1: step 0 overflows red while the validator runs ahead.
	cases = append(cases, replayCase{name: "capacity", pr: big, r: MinRed(bsp) - 1, pol: "lru", check: wantErr("too small")})

	// The same overflow at step 0 must beat a processor acting twice at
	// step 1, which the validator reaches first.
	twice := &pebble.Protocol{Guest: big.Guest, Host: big.Host, T: big.T, Steps: append([][]pebble.Op(nil), big.Steps...)}
	twice.Steps[1] = append(append([]pebble.Op(nil), big.Steps[1]...), big.Steps[1][0])
	cases = append(cases,
		replayCase{name: "capacity-before-validation", pr: twice, r: MinRed(bsp) - 1, pol: "lru", check: wantErr("too small")},
		replayCase{name: "validation", pr: twice, r: MinRed(bsp) + 2, pol: "lru", check: wantErr("performs two operations")})

	// A source that fails at step k, after k priced steps.
	boom := errors.New("source failed")
	k := len(big.Steps) / 2
	cases = append(cases, replayCase{name: "source-error", pr: big, r: MinRed(bsp) + 2, pol: "belady",
		src: func() pebble.StepSource { return &failingSource{inner: big.Source(), k: k, err: boom} },
		check: func(t *testing.T, err error) {
			if err != boom {
				t.Fatalf("got %v, want the source's error", err)
			}
		}})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sp := c.pr.Spec()
			src := c.src
			if src == nil {
				src = c.pr.Source
			}
			newPol := func() Policy {
				pol, err := NewPolicy(c.pol, sp, c.pr.Steps, 7)
				if err != nil {
					t.Fatal(err)
				}
				return pol
			}
			model := DefaultCostModel(c.r)
			want, wantErr := appendStepReplay(sp, src(), model, newPol())
			got, gotErr := ReplayCosted(sp, src(), model, newPol(), Options{})
			if errText(gotErr) != errText(wantErr) {
				t.Fatalf("ReplayCosted error %q, AppendStep loop %q", errText(gotErr), errText(wantErr))
			}
			if wantErr == nil && *got != *want {
				t.Fatalf("ReplayCosted %+v, AppendStep loop %+v", *got, *want)
			}
			if c.check != nil {
				c.check(t, gotErr)
			}
		})
	}
}

// TestCostedValidatorErrorIsSticky: once a step fails, in the machine or
// in validation, AppendStep and Finish return that first error and no
// Costs, since the machine may hold part of the failed step.
func TestCostedValidatorErrorIsSticky(t *testing.T) {
	pr := fixture(t, 1, 64, 3, 16, 3)
	sp := pr.Spec()
	twice := append(append([]pebble.Op(nil), pr.Steps[0]...), pr.Steps[0][0])
	for _, c := range []struct {
		name  string
		r     int
		first []pebble.Op
		want  string
	}{
		{"machine", MinRed(sp) - 1, pr.Steps[0], "too small"},
		{"validation", MinRed(sp) + 2, twice, "performs two operations"},
	} {
		cv, err := NewCostedValidator(sp, DefaultCostModel(c.r), NewLRU(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		first := cv.AppendStep(c.first)
		if first == nil || !strings.Contains(first.Error(), c.want) {
			t.Fatalf("%s: first step gave %v, want an error containing %q", c.name, first, c.want)
		}
		if err := cv.AppendStep(pr.Steps[1]); err != first {
			t.Errorf("%s: AppendStep after the failure gave %v, want %v", c.name, err, first)
		}
		if costs, err := cv.Finish(); costs != nil || err != first {
			t.Errorf("%s: Finish gave %+v, %v; want no Costs and %v", c.name, costs, err, first)
		}
	}
}
