package pebble

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"universalnet/internal/topology"
)

// streamFixture builds a small valid protocol shared by the stream tests.
func streamFixture(t testing.TB) *Protocol {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
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
	return pr
}

func TestMaterializeRoundTrip(t *testing.T) {
	pr := streamFixture(t)
	got, err := Materialize(pr.Spec(), pr.Source())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Steps, pr.Steps) {
		t.Fatal("materialized steps differ from the original")
	}
	if got.T != pr.T || got.Guest != pr.Guest || got.Host != pr.Host {
		t.Fatal("materialized spec differs from the original")
	}
}

func TestTeeSinkDuplicates(t *testing.T) {
	pr := streamFixture(t)
	a := &Protocol{Guest: pr.Guest, Host: pr.Host, T: pr.T}
	b := &Protocol{Guest: pr.Guest, Host: pr.Host, T: pr.T}
	tee := TeeSink(&ProtocolSink{Proto: a}, &ProtocolSink{Proto: b})
	src := pr.Source()
	for {
		ops, err := src.NextStep()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := tee.AppendStep(ops); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(a.Steps, pr.Steps) || !reflect.DeepEqual(b.Steps, pr.Steps) {
		t.Fatal("tee sinks received different streams")
	}
}

func TestValidateSourceMatchesValidate(t *testing.T) {
	pr := streamFixture(t)
	stV, errV := pr.Validate()
	stS, errS := ValidateSource(pr.Spec(), pr.Source())
	if errV != nil || errS != nil {
		t.Fatalf("valid protocol rejected: validate %v, source %v", errV, errS)
	}
	if stV.PebbleCount() != stS.PebbleCount() || stV.HostStep() != stS.HostStep() {
		t.Fatalf("final states differ: (%d,%d) vs (%d,%d)",
			stV.PebbleCount(), stV.HostStep(), stS.PebbleCount(), stS.HostStep())
	}

	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 20; k++ {
		mu := mutate(pr, rng)
		_, errV := mu.Validate()
		_, errS := ValidateSource(mu.Spec(), mu.Source())
		if (errV == nil) != (errS == nil) {
			t.Fatalf("mutant %d: validate err %v, source err %v", k, errV, errS)
		}
		if errV != nil && errV.Error() != errS.Error() {
			t.Fatalf("mutant %d: validate %q, source %q", k, errV, errS)
		}
	}
}

func TestPipeStream(t *testing.T) {
	pr := streamFixture(t)
	for _, window := range []int{1, 3, 16} {
		pipe := NewPipe(window)
		go func() {
			src := pr.Source()
			for {
				ops, err := src.NextStep()
				if err == io.EOF {
					pipe.CloseSend(nil)
					return
				}
				if err != nil {
					pipe.CloseSend(err)
					return
				}
				if err := pipe.AppendStep(ops); err != nil {
					return
				}
			}
		}()
		got, err := Materialize(pr.Spec(), pipe)
		if err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		if !reflect.DeepEqual(got.Steps, pr.Steps) {
			t.Fatalf("window %d: piped steps differ", window)
		}
	}
}

func TestPipePropagatesProducerError(t *testing.T) {
	pipe := NewPipe(2)
	boom := errors.New("boom")
	go func() {
		_ = pipe.AppendStep([]Op{{Kind: Generate, Proc: 0, Pebble: Type{P: 0, T: 1}}})
		pipe.CloseSend(boom)
	}()
	if _, err := pipe.NextStep(); err != nil {
		t.Fatalf("first step: %v", err)
	}
	if _, err := pipe.NextStep(); err != boom {
		t.Fatalf("want producer error, got %v", err)
	}
}

func TestPipeCloseRecvUnblocksProducer(t *testing.T) {
	pipe := NewPipe(1)
	done := make(chan error, 1)
	go func() {
		step := []Op{{Kind: Generate, Proc: 0, Pebble: Type{P: 0, T: 1}}}
		for i := 0; ; i++ {
			if err := pipe.AppendStep(step); err != nil {
				done <- err
				return
			}
		}
	}()
	if _, err := pipe.NextStep(); err != nil {
		t.Fatal(err)
	}
	pipe.CloseRecv()
	if err := <-done; err != ErrPipeClosed {
		t.Fatalf("want ErrPipeClosed, got %v", err)
	}
}

// TestStreamingBuildersMatchMaterialized pins the refactor invariant: the
// streaming cores must emit byte-identical step sequences to the builders
// they were extracted from.
func TestStreamingBuildersMatchMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	guest, err := topology.RandomGuest(rng, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	host, err := topology.Torus(9)
	if err != nil {
		t.Fatal(err)
	}
	f := RandomizedAssignment(9, 9, 42)
	T := 3

	legacy, err := BuildEmbeddingProtocol(guest, host, f, T)
	if err != nil {
		t.Fatal(err)
	}
	streamed := &Protocol{Guest: guest, Host: host, T: T}
	if err := StreamEmbeddingProtocol(guest, host, f, T, &ProtocolSink{Proto: streamed}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy.Steps, streamed.Steps) {
		t.Fatal("StreamEmbeddingProtocol diverged from BuildEmbeddingProtocol")
	}

	legacyP, err := BuildPipelinedProtocol(guest, host, f, T)
	if err != nil {
		t.Fatal(err)
	}
	streamedP := &Protocol{Guest: guest, Host: host, T: T}
	if err := StreamPipelinedProtocol(guest, host, f, T, &ProtocolSink{Proto: streamedP}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacyP.Steps, streamedP.Steps) {
		t.Fatal("StreamPipelinedProtocol diverged from BuildPipelinedProtocol")
	}

	queued, err := BuildQueuedEmbeddingProtocol(guest, host, f, T)
	if err != nil {
		t.Fatal(err)
	}
	streamedQ := &Protocol{Guest: guest, Host: host, T: T}
	if err := StreamQueuedEmbeddingProtocol(guest, host, f, T, &ProtocolSink{Proto: streamedQ}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(queued.Steps, streamedQ.Steps) {
		t.Fatal("StreamQueuedEmbeddingProtocol diverged from its materializing wrapper")
	}
}

// TestQueuedBuilderValidates: the scalable queued scheduler produces valid
// protocols across guests, hosts, and assignments, and both validation
// engines accept them with identical stats.
func TestQueuedBuilderValidates(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(8)
		T := 2 + rng.Intn(2)
		guest, err := topology.RandomGuest(rng, n, 2)
		if err != nil {
			t.Fatal(err)
		}
		h, err := topology.Torus(9)
		if seed%2 == 1 {
			h, err = topology.Mesh(9)
		}
		if err != nil {
			t.Fatal(err)
		}
		f := RandomizedAssignment(n, h.N(), seed)
		pr, err := BuildQueuedEmbeddingProtocol(guest, h, f, T)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := pr.Validate(); err != nil {
			t.Fatalf("seed %d: queued protocol rejected: %v", seed, err)
		}
		stats, err := ValidateSharded(pr.Spec(), pr.Source(), ShardedOptions{Shards: 3})
		if err != nil {
			t.Fatalf("seed %d: sharded rejected: %v", seed, err)
		}
		if stats.HostSteps != pr.HostSteps() || stats.Ops != int64(pr.OpCount()) {
			t.Fatalf("seed %d: stats (%d,%d), protocol (%d,%d)",
				seed, stats.HostSteps, stats.Ops, pr.HostSteps(), pr.OpCount())
		}
	}
}

// TestShardedMatchesDense extends the oracle seed suite through the sharded
// streaming validator: on valid protocols and mutants alike, accept/reject
// and the error text must match the dense engine exactly, at every shard
// count and every barrier window size.
func TestShardedMatchesDense(t *testing.T) {
	shardCounts := []int{1, 2, 3, 5}
	windows := []int{1, 3, 16}
	for seed := int64(0); seed < 80; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := 5 + rng.Intn(5)
			T := 2 + rng.Intn(2)
			guest, err := topology.RandomGuest(rng, n, 2)
			if err != nil {
				t.Fatal(err)
			}
			h, err := topology.Torus(9)
			if seed%3 == 1 {
				h, err = topology.Mesh(9)
			} else if seed%3 == 2 {
				h, err = topology.RandomRegular(rng, 8, 3)
			}
			if err != nil {
				t.Fatal(err)
			}
			f := RandomizedAssignment(n, h.N(), seed)

			var pr *Protocol
			switch seed % 5 {
			case 0:
				pr, err = RandomProtocol(guest, h, T, rng, 0)
			case 1:
				pr, err = BuildEmbeddingProtocol(guest, h, f, T)
			case 2:
				pr, err = BuildPipelinedProtocol(guest, h, f, T)
			case 3:
				pr, err = BuildMulticastProtocol(guest, h, f, T)
			default:
				pr, err = BuildQueuedEmbeddingProtocol(guest, h, f, T)
			}
			if err != nil {
				t.Fatalf("building protocol: %v", err)
			}

			check := func(p *Protocol) {
				t.Helper()
				_, errD := p.Validate()
				for _, shards := range shardCounts {
					for _, window := range windows {
						_, errS := ValidateSharded(p.Spec(), p.Source(), ShardedOptions{Shards: shards, Window: window})
						if (errD == nil) != (errS == nil) {
							t.Fatalf("shards=%d window=%d: dense err %v, sharded err %v", shards, window, errD, errS)
						}
						if errD != nil && errD.Error() != errS.Error() {
							t.Fatalf("shards=%d window=%d: dense %q, sharded %q", shards, window, errD, errS)
						}
					}
				}
			}
			check(pr)
			for k := 0; k < 3; k++ {
				check(mutate(pr, rng))
			}
		})
	}
}

// TestShardedStatsMatchProtocol pins the deterministic counters the
// experiments read.
func TestShardedStatsMatchProtocol(t *testing.T) {
	pr := streamFixture(t)
	for _, shards := range []int{1, 4} {
		stats, err := ValidateSharded(pr.Spec(), pr.Source(), ShardedOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		s := pr.Stats()
		if stats.HostSteps != s.HostSteps || stats.Ops != int64(s.TotalOps) ||
			stats.Generates != int64(s.Generates) || stats.Sends != int64(s.Sends) ||
			stats.Receives != int64(s.Receives) || stats.MaxStepOps != s.MaxStepOps {
			t.Fatalf("shards=%d: stream stats %+v, protocol stats %+v", shards, *stats, s)
		}
	}
}

// TestMinimizeStreamMatchesProtocol: the streaming minimizer and the
// materialized wrapper agree, and minimized output still validates.
func TestMinimizeStreamMatchesProtocol(t *testing.T) {
	pr := streamFixture(t)
	// Inject redundancy: duplicate a transfer step so the minimizer has
	// something to drop.
	redundant := &Protocol{Guest: pr.Guest, Host: pr.Host, T: pr.T}
	for _, step := range pr.Steps {
		redundant.Steps = append(redundant.Steps, step)
	}
	for si, step := range pr.Steps {
		if len(step) > 0 && step[0].Kind == Send {
			redundant.Steps = append(redundant.Steps[:si+1:si+1], redundant.Steps[si:]...)
			break
		}
	}
	mini, dropped, err := MinimizeProtocol(redundant)
	if err != nil {
		t.Fatal(err)
	}
	out := &Protocol{Guest: pr.Guest, Host: pr.Host, T: pr.T}
	droppedS, err := MinimizeStream(redundant.Spec(), redundant.Source(), &ProtocolSink{Proto: out})
	if err != nil {
		t.Fatal(err)
	}
	if dropped != droppedS {
		t.Fatalf("dropped %d vs %d", dropped, droppedS)
	}
	if !reflect.DeepEqual(mini.Steps, out.Steps) {
		t.Fatal("MinimizeStream output differs from MinimizeProtocol")
	}
	if _, err := mini.Validate(); err != nil {
		t.Fatalf("minimized protocol rejected: %v", err)
	}
	if dropped == 0 {
		t.Fatal("expected the duplicated step to produce drops")
	}
}

// Holds reads possession off the validator's rows, which store no t = 0
// pebbles: every processor holds those from the start. After every step of
// random play it must agree with the map oracle and State.Contains on the
// whole probe box, t = 0 pebbles and out-of-range processors, guests and
// steps included, and guestsOnCount(j, 0) must stay n.
func TestStreamValidatorHolds(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, T := 5+rng.Intn(5), 1+int(seed%3)
		guest, err := topology.RandomGuest(rng, n, 2)
		if err != nil {
			t.Fatal(err)
		}
		host, err := topology.Torus(9)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := RandomProtocol(guest, host, T, rng, 0)
		if err != nil {
			t.Fatal(err)
		}
		sv, err := NewStreamValidator(pr.Spec())
		if err != nil {
			t.Fatal(err)
		}
		st, or := NewState(guest, host, T), newOracleState(guest, host, T)
		m := host.N()
		check := func(step int) {
			t.Helper()
			for q := -1; q <= m; q++ {
				for tt := -1; tt <= T+1; tt++ {
					for i := -1; i <= n; i++ {
						pb := Type{P: i, T: tt}
						want := q >= 0 && q < m && or.Contains(q, pb)
						if got := sv.Holds(q, pb); got != want {
							t.Fatalf("seed %d step %d: Holds(%d, %v) = %v, oracle %v", seed, step, q, pb, got, want)
						}
						if got := st.Contains(q, pb); got != want {
							t.Fatalf("seed %d step %d: Contains(%d, %v) = %v, oracle %v", seed, step, q, pb, got, want)
						}
					}
				}
				if q < 0 || q >= m {
					continue
				}
				if got := st.guestsOnCount(q, 0); got != n {
					t.Fatalf("seed %d step %d: guestsOnCount(%d, 0) = %d, want n = %d", seed, step, q, got, n)
				}
				for tt := 1; tt <= T; tt++ {
					if got, want := st.guestsOnCount(q, tt), len(or.GuestsOnProcessor(q, tt)); got != want {
						t.Fatalf("seed %d step %d: guestsOnCount(%d, %d) = %d, oracle %d", seed, step, q, tt, got, want)
					}
				}
			}
		}
		check(0)
		for k, ops := range pr.Steps {
			if err := sv.AppendStep(ops); err != nil {
				t.Fatal(err)
			}
			if err := st.ApplyStep(ops); err != nil {
				t.Fatal(err)
			}
			if err := or.ApplyStep(ops); err != nil {
				t.Fatal(err)
			}
			check(k + 1)
		}
	}

	// At T = 0 the rows are empty and every answer is the start
	// configuration's.
	guest, err := topology.Ring(70)
	if err != nil {
		t.Fatal(err)
	}
	host, err := topology.Torus(9)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := NewStreamValidator(Spec{Guest: guest, Host: host, T: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !sv.Holds(8, Type{P: 69, T: 0}) || sv.Holds(9, Type{P: 0, T: 0}) || sv.Holds(0, Type{P: 0, T: 1}) || sv.Holds(0, Type{P: 70, T: 0}) {
		t.Fatal("T = 0: Holds must be true exactly for in-range processors and (P_i, 0)")
	}
	if got := NewState(guest, host, 0).guestsOnCount(3, 0); got != 70 {
		t.Fatalf("T = 0: guestsOnCount(3, 0) = %d, want 70", got)
	}
}
