package routing

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"universalnet/internal/topology"
)

func TestOddEvenTranspositionSorts(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 12} {
		s := OddEvenTransposition(n)
		if err := s.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		ok, err := s.Sorts()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("odd-even transposition fails for n=%d", n)
		}
		if s.Depth() != n {
			t.Errorf("depth %d, want %d", s.Depth(), n)
		}
	}
}

func TestBitonicSorts(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		s, err := Bitonic(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		ok, err := s.Sorts()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("bitonic fails for n=%d", n)
		}
		// Depth = log n (log n + 1)/2.
		k := bits.Len(uint(n)) - 1
		if want := k * (k + 1) / 2; s.Depth() != want {
			t.Errorf("n=%d depth %d, want %d", n, s.Depth(), want)
		}
	}
	if _, err := Bitonic(6); err == nil {
		t.Error("non-power-of-two accepted")
	}
}

func TestOddEvenMergeSorts(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		s, err := OddEvenMerge(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		ok, err := s.Sorts()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("odd-even merge fails for n=%d", n)
		}
	}
	if _, err := OddEvenMerge(12); err == nil {
		t.Error("non-power-of-two accepted")
	}
}

func TestOddEvenMergeSmallerThanBitonic(t *testing.T) {
	b, _ := Bitonic(16)
	m, _ := OddEvenMerge(16)
	if m.Size() >= b.Size() {
		t.Errorf("odd-even merge size %d not below bitonic %d", m.Size(), b.Size())
	}
}

func TestScheduleApplyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(14)
		s := OddEvenTransposition(n)
		keys := make([]int, n)
		for i := range keys {
			keys[i] = r.Intn(100)
		}
		if err := s.Apply(keys); err != nil {
			return false
		}
		return sort.IntsAreSorted(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestScheduleApplyWrongSize(t *testing.T) {
	s := OddEvenTransposition(4)
	if err := s.Apply([]int{1, 2}); err == nil {
		t.Error("wrong key count accepted")
	}
}

func TestScheduleValidateCatchesBadRounds(t *testing.T) {
	s := &Schedule{N: 4, Rounds: [][]CompareExchange{{{I: 0, J: 0}}}}
	if err := s.Validate(); err == nil {
		t.Error("self comparator accepted")
	}
	s = &Schedule{N: 4, Rounds: [][]CompareExchange{{{I: 0, J: 1}, {I: 1, J: 2}}}}
	if err := s.Validate(); err == nil {
		t.Error("overlapping round accepted")
	}
	s = &Schedule{N: 4, Rounds: [][]CompareExchange{{{I: 0, J: 9}}}}
	if err := s.Validate(); err == nil {
		t.Error("out-of-range comparator accepted")
	}
}

func TestSortsGuards(t *testing.T) {
	s := OddEvenTransposition(24)
	if _, err := s.Sorts(); err == nil {
		t.Error("n=24 0-1 check should refuse")
	}
	// A schedule that clearly does not sort.
	bad := &Schedule{N: 4, Rounds: [][]CompareExchange{{{I: 0, J: 1}}}}
	ok, err := bad.Sorts()
	if err != nil || ok {
		t.Errorf("non-sorting schedule passed: %v %v", ok, err)
	}
}

func TestSortingRouterOnPath(t *testing.T) {
	n := 8
	g, err := topology.Path(n)
	if err != nil {
		t.Fatal(err)
	}
	p := RandomPermutation(rand.New(rand.NewSource(2)), n)
	r := &SortingRouter{Schedule: OddEvenTransposition(n), CheckEdges: true}
	res, err := r.Route(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != n || res.Delivered != n {
		t.Errorf("steps=%d delivered=%d", res.Steps, res.Delivered)
	}
}

func TestSortingRouterOnHypercube(t *testing.T) {
	d := 4
	n := 1 << d
	g, err := topology.Hypercube(d)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Bitonic(n)
	if err != nil {
		t.Fatal(err)
	}
	p := BitReversal(d)
	r := &SortingRouter{Schedule: sched, CheckEdges: true}
	res, err := r.Route(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != sched.Depth() {
		t.Errorf("steps = %d", res.Steps)
	}
}

func TestSortingRouterRejectsNonPermutation(t *testing.T) {
	n := 4
	g, err := topology.Path(n)
	if err != nil {
		t.Fatal(err)
	}
	r := &SortingRouter{Schedule: OddEvenTransposition(n)}
	// Two packets from the same node.
	p := &Problem{N: n, Pairs: []Pair{{0, 1}, {0, 2}, {1, 0}, {2, 3}}}
	if _, err := r.Route(g, p); err == nil {
		t.Error("h>1 problem accepted")
	}
	// Missing source.
	p2 := &Problem{N: n, Pairs: []Pair{{0, 1}, {1, 0}, {2, 3}}}
	if _, err := r.Route(g, p2); err == nil {
		t.Error("partial permutation accepted")
	}
	// Duplicate destination.
	p3 := &Problem{N: n, Pairs: []Pair{{0, 1}, {1, 1}, {2, 3}, {3, 0}}}
	if _, err := r.Route(g, p3); err == nil {
		t.Error("non-injective destination accepted")
	}
}

func TestSortingRouterEdgeCheck(t *testing.T) {
	// Bitonic comparators are hypercube edges, not path edges.
	n := 8
	g, err := topology.Path(n)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Bitonic(n)
	if err != nil {
		t.Fatal(err)
	}
	p := RandomPermutation(rand.New(rand.NewSource(3)), n)
	r := &SortingRouter{Schedule: sched, CheckEdges: true}
	if _, err := r.Route(g, p); err == nil {
		t.Error("non-edge comparator accepted with CheckEdges")
	}
}

func TestSortingRouterSizeMismatch(t *testing.T) {
	g, err := topology.Path(8)
	if err != nil {
		t.Fatal(err)
	}
	r := &SortingRouter{Schedule: OddEvenTransposition(4)}
	p := RandomPermutation(rand.New(rand.NewSource(4)), 8)
	if _, err := r.Route(g, p); err == nil {
		t.Error("size mismatch accepted")
	}
}
