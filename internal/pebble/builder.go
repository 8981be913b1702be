package pebble

import (
	"fmt"
	"sort"

	"universalnet/internal/graph"
)

// BuildEmbeddingProtocol constructs a simulation protocol in the style of
// Theorem 2.1: guest processors are statically mapped onto host processors
// by the assignment f (f[i] = host of guest i); each guest step is simulated
// by a generation phase (each host generates the new pebbles of its guests,
// one per host step) followed by a distribution phase (each new pebble is
// copied along shortest host paths to the hosts of all guest neighbors,
// store-and-forward, one operation per processor per step).
//
// If f is nil, a balanced round-robin assignment i ↦ i mod m is used.
// The returned protocol passes Validate; its Inefficiency() is the measured
// k of the run.
func BuildEmbeddingProtocol(guest, host *graph.Graph, f []int, T int) (*Protocol, error) {
	pr := &Protocol{Guest: guest, Host: host, T: T}
	if err := StreamEmbeddingProtocol(guest, host, f, T, &ProtocolSink{Proto: pr}); err != nil {
		return nil, err
	}
	return pr, nil
}

// StreamEmbeddingProtocol is the streaming core of BuildEmbeddingProtocol:
// identical schedule, but each host step is emitted through sink as soon as
// it is assembled, so the protocol never has to exist as a whole. The ops
// slice passed to the sink is reused across steps.
func StreamEmbeddingProtocol(guest, host *graph.Graph, f []int, T int, sink StepSink) error {
	f, err := checkEmbedding(guest, host, f, T)
	if err != nil {
		return err
	}
	n, m := guest.N(), host.N()
	guestsOf, maxLoad := guestsPerHost(f, m)

	// Distribution tasks per guest step: pebble (P_i, t) from f(i) to the
	// distinct hosts of i's neighbors. The task list is identical for every t
	// up to the pebble's time coordinate, so routes are planned once into a
	// reusable buffer; `seen` is a stamped slice rather than a per-guest map.
	type task struct {
		pb  Type
		at  int
		dst int
	}
	var tasks []task
	seenStamp := make([]int32, m)
	seenEpoch := int32(0)
	buildTasks := func(t int) []task {
		tasks = tasks[:0]
		for i := 0; i < n; i++ {
			seenEpoch++
			seenStamp[f[i]] = seenEpoch
			for _, j := range guest.Neighbors(i) {
				h := f[j]
				if seenStamp[h] != seenEpoch {
					seenStamp[h] = seenEpoch
					tasks = append(tasks, task{pb: Type{P: i, T: t}, at: f[i], dst: h})
				}
			}
		}
		return tasks
	}

	// Next-hop via cached BFS distance-to-destination.
	distCache := make([][]int, m)
	distTo := func(dst int) []int {
		if d := distCache[dst]; d != nil {
			return d
		}
		d := host.BFS(dst)
		distCache[dst] = d
		return d
	}
	nextHop := func(at, dst int) int {
		d := distTo(dst)
		for _, w := range host.Neighbors(at) {
			if d[w] == d[at]-1 {
				return w
			}
		}
		return -1
	}

	// Ops are assembled in a reusable scratch handed to the sink each step;
	// retaining sinks (ProtocolSink, ChunkedLog) copy, so steps carry no
	// append-growth slack in the materialized form.
	var opsBuf []Op
	emit := func() error { return sink.AppendStep(opsBuf) }
	busyStamp := make([]int32, m)
	busyEpoch := int32(0)
	for t := 1; t <= T; t++ {
		// Generation phase: maxLoad host steps.
		for r := 0; r < maxLoad; r++ {
			opsBuf = opsBuf[:0]
			for q := 0; q < m; q++ {
				if r < len(guestsOf[q]) {
					opsBuf = append(opsBuf, Op{Kind: Generate, Proc: q, Pebble: Type{P: guestsOf[q][r], T: t}})
				}
			}
			if err := emit(); err != nil {
				return err
			}
		}
		if t == T {
			break // final pebbles need not be distributed
		}
		// Distribution phase.
		tasks := buildTasks(t)
		guard := 0
		for remaining := len(tasks); remaining > 0; {
			guard++
			if guard > 16*(m+n)*(maxLoad+1) {
				return fmt.Errorf("pebble: distribution stalled at guest step %d", t)
			}
			busyEpoch++
			opsBuf = opsBuf[:0]
			for ti := range tasks {
				tk := &tasks[ti]
				if tk.at == tk.dst {
					continue
				}
				if busyStamp[tk.at] == busyEpoch {
					continue
				}
				v := nextHop(tk.at, tk.dst)
				if v < 0 {
					return fmt.Errorf("pebble: no route from %d to %d", tk.at, tk.dst)
				}
				if busyStamp[v] == busyEpoch {
					continue
				}
				busyStamp[tk.at] = busyEpoch
				busyStamp[v] = busyEpoch
				opsBuf = append(opsBuf, Op{Kind: Send, Proc: tk.at, Pebble: tk.pb, Peer: v})
				opsBuf = append(opsBuf, Op{Kind: Receive, Proc: v, Pebble: tk.pb, Peer: tk.at})
				tk.at = v
				if tk.at == tk.dst {
					remaining--
				}
			}
			if len(opsBuf) == 0 {
				return fmt.Errorf("pebble: no progress in distribution at guest step %d", t)
			}
			if err := emit(); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkEmbedding runs the argument checks every embedding builder shares:
// T ≥ 1, a connected host, and one valid host per guest in f. A nil f
// selects BalancedAssignment; the assignment in force is returned.
func checkEmbedding(guest, host *graph.Graph, f []int, T int) ([]int, error) {
	n, m := guest.N(), host.N()
	if T < 1 {
		return nil, fmt.Errorf("pebble: need T ≥ 1, got %d", T)
	}
	if !host.IsConnected() {
		return nil, fmt.Errorf("pebble: host must be connected")
	}
	if f == nil {
		f = BalancedAssignment(n, m)
	}
	if len(f) != n {
		return nil, fmt.Errorf("pebble: assignment length %d, want %d", len(f), n)
	}
	for i, q := range f {
		if q < 0 || q >= m {
			return nil, fmt.Errorf("pebble: guest %d assigned to invalid host %d", i, q)
		}
	}
	return f, nil
}

// guestsPerHost lists each of the m hosts' guests in index order — the
// generation schedule — and returns the longest list's length.
func guestsPerHost(f []int, m int) (guestsOf [][]int, maxLoad int) {
	guestsOf = make([][]int, m)
	for i, q := range f {
		guestsOf[q] = append(guestsOf[q], i)
	}
	for _, gs := range guestsOf {
		if len(gs) > maxLoad {
			maxLoad = len(gs)
		}
	}
	return guestsOf, maxLoad
}

// BalancedAssignment returns the canonical load-balanced map f of
// Theorem 2.1's proof: guest i to host i mod m; every host receives at most
// ⌈n/m⌉ guests.
func BalancedAssignment(n, m int) []int {
	f := make([]int, n)
	for i := range f {
		f[i] = i % m
	}
	return f
}

// LoadOf returns the per-host guest counts of an assignment.
func LoadOf(f []int, m int) []int {
	load := make([]int, m)
	for _, q := range f {
		load[q]++
	}
	return load
}

// MaxLoad returns the largest entry of LoadOf.
func MaxLoad(f []int, m int) int {
	max := 0
	for _, l := range LoadOf(f, m) {
		if l > max {
			max = l
		}
	}
	return max
}

// RandomizedAssignment assigns guests to hosts by a seeded shuffle of the
// balanced assignment, decorrelating guest structure from host locality.
func RandomizedAssignment(n, m int, seed int64) []int {
	f := BalancedAssignment(n, m)
	// Fisher–Yates with a small deterministic LCG to avoid importing rand
	// here; assignments only need decorrelation, not statistical quality.
	s := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func(k int) int {
		s = s*6364136223846793005 + 1442695040888963407
		return int((s >> 33) % uint64(k))
	}
	for i := n - 1; i > 0; i-- {
		j := next(i + 1)
		f[i], f[j] = f[j], f[i]
	}
	return f
}

// FragmentPickers: strategies for choosing b_i among the generators.

// PickFirst chooses the smallest-index generator.
func PickFirst(_ int, _ []int) int { return 0 }

// PickLightest returns a picker that chooses the generator holding the
// fewest time-t₀ pebbles — the choice that makes |D_i| small, mirroring the
// Main Lemma's part (3).
func (st *State) PickLightest(t0 int) func(i int, gens []int) int {
	return func(_ int, gens []int) int {
		best, bestLoad := 0, -1
		for k, q := range gens {
			load := st.guestsOnCount(q, t0)
			if bestLoad < 0 || load < bestLoad {
				best, bestLoad = k, load
			}
		}
		return best
	}
}

// SortedCopy returns a sorted copy of xs (test helper shared by fragment
// assertions).
func SortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}
