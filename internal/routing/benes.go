package routing

import (
	"fmt"

	"universalnet/internal/graph"
)

// The Beneš network of dimension d has 2^d rows and 2d−1 switching stages
// (levels 0..2d−1). Stage s switches bit min(s, 2d−2−s): the outermost
// stages switch bit 0, the central stage switches bit d−1. Any permutation
// of the rows can be routed with vertex-disjoint paths, one level per step —
// the constructive content of Waksman's theorem [19] and the reason a
// butterfly of size m routes fixed permutations offline in O(log m) steps.

// BenesLevels returns the number of vertex levels of the dimension-d Beneš
// network: 2d (levels 0..2d−1), i.e. 2d−1 stages.
func BenesLevels(d int) int { return 2 * d }

// benesStageBit returns the bit switched between level s and s+1.
func benesStageBit(d, s int) int {
	if s < d {
		return s
	}
	return 2*d - 2 - s
}

// BenesNode maps (level, row) to a vertex index of the BenesGraph.
func BenesNode(d, level, row int) int { return level*(1<<d) + row }

// BenesGraph returns the dimension-d Beneš network as a graph: BenesLevels(d)
// levels of 2^d rows; between consecutive levels, straight edges and cross
// edges on the stage bit.
func BenesGraph(d int) (*graph.Graph, error) {
	if d < 1 || d > 20 {
		return nil, fmt.Errorf("routing: Beneš dimension %d out of range [1,20]", d)
	}
	rows := 1 << d
	levels := BenesLevels(d)
	b := graph.NewBuilder(levels * rows)
	for s := 0; s+1 < levels; s++ {
		bit := benesStageBit(d, s)
		for r := 0; r < rows; r++ {
			b.MustAddEdge(BenesNode(d, s, r), BenesNode(d, s+1, r))
			b.MustAddEdge(BenesNode(d, s, r), BenesNode(d, s+1, r^(1<<bit)))
		}
	}
	return b.Build(), nil
}

// BenesPaths computes, for the permutation perm of the 2^d rows, a family of
// vertex-disjoint paths through the Beneš network: paths[i][l] is the row of
// packet i at level l, with paths[i][0] = i and paths[i][last] = perm[i].
// This is the Waksman looping algorithm, applied recursively.
func BenesPaths(d int, perm []int) ([][]int, error) {
	// Stack scratch: the one-shot path must not pay a heap allocation for
	// the scratch header (Paths does not leak its receiver).
	var ps PathScratch
	ps.init(d)
	return ps.Paths(perm)
}

// PathScratch owns the working storage of the Waksman recursion plus the
// path matrix, so multi-round callers (the Beneš protocol builder routes one
// permutation per decomposition round) pay the allocations once and route
// every round allocation-free. Not safe for concurrent use.
type PathScratch struct {
	d, rows, levels int
	sc              benesScratch // by value: one header allocation, not two
	paths           [][]int
}

// NewPathScratch allocates routing storage for dimension d.
func NewPathScratch(d int) *PathScratch {
	ps := &PathScratch{}
	ps.init(d)
	return ps
}

func (ps *PathScratch) init(d int) {
	rows := 1 << d
	levels := BenesLevels(d)
	ps.d, ps.rows, ps.levels = d, rows, levels
	ps.paths = make([][]int, rows)
	buf := make([]int, rows*levels)
	for i := range ps.paths {
		ps.paths[i] = buf[i*levels : (i+1)*levels : (i+1)*levels]
	}
	ps.sc = benesScratch{
		inMate:   make([]int32, rows),
		outMate:  make([]int32, rows),
		inStamp:  make([]int32, rows),
		outStamp: make([]int32, rows),
		sub:      make([]int8, rows),
		arena:    make([]int, 3*rows*d),
		rows:     rows,
	}
}

// Paths routes perm and returns the path family. The result reuses the
// scratch's storage: it is only valid until the next Paths call (BenesPaths
// wraps a fresh scratch for callers that need to retain it). Every level of
// every path is rewritten on each call, so no stale state leaks between
// permutations.
func (ps *PathScratch) Paths(perm []int) ([][]int, error) {
	if len(perm) != ps.rows {
		return nil, fmt.Errorf("routing: permutation length %d, want %d", len(perm), ps.rows)
	}
	if err := checkPermutation(perm); err != nil {
		return nil, err
	}
	sc := &ps.sc
	ids := sc.arena[0:ps.rows]
	cur := sc.arena[ps.rows : 2*ps.rows]
	dst := sc.arena[2*ps.rows : 3*ps.rows]
	for i := 0; i < ps.rows; i++ {
		ps.paths[i][0] = i
		ids[i] = i
		cur[i] = i
		dst[i] = perm[i]
	}
	benesFill(ps.paths, ids, cur, dst, 0, ps.levels-1, 0, ps.d, sc, 0)
	return ps.paths, nil
}

// benesScratch holds the reusable working storage of one BenesPaths call.
// The mate tables are row-indexed and epoch-stamped (one epoch per recursion
// node) so no per-node maps are needed; the arena provides, per recursion
// depth, the ids/cur/dst triples of that depth's subproblems, carved at the
// subproblem's row offset — subproblems at one depth occupy disjoint row
// ranges, so they never collide.
type benesScratch struct {
	inMate, outMate   []int32 // row → packet index, valid when stamp == epoch
	inStamp, outStamp []int32
	epoch             int32
	sub               []int8 // packet slot → subnetwork (0/1), −1 unassigned
	arena             []int  // 3·rows ints per depth: ids | cur | dst
	rows              int
}

func checkPermutation(perm []int) error {
	seen := make([]bool, len(perm))
	for i, v := range perm {
		if v < 0 || v >= len(perm) {
			return fmt.Errorf("routing: perm[%d] = %d out of range", i, v)
		}
		if seen[v] {
			return fmt.Errorf("routing: value %d repeated in permutation", v)
		}
		seen[v] = true
	}
	return nil
}

// benesFill routes the packets `ids` (currently at rows cur, destined for
// rows dst; all rows agree on bits < b) through graph levels [lo, hi],
// switching bits b..d−1 and back. It writes paths[p][l] for l in (lo, hi].
func benesFill(paths [][]int, ids, cur, dst []int, lo, hi, b, d int, sc *benesScratch, off int) {
	k := d - b // bits remaining
	if k == 1 {
		// Single stage: flip (or keep) bit b to reach the destination row.
		for idx, p := range ids {
			paths[p][hi] = dst[idx]
		}
		return
	}
	// Waksman looping: assign each packet to the upper (0) or lower (1)
	// subnetwork so that input switch-mates and output switch-mates split.
	m := len(ids)
	bit := 1 << b
	sc.epoch++
	ep := sc.epoch
	for idx := range ids {
		sc.inMate[cur[idx]] = int32(idx)
		sc.inStamp[cur[idx]] = ep
		sc.outMate[dst[idx]] = int32(idx)
		sc.outStamp[dst[idx]] = ep
	}
	sub := sc.sub[:m]
	for i := range sub {
		sub[i] = -1
	}
	for start := 0; start < m; start++ {
		if sub[start] >= 0 {
			continue
		}
		// Walk the constraint cycle: input-mate forces the complement,
		// output-mate forces the complement.
		idx, val := start, int8(0)
		for {
			if sub[idx] >= 0 {
				break
			}
			sub[idx] = val
			// Input mate of idx must take 1−val.
			if sc.inStamp[cur[idx]^bit] != ep {
				panic("routing: missing input mate in Beneš recursion")
			}
			jm := int(sc.inMate[cur[idx]^bit])
			if sub[jm] >= 0 {
				break
			}
			sub[jm] = 1 - val
			// Output mate of jm must take val again.
			if sc.outStamp[dst[jm]^bit] != ep {
				panic("routing: missing output mate in Beneš recursion")
			}
			km := int(sc.outMate[dst[jm]^bit])
			idx, val = km, 1-sub[jm]
		}
	}
	// First stage: move to the assigned subnetwork row. Last stage: from the
	// mirrored row to the destination. Subproblem triples are carved from the
	// per-depth arena at this subproblem's row offset.
	half := m / 2
	ai := (b + 1) * 3 * sc.rows
	ac := ai + sc.rows
	ad := ai + 2*sc.rows
	upIDs := sc.arena[ai+off : ai+off : ai+off+half]
	loIDs := sc.arena[ai+off+half : ai+off+half : ai+off+m]
	upCur := sc.arena[ac+off : ac+off : ac+off+half]
	loCur := sc.arena[ac+off+half : ac+off+half : ac+off+m]
	upDst := sc.arena[ad+off : ad+off : ad+off+half]
	loDst := sc.arena[ad+off+half : ad+off+half : ad+off+m]
	for idx, p := range ids {
		inRow := setBit(cur[idx], bit, int(sub[idx]))
		outRow := setBit(dst[idx], bit, int(sub[idx]))
		paths[p][lo+1] = inRow
		paths[p][hi] = dst[idx]
		paths[p][hi-1] = outRow
		if sub[idx] == 0 {
			upIDs = append(upIDs, p)
			upCur = append(upCur, inRow)
			upDst = append(upDst, outRow)
		} else {
			loIDs = append(loIDs, p)
			loCur = append(loCur, inRow)
			loDst = append(loDst, outRow)
		}
	}
	if hi-1 > lo+1 {
		benesFill(paths, upIDs, upCur, upDst, lo+1, hi-1, b+1, d, sc, off)
		benesFill(paths, loIDs, loCur, loDst, lo+1, hi-1, b+1, d, sc, off+half)
	}
}

func setBit(x, bit, val int) int {
	if val == 0 {
		return x &^ bit
	}
	return x | bit
}

// VerifyBenesPaths checks that the path family is feasible: correct
// endpoints, single-bit transitions on the right stage bits, and vertex-
// disjointness (each (level, row) used by exactly one packet).
func VerifyBenesPaths(d int, perm []int, paths [][]int) error {
	rows := 1 << d
	levels := BenesLevels(d)
	if len(paths) != rows {
		return fmt.Errorf("routing: %d paths for %d rows", len(paths), rows)
	}
	// Occupancy as a flat (level, row) grid: endpoint and transition checks
	// above guarantee rows stay in [0, rows), so indexing is safe.
	occupied := make([]int, levels*rows)
	for i := range occupied {
		occupied[i] = -1
	}
	for i, path := range paths {
		if len(path) != levels {
			return fmt.Errorf("routing: path %d has %d levels, want %d", i, len(path), levels)
		}
		if path[0] != i {
			return fmt.Errorf("routing: path %d starts at row %d", i, path[0])
		}
		if path[levels-1] != perm[i] {
			return fmt.Errorf("routing: path %d ends at row %d, want %d", i, path[levels-1], perm[i])
		}
		for s := 0; s+1 < levels; s++ {
			diff := path[s] ^ path[s+1]
			bit := 1 << benesStageBit(d, s)
			if diff != 0 && diff != bit {
				return fmt.Errorf("routing: path %d level %d jumps %d→%d (stage bit %d)", i, s, path[s], path[s+1], bit)
			}
		}
		for l, r := range path {
			if prev := occupied[l*rows+r]; prev >= 0 {
				return fmt.Errorf("routing: packets %d and %d collide at level %d row %d", prev, i, l, r)
			}
			occupied[l*rows+r] = i
		}
	}
	return nil
}

// OfflinePermutationSteps routes a permutation through the Beneš network and
// returns the number of steps (one level per step): exactly 2d−1. This is
// the offline O(log m) routing of §2 made concrete; an error means the
// permutation was invalid.
func OfflinePermutationSteps(d int, perm []int) (int, error) {
	paths, err := BenesPaths(d, perm)
	if err != nil {
		return 0, err
	}
	if err := VerifyBenesPaths(d, perm, paths); err != nil {
		return 0, err
	}
	return BenesLevels(d) - 1, nil
}

// OfflineScheduleHH decomposes an h–h problem on the 2^d rows into rounds of
// (partial) permutations and routes each round through the Beneš network,
// returning the total step count: rounds · (2d−1). The decomposition is the
// König edge-coloring of §2 ("O(n/m) permutations that depend on G only").
func OfflineScheduleHH(d int, p *Problem) (steps int, rounds int, err error) {
	rows := 1 << d
	if p.N != rows {
		return 0, 0, fmt.Errorf("routing: problem on %d nodes, Beneš has %d rows", p.N, rows)
	}
	perms, err := DecomposeHRelation(p.N, p.Pairs)
	if err != nil {
		return 0, 0, err
	}
	per := BenesLevels(d) - 1
	for _, round := range perms {
		full := CompletePermutation(p.N, round)
		if _, err := OfflinePermutationSteps(d, full); err != nil {
			return 0, 0, err
		}
		steps += per
	}
	return steps, len(perms), nil
}

// CompletePermutation extends a partial permutation (distinct sources,
// distinct destinations) to a full permutation of [n] by matching the unused
// sources to the unused destinations in order.
func CompletePermutation(n int, pairs []Pair) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = -1
	}
	usedDst := make([]bool, n)
	for _, pr := range pairs {
		perm[pr.Src] = pr.Dst
		usedDst[pr.Dst] = true
	}
	free := make([]int, 0)
	for dm := 0; dm < n; dm++ {
		if !usedDst[dm] {
			free = append(free, dm)
		}
	}
	fi := 0
	for s := 0; s < n; s++ {
		if perm[s] < 0 {
			perm[s] = free[fi]
			fi++
		}
	}
	return perm
}
