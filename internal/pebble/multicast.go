package pebble

import (
	"fmt"
	"sort"

	"universalnet/internal/graph"
)

// BuildMulticastProtocol is the third protocol builder: like the phase-based
// builder, but each pebble is distributed along a shortest-path tree that
// covers all of its destination hosts, so shared path prefixes carry ONE
// copy that fans out (pebbles are copyable — the model's Send keeps the
// original). Unicast builders ship a separate copy per destination; the
// multicast tree ships one per tree edge, cutting both operations and, on
// branching hosts, host steps.
func BuildMulticastProtocol(guest, host *graph.Graph, f []int, T int) (*Protocol, error) {
	f, err := checkEmbedding(guest, host, f, T)
	if err != nil {
		return nil, err
	}
	n, m := guest.N(), host.N()
	guestsOf, maxLoad := guestsPerHost(f, m)

	// BFS parents from each source host (cached): parent[src][v] = previous
	// hop on a shortest path src→v.
	parentCache := make(map[int][]int)
	parentsFrom := func(src int) []int {
		if p, ok := parentCache[src]; ok {
			return p
		}
		parent := make([]int, m)
		for i := range parent {
			parent[i] = -1
		}
		parent[src] = src
		queue := []int{src}
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, w := range host.Neighbors(v) {
				if parent[w] < 0 {
					parent[w] = v
					queue = append(queue, w)
				}
			}
		}
		parentCache[src] = parent
		return parent
	}

	// Multicast transfer: one pending hop per tree edge; a hop becomes
	// eligible once its tail holds the pebble.
	type hop struct {
		pb       Type
		from, to int
	}
	pr := &Protocol{Guest: guest, Host: host, T: T}
	for t := 1; t <= T; t++ {
		// Generation phase.
		for r := 0; r < maxLoad; r++ {
			var ops []Op
			for q := 0; q < m; q++ {
				if r < len(guestsOf[q]) {
					ops = append(ops, Op{Kind: Generate, Proc: q, Pebble: Type{P: guestsOf[q][r], T: t}})
				}
			}
			pr.Steps = append(pr.Steps, ops)
		}
		if t == T {
			break
		}
		// Build the multicast trees: for each guest i, the union of
		// shortest paths from f(i) to every destination host.
		var hops []hop
		holds := make(map[[2]int]bool) // (host, guest) → holds (P_i, t)
		for i := 0; i < n; i++ {
			src := f[i]
			holds[[2]int{src, i}] = true
			dsts := map[int]bool{}
			for _, j := range guest.Neighbors(i) {
				if f[j] != src {
					dsts[f[j]] = true
				}
			}
			if len(dsts) == 0 {
				continue
			}
			parent := parentsFrom(src)
			edges := map[[2]int]bool{} // (from, to) tree edges, deduped
			for d := range dsts {
				for v := d; v != src; v = parent[v] {
					edges[[2]int{parent[v], v}] = true
				}
			}
			keys := make([][2]int, 0, len(edges))
			for e := range edges {
				keys = append(keys, e)
			}
			sort.Slice(keys, func(a, b int) bool {
				if keys[a][0] != keys[b][0] {
					return keys[a][0] < keys[b][0]
				}
				return keys[a][1] < keys[b][1]
			})
			for _, e := range keys {
				hops = append(hops, hop{pb: Type{P: i, T: t}, from: e[0], to: e[1]})
			}
		}
		// Schedule: each step, run eligible hops greedily (one op per
		// processor). A hop is eligible when its tail holds the pebble.
		guard := 0
		remaining := len(hops)
		done := make([]bool, len(hops))
		for remaining > 0 {
			guard++
			if guard > 16*(m+n)*(maxLoad+2) {
				return nil, fmt.Errorf("pebble: multicast distribution stalled at guest step %d", t)
			}
			busy := make(map[int]bool)
			var ops []Op
			progressed := false
			for hi := range hops {
				if done[hi] {
					continue
				}
				hp := &hops[hi]
				if !holds[[2]int{hp.from, hp.pb.P}] {
					continue
				}
				if busy[hp.from] || busy[hp.to] {
					continue
				}
				busy[hp.from] = true
				busy[hp.to] = true
				ops = append(ops, Op{Kind: Send, Proc: hp.from, Pebble: hp.pb, Peer: hp.to})
				ops = append(ops, Op{Kind: Receive, Proc: hp.to, Pebble: hp.pb, Peer: hp.from})
				done[hi] = true
				remaining--
				progressed = true
			}
			if !progressed {
				return nil, fmt.Errorf("pebble: multicast deadlock at guest step %d (%d hops left)", t, remaining)
			}
			// Apply holds after the step (synchronous semantics).
			for _, op := range ops {
				if op.Kind == Receive {
					holds[[2]int{op.Proc, op.Pebble.P}] = true
				}
			}
			pr.Steps = append(pr.Steps, ops)
		}
	}
	return pr, nil
}
