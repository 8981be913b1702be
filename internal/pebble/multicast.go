package pebble

import (
	"cmp"
	"fmt"
	"slices"

	"universalnet/internal/graph"
)

// BuildMulticastProtocol is the multicast embedding builder: like the
// phase-based builder, but each pebble is distributed along a shortest-path
// tree that covers all of its destination hosts, so shared path prefixes
// carry ONE copy that fans out (pebbles are copyable — the model's Send
// keeps the original). Unicast builders ship a separate copy per
// destination; the multicast tree ships one per tree edge, cutting both
// operations and, on branching hosts, host steps.
func BuildMulticastProtocol(guest, host *graph.Graph, f []int, T int) (*Protocol, error) {
	p, err := newEmbeddingPlan(guest, host, f, T)
	if err != nil {
		return nil, err
	}
	pr := &Protocol{Guest: guest, Host: host, T: T}
	if err := p.streamMulticast(&ProtocolSink{Proto: pr}); err != nil {
		return nil, err
	}
	return pr, nil
}

// multicastHop is one edge of a guest's multicast tree: guest p's pebble
// crosses from → to. in is the index of the tree's hop into from, or -1
// when from is the tree's root, the guest's own host.
type multicastHop struct {
	p, from, to, in int32
}

// streamMulticast emits the multicast schedule: the plan's generation
// phase, then a distribution phase that runs the tree hops greedily in
// order, one op per processor per step, each hop once its tail holds the
// pebble.
func (p *embeddingPlan) streamMulticast(sink StepSink) error {
	m := p.m
	// BFS parents from each source host: parent[src][v] is the previous
	// hop on a shortest path src→v. These trees follow their own shortest
	// paths, not the plan's next hops.
	parent := make([][]int32, m)
	parentsFrom := func(src int32) []int32 {
		if par := parent[src]; par != nil {
			return par
		}
		par := make([]int32, m)
		for i := range par {
			par[i] = -1
		}
		par[src] = src
		queue := []int32{src}
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, w := range p.host.Neighbors(int(v)) {
				if par[w] < 0 {
					par[w] = v
					queue = append(queue, int32(w))
				}
			}
		}
		parent[src] = par
		return par
	}

	// The trees are the same at every guest step, so their hops are planned
	// once. Guest i's tree is the union of the shortest paths from f(i) to
	// its tasks' destinations; a walk up from a destination stops at the
	// root or at a node already in the tree. The hops of one tree are
	// ordered by (from, to).
	var hops []multicastHop
	inTree := make([]int32, m) // guest+1 whose tree last took host v
	into := make([]int32, m)   // index of the hop into v in that tree
	var nodes []int32
	for lo := 0; lo < len(p.taskP); {
		i := p.taskP[lo]
		hi := lo + 1
		for hi < len(p.taskP) && p.taskP[hi] == i {
			hi++
		}
		src := int32(p.f[i])
		par := parentsFrom(src)
		nodes = nodes[:0]
		for _, d := range p.taskDst[lo:hi] {
			for v := d; v != src && inTree[v] != i+1; v = par[v] {
				inTree[v] = i + 1
				nodes = append(nodes, v)
			}
		}
		slices.SortFunc(nodes, func(a, b int32) int {
			if c := cmp.Compare(par[a], par[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		for k, v := range nodes {
			into[v] = int32(len(hops) + k)
		}
		for _, v := range nodes {
			in := int32(-1)
			if par[v] != src {
				in = into[par[v]]
			}
			hops = append(hops, multicastHop{p: i, from: par[v], to: v, in: in})
		}
		lo = hi
	}

	// A hop whose in-hop ran this very step is blocked anyway: its tail was
	// that hop's head and is busy. So marking hops done as they run keeps
	// the model's synchronous semantics.
	done := make([]bool, len(hops))
	busyStamp := make([]int32, m)
	busyEpoch := int32(0)
	var ops []Op
	for t := 1; t <= p.T; t++ {
		var err error
		if ops, err = p.generate(sink, t, 0, m, ops); err != nil {
			return err
		}
		if t == p.T {
			break
		}
		clear(done)
		guard := 0
		for remaining := len(hops); remaining > 0; {
			guard++
			if guard > p.maxSteps {
				return fmt.Errorf("pebble: multicast distribution stalled at guest step %d", t)
			}
			busyEpoch++
			ops = ops[:0]
			for k := range hops {
				hp := &hops[k]
				if done[k] || hp.in >= 0 && !done[hp.in] {
					continue
				}
				if busyStamp[hp.from] == busyEpoch || busyStamp[hp.to] == busyEpoch {
					continue
				}
				busyStamp[hp.from] = busyEpoch
				busyStamp[hp.to] = busyEpoch
				pb := Type{P: int(hp.p), T: t}
				ops = append(ops, Op{Kind: Send, Proc: int(hp.from), Pebble: pb, Peer: int(hp.to)})
				ops = append(ops, Op{Kind: Receive, Proc: int(hp.to), Pebble: pb, Peer: int(hp.from)})
				done[k] = true
				remaining--
			}
			if len(ops) == 0 {
				return fmt.Errorf("pebble: multicast deadlock at guest step %d (%d hops left)", t, remaining)
			}
			if err := sink.AppendStep(ops); err != nil {
				return err
			}
		}
	}
	return nil
}
