package routing

import (
	"fmt"
	"math/rand"

	"universalnet/internal/graph"
	"universalnet/internal/topology"
)

// DimensionOrderRouter routes on an N×N mesh or torus by first correcting
// the row coordinate, then the column coordinate (X–Y routing). On a torus
// it takes the shorter wrap direction per dimension. Deadlock-free and
// oblivious; the classic baseline for mesh-connected hosts.
type DimensionOrderRouter struct {
	N       int  // side length
	Wrap    bool // true for torus wraparound
	Mode    PortMode
	MaxStep int
}

// Name implements Router.
func (r *DimensionOrderRouter) Name() string {
	kind := "mesh"
	if r.Wrap {
		kind = "torus"
	}
	return fmt.Sprintf("dimorder(%s,%s)", kind, r.Mode)
}

// step direction along one axis toward target, respecting wrap.
func (r *DimensionOrderRouter) axisStep(cur, tgt int) int {
	if cur == tgt {
		return 0
	}
	if !r.Wrap {
		if tgt > cur {
			return 1
		}
		return -1
	}
	fwd := (tgt - cur + r.N) % r.N
	bwd := (cur - tgt + r.N) % r.N
	if fwd <= bwd {
		return 1
	}
	return -1
}

// nextHop returns the next node for a packet at `at` heading to `dst`.
func (r *DimensionOrderRouter) nextHop(at, dst int) int {
	ax, ay := topology.MeshCoord(r.N, at)
	dx, dy := topology.MeshCoord(r.N, dst)
	if s := r.axisStep(ax, dx); s != 0 {
		nx := ax + s
		if r.Wrap {
			nx = (nx + r.N) % r.N
		}
		return topology.MeshIndex(r.N, nx, ay)
	}
	if s := r.axisStep(ay, dy); s != 0 {
		ny := ay + s
		if r.Wrap {
			ny = (ny + r.N) % r.N
		}
		return topology.MeshIndex(r.N, ax, ny)
	}
	return at
}

// remaining is pk's mesh or torus distance to its destination.
func (r *DimensionOrderRouter) remaining(pk *packet) int {
	ax, ay := topology.MeshCoord(r.N, pk.at)
	dx, dy := topology.MeshCoord(r.N, pk.dst)
	if r.Wrap {
		return topology.TorusDistance(r.N, ax, ay, dx, dy)
	}
	d := ax - dx
	if d < 0 {
		d = -d
	}
	e := ay - dy
	if e < 0 {
		e = -e
	}
	return d + e
}

// Route implements Router. The graph must contain the mesh/torus edges the
// router assumes (extra edges are ignored).
func (r *DimensionOrderRouter) Route(g *graph.Graph, p *Problem) (Result, error) {
	if r.N*r.N != p.N || g.N() != p.N {
		return Result{}, fmt.Errorf("routing: dimension-order needs N²=%d nodes, graph %d, problem %d", r.N*r.N, g.N(), p.N)
	}
	maxStep := r.MaxStep
	if maxStep == 0 {
		maxStep = 64 * (2*r.N + 1) * (p.H() + 1)
	}
	return stepPackets(p, r.Mode, maxStep,
		func(pk *packet) (int, error) {
			v := r.nextHop(pk.at, pk.dst)
			if v == pk.at {
				return 0, fmt.Errorf("routing: stuck packet %d at %d", pk.id, pk.at)
			}
			if !g.HasEdge(pk.at, v) {
				return 0, fmt.Errorf("routing: graph missing mesh edge {%d,%d}", pk.at, v)
			}
			return v, nil
		},
		r.remaining)
}

// MeasureRoute estimates route_G(h) of §2: the number of steps the given
// router needs on random h–h problems, maximized over `trials` independent
// instances. Deterministic given the seed.
func MeasureRoute(g *graph.Graph, r Router, h, trials int, seed int64) (worst Result, err error) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < trials; i++ {
		p := RandomHH(rng, g.N(), h)
		res, rerr := r.Route(g, p)
		if rerr != nil {
			return worst, rerr
		}
		if res.Steps > worst.Steps {
			worst = res
		}
	}
	return worst, nil
}
