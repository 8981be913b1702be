package universal

import (
	"errors"
	"fmt"
	"slices"

	"universalnet/internal/cache"
	"universalnet/internal/faults"
	"universalnet/internal/graph"
	"universalnet/internal/obs"
	"universalnet/internal/pebble"
	"universalnet/internal/routing"
	"universalnet/internal/sim"
)

// engine is the one Theorem 2.1 step loop behind EmbeddingSimulator and
// FaultTolerantSimulator. Each guest is simulated by one or more replicas
// on distinct host processors, and every host keeps a real memory of the
// guest configurations it holds. A guest step is a distribution phase, in
// which each configuration travels once to every host that computes a
// neighbour of its guest but holds no replica of it, then a compute phase
// charged at the largest host load. A fault plan adds crashes and link
// failures at the start of a step (failover, re-embedding and new demands
// follow) and message faults in each distribution phase; without one those
// parts do nothing.
type engine struct {
	host *Host
	// replicas[i] lists the hosts simulating guest i, primary first. The
	// run checks and copies it.
	replicas  [][]int
	plan      *faults.Plan
	obs       *obs.Registry
	schedules *cache.Cache[string, routing.Result]
	// ft names the run's span and counter universal.ft.* instead of
	// universal.*, records the fault counters and reports AvgFetchDist.
	ft bool
}

// checkAssignment is the length and range check of a one-replica-per-guest
// assignment f of n guests to m hosts.
func checkAssignment(f []int, n, m int) error {
	if len(f) != n {
		return fmt.Errorf("universal: assignment length %d, want %d", len(f), n)
	}
	for i, q := range f {
		if q < 0 || q >= m {
			return fmt.Errorf("universal: guest %d on invalid host %d", i, q)
		}
	}
	return nil
}

// singleReplicas views f as a replica table with one replica per guest.
func singleReplicas(f []int) [][]int {
	reps := make([][]int, len(f))
	for i := range f {
		reps[i] = f[i : i+1 : i+1]
	}
	return reps
}

// copyReplicas checks a replica table of n guests on m hosts and copies it
// into one backing array; each row's capacity ends at its length, so
// recovery may filter and regrow a row in place.
func copyReplicas(replicas [][]int, n, m int) ([][]int, error) {
	if len(replicas) != n {
		return nil, fmt.Errorf("universal: replica table has %d rows for %d guests", len(replicas), n)
	}
	flat := make([]int, 0, n)
	seen := make([]int, m) // seen[q] == i+1 once guest i has a replica on q
	for i, r := range replicas {
		if len(r) == 0 {
			return nil, fmt.Errorf("universal: guest %d has no replicas", i)
		}
		for _, q := range r {
			if q < 0 || q >= m {
				return nil, fmt.Errorf("universal: guest %d replica on invalid host %d", i, q)
			}
			if seen[q] == i+1 {
				return nil, fmt.Errorf("universal: guest %d has duplicate replica host %d", i, q)
			}
			seen[q] = i + 1
		}
		flat = append(flat, r...)
	}
	reps := make([][]int, n)
	for i, r := range replicas {
		reps[i], flat = flat[:len(r):len(r)], flat[len(r):]
	}
	return reps, nil
}

// memCell is one guest's entry in a host memory: its newest known
// configuration and the guest time that belongs to plus one, 0 when the
// host knows none.
type memCell struct {
	s  sim.State
	t1 int
}

// run simulates T steps of c. On success the trace is the one the
// primaries computed from host-local memories; an error is returned if a
// host ever ships or reads a configuration it does not hold for the right
// step (the simulation correctness invariant), and an error wrapping
// ErrUnrecoverable if faults destroy the last copy of a guest.
func (e *engine) run(c *sim.Computation, T int) (*FaultReport, error) {
	guest := c.G
	n, m := guest.N(), e.host.Graph.N()
	if T < 0 {
		return nil, fmt.Errorf("universal: negative T")
	}
	reps, err := copyReplicas(e.replicas, n, m)
	if err != nil {
		return nil, err
	}
	plan := e.plan
	if plan != nil {
		if err := plan.Validate(); err != nil {
			return nil, err
		}
		for _, cr := range plan.Crashes {
			if cr.Host >= m {
				return nil, fmt.Errorf("universal: plan crashes host %d outside [0,%d)", cr.Host, m)
			}
		}
	}
	msgFaults := plan != nil && (plan.DropRate > 0 || plan.DupRate > 0 || plan.CorruptRate > 0)

	rep := &FaultReport{RunReport: RunReport{GuestSteps: T}, InitialHosts: m}
	for _, r := range reps {
		rep.Replication = max(rep.Replication, len(r))
	}

	// mem[q*n+i] is host q's cell for guest i, so host q's memory is
	// mem[q*n : (q+1)*n].
	mem := make([]memCell, m*n)
	for i, r := range reps {
		for _, q := range r {
			mem[q*n+i] = memCell{c.Init[i], 1}
		}
	}

	// The active host is the host graph less crashed processors and failed
	// links; dist[p] holds its BFS row from p, computed on first use.
	crashed := make(map[int]bool)
	failed := make(map[graph.Edge]bool)
	active := e.host.Graph
	var dist [][]int
	// nearest returns guest i's replica closest to host q in the active
	// graph (ties go to the earlier replica) and its distance, or -1, -1
	// when no replica reaches q.
	nearest := func(i, q int) (int, int) {
		if dist == nil {
			dist = make([][]int, m)
		}
		src, best := -1, -1
		for _, p := range reps[i] {
			if dist[p] == nil {
				dist[p] = active.BFS(p)
			}
			if d := dist[p][q]; d >= 0 && (best < 0 || d < best) {
				src, best = p, d
			}
		}
		return src, best
	}

	// The relation of the current placement: pair k ships the configuration
	// of guest carried[k], and the loop is source-major (guest i, its
	// neighbours, their replicas). With one replica per guest it is the
	// ⌈n/m⌉–⌈n/m⌉ problem of Theorem 2.1, the same at every step.
	var pairs []routing.Pair
	var carried []int
	shipped := make([]int, m) // shipped[q] == i+1 once guest i reaches host q
	maxLoad := 0
	rebuild := func() error {
		pairs, carried = pairs[:0], carried[:0]
		clear(shipped)
		maxLoad = pebble.MaxLoad(slices.Concat(reps...), m)
		for i := 0; i < n; i++ {
			for _, q := range reps[i] {
				shipped[q] = i + 1
			}
			for _, j := range guest.Neighbors(i) {
				for _, q := range reps[j] {
					if shipped[q] == i+1 {
						continue
					}
					shipped[q] = i + 1
					// Search only where there is a choice of replica or
					// the host is degraded.
					src := reps[i][0]
					if len(reps[i]) > 1 || active != e.host.Graph {
						if src, _ = nearest(i, q); src < 0 {
							return fmt.Errorf("universal: host %d partitioned from every replica of guest %d: %w",
								q, i, ErrUnrecoverable)
						}
					}
					pairs = append(pairs, routing.Pair{Src: src, Dst: q})
					carried = append(carried, i)
				}
			}
		}
		return nil
	}
	if err := rebuild(); err != nil {
		return nil, err
	}
	if T == 0 {
		rep.MaxLoad = maxLoad
	}

	// route returns the host steps of one distribution phase. A clean
	// relation is routed once per placement; message faults re-route it
	// every step, since a packet's fate depends on the step.
	routed := -1 // the current relation's cost once routed
	route := func(t int) (int, error) {
		problem := &routing.Problem{N: m, Pairs: pairs}
		switch {
		case len(pairs) == 0:
			return 0, nil
		case msgFaults:
			res, err := faults.RoutePhase(e.host.Router, active, problem, plan, t)
			rep.Counters.Add(res.Counters)
			return res.Steps, err
		case routed < 0:
			res, err := e.routeOnce(active, problem)
			if err != nil {
				return 0, err
			}
			routed = res.Steps
		}
		return routed, nil
	}

	prefix := "universal"
	if e.ft {
		prefix = "universal.ft"
	}
	if e.obs != nil {
		routing.SetObs(e.host.Router, e.obs)
	}
	// Resolved once; nil when disabled, and Observe on nil is a no-op.
	hostStepHist := e.obs.Histogram("universal.host_steps_per_guest_step", hostStepBuckets)
	sp := e.obs.StartSpan(prefix+".run",
		obs.KV("guest", c.Name), obs.KV("n", n), obs.KV("m", m), obs.KV("steps", T))
	defer sp.End()

	trace := &sim.Trace{States: make([][]sim.State, T+1)}
	trace.States[0] = append([]sim.State(nil), c.Init...)
	nbuf := make([]sim.State, 0, guest.MaxDegree())
	for t := 1; t <= T; t++ {
		// 1. Scheduled faults at the start of the step. A crashed host
		// loses its memory and its replicas; failover promotes the
		// surviving replica nearest the crash site (on the full host
		// graph, where the site is not isolated), and lost replicas are
		// re-embedded on the least-loaded survivors (ties → lowest id),
		// copying the primary's configuration.
		topoDirty := false
		for _, h := range plan.CrashesAt(t) {
			if !crashed[h] {
				crashed[h] = true
				rep.Counters.Crashed++
				topoDirty = true
				clear(mem[h*n : (h+1)*n])
			}
		}
		for _, ed := range plan.LinkFailuresAt(t) {
			if failed[ed] || crashed[ed.U] || crashed[ed.V] || !e.host.Graph.HasEdge(ed.U, ed.V) {
				continue
			}
			failed[ed] = true
			rep.Counters.LinksDown++
			topoDirty = true
		}
		if topoDirty {
			active = faults.Degrade(e.host.Graph, crashed, failed)
			dist = nil
			load := make([]int, m)
			for _, r := range reps {
				for _, q := range r {
					if !crashed[q] {
						load[q]++
					}
				}
			}
			for i := 0; i < n; i++ {
				site := reps[i][0]
				live := reps[i][:0]
				for _, q := range reps[i] {
					if !crashed[q] {
						live = append(live, q)
					}
				}
				if len(live) == 0 {
					return nil, fmt.Errorf("universal: guest %d lost every replica at step %d (last on host %d): %w",
						i, t, site, ErrUnrecoverable)
				}
				if crashed[site] {
					from := e.host.Graph.BFS(site)
					best, bd := 0, -1
					for ri, q := range live {
						if d := from[q]; d >= 0 && (bd < 0 || d < bd) {
							best, bd = ri, d
						}
					}
					live[0], live[best] = live[best], live[0]
					rep.Counters.FailedOver++
				}
				for len(live) < len(e.replicas[i]) {
					dst := -1
					for q := 0; q < m; q++ {
						if !crashed[q] && !slices.Contains(live, q) && (dst < 0 || load[q] < load[dst]) {
							dst = q
						}
					}
					if dst < 0 {
						break // fewer survivors than the replication degree
					}
					mem[dst*n+i] = mem[live[0]*n+i]
					live = append(live, dst)
					load[dst]++
					rep.Counters.ReEmbedded++
				}
				reps[i] = live
			}
			if err := rebuild(); err != nil {
				return nil, err
			}
			routed = -1
		}

		// 2. Distribution phase for the configurations of time t−1 (the
		// initial ones also need distributing, hence phase-before-compute).
		stepRoute, err := route(t)
		if errors.Is(err, faults.ErrPhaseLost) {
			return nil, fmt.Errorf("universal: step %d: %v: %w", t, err, ErrUnrecoverable)
		}
		if err != nil {
			return nil, fmt.Errorf("universal: routing at guest step %d: %w", t, err)
		}
		rep.RouteSteps += stepRoute
		hostStepHist.Observe(int64(stepRoute + maxLoad))
		for k, pr := range pairs {
			i := carried[k]
			if mem[pr.Src*n+i].t1 != t {
				return nil, fmt.Errorf("universal: host %d ships stale state of guest %d (have t=%d, want %d)",
					pr.Src, i, mem[pr.Src*n+i].t1-1, t-1)
			}
			mem[pr.Dst*n+i] = mem[pr.Src*n+i]
		}

		// 3. Compute phase: every replica updates its guest from its own
		// host's memory; the hosts work in parallel, each sequentially
		// through its guests, so the phase costs maxLoad host steps.
		next := make([]sim.State, n)
		for i := 0; i < n; i++ {
			for ri, q := range reps[i] {
				s, err := computeAt(c, mem[q*n:(q+1)*n], q, i, t, nbuf)
				if err != nil {
					return nil, err
				}
				if ri == 0 {
					next[i] = s
				} else if s != next[i] {
					return nil, fmt.Errorf("universal: replicas of guest %d diverged at step %d", i, t)
				}
			}
		}
		for i, r := range reps {
			for _, q := range r {
				mem[q*n+i] = memCell{next[i], t + 1}
			}
		}
		rep.ComputeSteps += maxLoad
		rep.MaxLoad = max(rep.MaxLoad, maxLoad)
		trace.States[t] = next
	}

	rep.SurvivingHosts = m - len(crashed)
	rep.HostSteps = rep.ComputeSteps + rep.RouteSteps
	if T > 0 {
		rep.Slowdown = float64(rep.HostSteps) / float64(T)
		rep.Inefficiency = rep.Slowdown * float64(m) / float64(n)
	}
	rep.Trace = trace
	if e.ft {
		// The mean distance from a replica to the nearest replica of each
		// guest neighbour, under the final placement (local fetches count
		// as distance 0).
		total, count := 0, 0
		for j, r := range reps {
			for _, q := range r {
				for _, i := range guest.Neighbors(j) {
					_, d := nearest(i, q)
					total += d
					count++
				}
			}
		}
		if count > 0 {
			rep.AvgFetchDist = float64(total) / float64(count)
		}
	}
	if e.obs != nil {
		e.obs.Counter(prefix + ".runs").Inc()
		e.obs.Counter("universal.guest_steps").Add(int64(T))
		e.obs.Counter("universal.route_steps").Add(int64(rep.RouteSteps))
		e.obs.Counter("universal.compute_steps").Add(int64(rep.ComputeSteps))
		e.obs.Gauge("universal.max_load").SetMax(int64(rep.MaxLoad))
		if e.ft {
			rep.Counters.Record(e.obs)
		}
	}
	return rep, nil
}

// computeAt is one replica's compute step: guest i's configuration at
// guest time t, computed at host q from its memory local (q's n cells),
// which must hold guest i and each of its neighbours at time t−1. nbuf is
// scratch of capacity at least the guest's degree.
func computeAt(c *sim.Computation, local []memCell, q, i, t int, nbuf []sim.State) (sim.State, error) {
	if local[i].t1 != t {
		return 0, fmt.Errorf("universal: host %d missing own guest %d at t=%d", q, i, t-1)
	}
	nbuf = nbuf[:0]
	for _, j := range c.G.Neighbors(i) {
		if local[j].t1 != t {
			return 0, fmt.Errorf("universal: host %d computing guest %d lacks neighbor %d at t=%d",
				q, i, j, t-1)
		}
		nbuf = append(nbuf, local[j].s)
	}
	return c.Step(i, local[i].s, nbuf), nil
}

// routeOnce routes p on g, through the schedule cache when there is one.
func (e *engine) routeOnce(g *graph.Graph, p *routing.Problem) (routing.Result, error) {
	route := func() (routing.Result, error) { return e.host.Router.Route(g, p) }
	if e.schedules == nil {
		return route()
	}
	return e.schedules.GetOrCompute(routing.ProblemKey(g, p), route)
}
