package pebble

import (
	"fmt"
	"io"

	"universalnet/internal/sim"
)

// StatefulReplay executes a protocol with real configurations attached to
// the pebbles: a pebble of type (P_i, t) carries processor i's actual
// configuration at guest time t. Generate computes the configuration from
// the predecessor pebbles' configurations held locally; Send/Receive copy
// it. This is the semantic content of the pebble game — a valid protocol
// does not merely track dependencies, it carries the computation — and the
// replay proves it for any concrete protocol: the returned final states
// must equal direct execution (checked by the caller or VerifyCarries).
//
// The computation must be over the protocol's guest graph.
func StatefulReplay(pr *Protocol, c *sim.Computation) ([]sim.State, error) {
	return StatefulReplayStream(pr.Spec(), pr.Source(), c)
}

// StatefulReplayStream is the streaming form of StatefulReplay: steps are
// consumed from src one at a time, so the protocol itself never has to be
// materialized (the carried per-pebble state maps still are — semantics
// replay is inherently a small-n verification tool).
func StatefulReplayStream(sp Spec, src StepSource, c *sim.Computation) ([]sim.State, error) {
	if c.G != sp.Guest && !c.G.Equal(sp.Guest) {
		return nil, fmt.Errorf("pebble: computation is over a different guest graph")
	}
	n, m := sp.Guest.N(), sp.Host.N()
	// value[q][ty] = configuration attached to the pebble ty at host q.
	value := make([]map[Type]sim.State, m)
	for q := 0; q < m; q++ {
		value[q] = make(map[Type]sim.State, n)
		for i := 0; i < n; i++ {
			value[q][Type{P: i, T: 0}] = c.Init[i]
		}
	}
	nbuf := make([]sim.State, 0, sp.Guest.MaxDegree())
	for τ := 0; ; τ++ {
		step, err := src.NextStep()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		// Stage the receives so that intra-step ordering cannot matter.
		type gain struct {
			q  int
			ty Type
			v  sim.State
		}
		var gains []gain
		for _, op := range step {
			switch op.Kind {
			case Generate:
				ty := op.Pebble
				self, ok := value[op.Proc][Type{P: ty.P, T: ty.T - 1}]
				if !ok {
					return nil, fmt.Errorf("pebble: step %d: generate %v on %d lacks own predecessor state", τ+1, ty, op.Proc)
				}
				nbuf = nbuf[:0]
				for _, j := range sp.Guest.Neighbors(ty.P) {
					v, ok := value[op.Proc][Type{P: j, T: ty.T - 1}]
					if !ok {
						return nil, fmt.Errorf("pebble: step %d: generate %v on %d lacks neighbor %d state", τ+1, ty, op.Proc, j)
					}
					nbuf = append(nbuf, v)
				}
				gains = append(gains, gain{q: op.Proc, ty: ty, v: c.Step(ty.P, self, nbuf)})
			case Send:
				// Handled from the receiver's side.
			case Receive:
				v, ok := value[op.Peer][op.Pebble]
				if !ok {
					return nil, fmt.Errorf("pebble: step %d: receive %v on %d but sender %d has no state", τ+1, op.Pebble, op.Proc, op.Peer)
				}
				gains = append(gains, gain{q: op.Proc, ty: op.Pebble, v: v})
			default:
				return nil, fmt.Errorf("pebble: step %d: unknown op kind %v", τ+1, op.Kind)
			}
		}
		for _, g := range gains {
			if prev, dup := value[g.q][g.ty]; dup && prev != g.v {
				return nil, fmt.Errorf("pebble: pebble %v at %d got two different states", g.ty, g.q)
			}
			value[g.q][g.ty] = g.v
		}
	}
	// Collect the final configurations from any holder of each final pebble.
	final := make([]sim.State, n)
	for i := 0; i < n; i++ {
		ty := Type{P: i, T: sp.T}
		found := false
		for q := 0; q < m && !found; q++ {
			if v, ok := value[q][ty]; ok {
				final[i] = v
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("pebble: final configuration of P%d never computed", i)
		}
	}
	return final, nil
}

// VerifyCarries validates the protocol, replays it with the computation's
// semantics, and checks the carried final configurations against direct
// execution — the end-to-end proof that the protocol simulates T steps of
// the guest.
func VerifyCarries(pr *Protocol, c *sim.Computation) error {
	if _, err := pr.Validate(); err != nil {
		return err
	}
	carried, err := StatefulReplay(pr, c)
	if err != nil {
		return err
	}
	direct, err := c.Run(pr.T)
	if err != nil {
		return err
	}
	for i, want := range direct.Final() {
		if carried[i] != want {
			return fmt.Errorf("pebble: P%d carried %d, direct execution gives %d", i, carried[i], want)
		}
	}
	return nil
}
