// Package pebble implements the simulation model of Section 3.1: the pebble
// game. A pebble of type (P_i, t) stands for the configuration of guest
// processor P_i at guest time t. Host processors start with all (P_i, 0)
// pebbles and may, once per host step, generate a pebble (when all
// predecessor pebbles are present), send a copy of a pebble to a neighbor,
// or receive one pebble from a neighbor. Pebbles are never lost.
//
// The package records simulation protocols, validates them against the
// model's rules, and derives the quantities the lower-bound proof reasons
// about: representative sets Q_S(i,t), generator sets Q'_S(i,t), fragments
// (B, B', D), pebble weights, and the generating-pebble frontier e_t(τ) of
// Definition 3.16.
package pebble

import (
	"fmt"

	"universalnet/internal/graph"
	"universalnet/internal/obs"
)

// Type identifies a pebble (P_i, t).
type Type struct {
	P int // guest processor index i
	T int // guest time step t
}

// String renders the pebble type as (P_i, t_t).
func (ty Type) String() string { return fmt.Sprintf("(P%d,t%d)", ty.P, ty.T) }

// OpKind enumerates the three host operations.
type OpKind int

const (
	// Generate creates pebble (P_i, t) on a processor that holds all
	// predecessor pebbles (P_i, t−1) and (P_j, t−1) for neighbors P_j.
	Generate OpKind = iota
	// Send copies one held pebble to a neighboring processor.
	Send
	// Receive accepts the pebble a neighbor sent this step.
	Receive
)

// String names the operation kind.
func (k OpKind) String() string {
	switch k {
	case Generate:
		return "generate"
	case Send:
		return "send"
	case Receive:
		return "receive"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is one operation performed by one host processor in one host step.
type Op struct {
	Kind   OpKind
	Proc   int  // host processor executing the operation
	Pebble Type // pebble generated, sent, or received
	Peer   int  // for Send: receiver; for Receive: sender
}

// Protocol is a full simulation protocol S: for each host step, the list of
// operations performed (at most one per host processor per step).
type Protocol struct {
	Guest *graph.Graph
	Host  *graph.Graph
	T     int    // guest steps simulated
	Steps [][]Op // Steps[τ] = operations of host step τ+1
	// Obs, when non-nil, receives validation metrics: ops by kind, host
	// steps, and a "pebble.validate" span timing the replay.
	Obs *obs.Registry
}

// HostSteps returns T', the number of host steps.
func (pr *Protocol) HostSteps() int { return len(pr.Steps) }

// Slowdown returns s = T'/T as a float.
func (pr *Protocol) Slowdown() float64 {
	if pr.T == 0 {
		return 0
	}
	return float64(pr.HostSteps()) / float64(pr.T)
}

// Inefficiency returns k = s·m/n = T'·m / (T·n), the quantity the lower
// bound constrains (k = Ω(log m)).
func (pr *Protocol) Inefficiency() float64 {
	n := pr.Guest.N()
	if pr.T == 0 || n == 0 {
		return 0
	}
	return float64(pr.HostSteps()) * float64(pr.Host.N()) / (float64(pr.T) * float64(n))
}

// OpCount returns the total number of operations in the protocol.
func (pr *Protocol) OpCount() int {
	c := 0
	for _, step := range pr.Steps {
		c += len(step)
	}
	return c
}

// Validate replays the protocol and checks every model rule:
//   - each host processor performs at most one operation per step;
//   - Generate requires all predecessor pebbles present on the processor;
//   - Send requires possession of the pebble and a host edge to the peer;
//   - Receive must match exactly one Send of the same pebble along the same
//     edge in the same step, and a processor receives at most one pebble per
//     step (implied by the one-op rule);
//   - after the last step, every final pebble (P_i, T) was generated.
//
// It returns the final state for further analysis.
func (pr *Protocol) Validate() (*State, error) {
	sp := pr.Obs.StartSpan("pebble.validate",
		obs.KV("host_steps", pr.HostSteps()), obs.KV("guest_steps", pr.T))
	defer sp.End()
	st, err := ValidateSource(pr.Spec(), pr.Source())
	if err != nil {
		return nil, err
	}
	pr.observeValidate()
	return st, nil
}

// observeValidate records the protocol's operational profile. All metric work
// sits here, after a successful replay, so Validate's hot loop pays only the
// Obs nil-check; the counts come from Stats and are pure functions of the
// protocol, hence deterministic.
func (pr *Protocol) observeValidate() {
	if pr.Obs == nil {
		return
	}
	s := pr.Stats()
	pr.Obs.Counter("pebble.validations").Inc()
	pr.Obs.Counter("pebble.host_steps").Add(int64(s.HostSteps))
	pr.Obs.Counter("pebble.ops").Add(int64(s.TotalOps))
	pr.Obs.Counter("pebble.ops.generate").Add(int64(s.Generates))
	pr.Obs.Counter("pebble.ops.send").Add(int64(s.Sends))
	pr.Obs.Counter("pebble.ops.receive").Add(int64(s.Receives))
	pr.Obs.Gauge("pebble.max_step_ops").SetMax(int64(s.MaxStepOps))
}
