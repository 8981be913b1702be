package faults

import (
	"errors"
	"fmt"

	"universalnet/internal/graph"
	"universalnet/internal/routing"
)

// ErrPhaseLost is returned when a routing phase still has undelivered
// packets after the plan's retry budget: message loss the simulation cannot
// hide. Callers typically wrap it into their own unrecoverability error.
var ErrPhaseLost = errors.New("faults: routing phase lost packets beyond the retry budget")

// PhaseResult reports one fault-injected routing phase: the accumulated
// inner-router cost over all attempts plus the fault events the phase saw.
type PhaseResult struct {
	routing.Result
	Attempts int
	Counters Counters
}

// RoutePhase routes p on g with inner under the plan's message-fault model
// for guest step step. Attempt 0 routes every packet (plus deterministic
// duplicates); packets the plan drops or corrupts are retransmitted in
// further attempts — each a fresh routing sub-problem whose steps add to the
// total — until everything has been delivered intact or the retry budget is
// exhausted (ErrPhaseLost). A nil or inactive plan degenerates to a single
// clean inner route.
//
// Determinism: packet fates are pure functions of (seed, step, attempt,
// packet index), and retry sub-problems preserve the original pair order, so
// the phase cost and counters are reproducible byte-for-byte.
func RoutePhase(inner routing.Router, g *graph.Graph, p *routing.Problem, plan *Plan, step int) (PhaseResult, error) {
	var out PhaseResult
	if len(p.Pairs) == 0 {
		return out, nil
	}
	if !plan.Active() || (plan.DropRate == 0 && plan.DupRate == 0 && plan.CorruptRate == 0) {
		res, err := inner.Route(g, p)
		out.Result = res
		out.Attempts = 1
		return out, err
	}

	// pending holds the indices (into p.Pairs) still awaiting an intact
	// delivery, in ascending order.
	pending := make([]int, len(p.Pairs))
	for i := range pending {
		pending[i] = i
	}
	budget := plan.maxRetries()
	for attempt := 0; len(pending) > 0; attempt++ {
		if attempt > budget {
			return out, fmt.Errorf("faults: step %d: %d packet(s) undelivered after %d attempts: %w",
				step, len(pending), attempt, ErrPhaseLost)
		}
		// Decide fates first (pure), then build the attempt's wire problem:
		// every pending pair, plus one extra copy per duplicated packet.
		fates := make([]Fate, len(pending))
		wire := make([]routing.Pair, 0, len(pending))
		var next []int
		for k, idx := range pending {
			fates[k] = plan.PacketFate(step, attempt, idx)
			wire = append(wire, p.Pairs[idx])
			switch fates[k] {
			case Delivered:
			case Duplicated:
				out.Counters.Injected++
				out.Counters.Duplicated++
				wire = append(wire, p.Pairs[idx])
			case Dropped:
				out.Counters.Injected++
				out.Counters.Dropped++
				next = append(next, idx)
			case Corrupted:
				out.Counters.Injected++
				out.Counters.Corrupted++
				next = append(next, idx)
			}
		}
		res, err := inner.Route(g, &routing.Problem{N: p.N, Pairs: wire})
		if err != nil {
			return out, fmt.Errorf("faults: step %d attempt %d: %w", step, attempt, err)
		}
		out.Attempts++
		out.Steps += res.Steps
		out.TotalHops += res.TotalHops
		if res.MaxQueue > out.MaxQueue {
			out.MaxQueue = res.MaxQueue
		}
		// Delivered = intact deliveries of distinct payloads this attempt.
		out.Delivered += len(pending) - len(next)
		if attempt > 0 {
			out.Counters.Retried += len(pending)
		}
		pending = next
	}
	return out, nil
}
