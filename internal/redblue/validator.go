package redblue

import (
	"universalnet/internal/obs"
	"universalnet/internal/pebble"
)

// forEachRef enumerates the red-memory references ops makes, in the order
// the replay performs them: per op, a Generate reads its own and each guest
// neighbor's (t−1)-pebble then writes the fresh pebble; a Send reads the
// pebble on the sender; a Receive reads (loads) it on the receiver. Belady's
// pre-scan uses the same enumeration, which is what keeps its offline
// cursors aligned with the live replay.
func forEachRef(sp pebble.Spec, ops []pebble.Op, fn func(proc int, id int32, write bool)) {
	n := sp.Guest.N()
	for _, op := range ops {
		switch op.Kind {
		case pebble.Generate:
			base := (op.Pebble.T - 1) * n
			fn(op.Proc, int32(base+op.Pebble.P), false)
			for _, j := range sp.Guest.Neighbors(op.Pebble.P) {
				fn(op.Proc, int32(base+j), false)
			}
			fn(op.Proc, int32(op.Pebble.T*n+op.Pebble.P), true)
		case pebble.Send:
			fn(op.Proc, int32(op.Pebble.T*n+op.Pebble.P), false)
		case pebble.Receive:
			fn(op.Proc, int32(op.Pebble.T*n+op.Pebble.P), false)
		}
	}
}

// Options configures a CostedValidator.
type Options struct {
	// Obs, when non-nil, receives replay counters and histograms
	// (redblue.* — deterministic, no wall-clock).
	Obs *obs.Registry
}

// CostedValidator is a pebble.StepSink that replays a protocol stream under
// the red-blue cost model: each step is first validated by the embedded
// pebble.StreamValidator (verdicts byte-identical to ValidateSharded by
// construction), then accounted against the Machine — loads for missing
// operands, a write-through store and a compute charge per Generate. The
// warm step path is allocation-free; Finish returns the Costs surface.
// The first error, of validation or of the machine, is sticky: AppendStep
// and Finish return it from then on, since the machine may hold part of
// the failed step.
type CostedValidator struct {
	sv    *pebble.StreamValidator
	ma    *Machine
	sp    pebble.Spec
	model CostModel
	pol   Policy
	tick  int64
	costs Costs
	opts  Options
	err   error

	stepIO *obs.Histogram
}

// NewCostedValidator builds a costed replay for sp under model, with pol
// choosing eviction victims. Spec errors mirror pebble.NewStreamValidator.
func NewCostedValidator(sp pebble.Spec, model CostModel, pol Policy, opts Options) (*CostedValidator, error) {
	sv, err := pebble.NewStreamValidator(sp)
	if err != nil {
		return nil, err
	}
	ma, err := NewMachine(sp, model, pol)
	if err != nil {
		return nil, err
	}
	cv := &CostedValidator{sv: sv, ma: ma, sp: sp, model: model, pol: pol, opts: opts}
	if opts.Obs != nil {
		cv.stepIO = opts.Obs.Histogram("redblue.step_io",
			[]int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	}
	return cv, nil
}

// AppendStep validates one host step and charges its red-blue costs. The
// ops slice is only read during the call.
func (cv *CostedValidator) AppendStep(ops []pebble.Op) error {
	if cv.err != nil {
		return cv.err
	}
	if err := cv.sv.AppendStep(ops); err != nil {
		cv.err = err
		return err
	}
	if err := cv.account(ops, cv.sv.HeldBefore()); err != nil {
		cv.err = err
		return err
	}
	return nil
}

// account charges one validated step to the machine. held is the
// validator's HeldBefore for ops.
//
// A processor has had a pebble of step t ≥ 1 in red exactly when it holds
// it: it can only get one by a Generate or a Receive, the machine touches
// the pebble in both, every touch needs the processor to hold the pebble or
// gives it to it, and holding never ends. So the reads of a Send and of a
// Generate's predecessors, which validation guarantees are held, count as
// had before, and a Receive's pebble or a Generate's output counts as had
// before when the processor held it before the step. A processor does one
// op per step, so that is also before the op.
func (cv *CostedValidator) account(ops []pebble.Op, held []bool) error {
	ioBefore := cv.ma.loads + cv.ma.stores
	n := cv.sp.Guest.N()
	for k, op := range ops {
		cv.tick++
		tick := cv.tick
		id := int32(op.Pebble.T*n + op.Pebble.P)
		switch op.Kind {
		case pebble.Generate:
			base := (op.Pebble.T - 1) * n
			if err := cv.ma.access(op.Proc, int32(base+op.Pebble.P), false, true, tick); err != nil {
				return err
			}
			for _, j := range cv.sp.Guest.Neighbors(op.Pebble.P) {
				if err := cv.ma.access(op.Proc, int32(base+j), false, true, tick); err != nil {
					return err
				}
			}
			if err := cv.ma.access(op.Proc, id, true, held[k], tick); err != nil {
				return err
			}
			cv.ma.store(op.Proc, id)
			cv.ma.computeQ[op.Proc]++
			cv.costs.Compute++
		case pebble.Send:
			if err := cv.ma.access(op.Proc, id, false, true, tick); err != nil {
				return err
			}
		case pebble.Receive:
			if err := cv.ma.access(op.Proc, id, false, held[k], tick); err != nil {
				return err
			}
		}
	}
	cv.costs.HostSteps++
	cv.stepIO.Observe(cv.ma.loads + cv.ma.stores - ioBefore)
	return nil
}

// Finish runs the base validator's final-generator check and returns the
// priced outcome, or the first error of the replay.
func (cv *CostedValidator) Finish() (*Costs, error) {
	if cv.err != nil {
		return nil, cv.err
	}
	if _, err := cv.sv.Finish(); err != nil {
		cv.err = err
		return nil, err
	}
	c := cv.costs
	c.Loads = cv.ma.loads
	c.ColdLoads = cv.ma.coldLoads
	c.Reloads = cv.ma.reloads
	c.Stores = cv.ma.stores
	c.IOSteps = c.Loads + c.Stores
	c.PeakRed = cv.ma.peakRed
	for q := 0; q < cv.ma.m; q++ {
		cost := cv.model.ComputeCost*cv.ma.computeQ[q] + cv.model.IOCost*cv.ma.ioQ[q]
		c.TotalCost += cost
		if cost > c.Makespan {
			c.Makespan = cost
		}
	}
	if reg := cv.opts.Obs; reg != nil {
		reg.Counter("redblue.replays").Inc()
		reg.Counter("redblue.compute").Add(c.Compute)
		reg.Counter("redblue.io.loads").Add(c.Loads)
		reg.Counter("redblue.io.reloads").Add(c.Reloads)
		reg.Counter("redblue.io.stores").Add(c.Stores)
		reg.Gauge("redblue.peak_red").SetMax(int64(c.PeakRed))
		reg.Histogram("redblue.makespan",
			[]int64{16, 64, 256, 1024, 4096, 16384, 65536, 1 << 20}).Observe(c.Makespan)
	}
	return &c, nil
}

// aheadMinPebbles is the fewest pebbles, T·n, for which ReplayCosted runs
// the validator ahead of the machine. Medians of 5 alternating runs on 2
// cores, 3-regular guests on tori of 16 and 64 processors: running ahead
// was 36% slower than inline at T·n = 192 and 1–20% slower from 768 to
// 1536; from 3072 to 4.9·10⁴, in nine cases, it was 2% slower once (3072
// on 64 processors) and 11–41% faster in the rest; on the d = 7 butterfly
// it was 33–48% faster from 8192 to 10⁵.
const aheadMinPebbles = 1 << 12

// ReplayCosted drains src through a CostedValidator and returns the priced
// outcome. Source errors are returned verbatim; validation errors match
// pebble.ValidateSharded byte for byte. It drains src through
// pebble.StreamValidator.DrainAhead, which, for a spec large enough to
// repay it, runs the validator with the source's decode on a goroutine of
// its own ahead of the machine; the result and the error are those of an
// AppendStep loop and Finish.
func ReplayCosted(sp pebble.Spec, src pebble.StepSource, model CostModel, pol Policy, opts Options) (*Costs, error) {
	cv, err := NewCostedValidator(sp, model, pol, opts)
	if err != nil {
		return nil, err
	}
	if err := cv.sv.DrainAhead(src, aheadMinPebbles, cv.account); err != nil {
		return nil, err
	}
	return cv.Finish()
}
