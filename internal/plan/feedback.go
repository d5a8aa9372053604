package plan

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Feedback closes the loop between the committed cost model and what
// execution actually measured. The engine feeds it sampled per-operator
// actuals (OpActual harvested from the trace arena) tagged with the plan's
// estimates (Op.Rows, Op.Cost); every fbRefitEvery observations a re-fit
// compares accumulated actual ns against accumulated estimated ns per
// kernel and nudges that kernel's multiplicative correction factor. When a
// correction moves materially, a fresh Costs snapshot (base coefficients +
// corrections) is published and the feedback epoch bumps, invalidating the
// cross-query plan cache so cached plans re-price.
//
// The store is lock-free on the hot path: Observe does a handful of atomic
// adds into per-(kernel, size-bucket) cells, and the refit itself is
// single-flighted behind a CAS and costs microseconds (KernelCount ×
// fbBuckets atomic swaps). Because estimates already include the current
// correction, the update c′ = clamp(c · Σactual/Σestimated) is a
// fixed-point iteration that converges to the true anchor error and tracks
// it as the index drifts (cells reset every refit, so each window sees
// only fresh traffic).
type Feedback struct {
	base  *Costs
	costs atomic.Pointer[Costs]

	epoch  atomic.Uint64
	refits atomic.Uint64
	obs    atomic.Uint64

	pending   atomic.Int64
	refitting atomic.Bool

	// rowsErr is the last window's Σ|rows−estRows| / Σrows, as Float64bits.
	rowsErr atomic.Uint64

	// corr holds the live correction per kernel, as Float64bits.
	corr [KernelCount]atomic.Uint64

	cells [KernelCount][fbBuckets]fbCell
}

// fbCell accumulates one (kernel, log₂-size-bucket) window of actuals and
// the estimates they were planned under.
type fbCell struct {
	execs   atomic.Int64
	rows    atomic.Int64
	ns      atomic.Int64
	estRows atomic.Int64
	estNs   atomic.Int64
}

const (
	// fbBuckets partitions observations by log₂(rows per exec) so a refit
	// window mixing tiny and huge operators still weighs them sanely.
	fbBuckets = 16
	// fbRefitEvery is how many harvested operators trigger a re-fit.
	fbRefitEvery = 256
	// fbMinExecs is the minimum operator executions a kernel needs in a
	// window before its correction moves (noise floor).
	fbMinExecs = 32
	// fbStepMin/fbStepMax clamp one refit's multiplicative step, so a
	// single pathological window cannot swing a correction to its rail.
	fbStepMin = 0.25
	fbStepMax = 4.0
	// fbCorrMin/fbCorrMax bound the total correction: feedback can re-rank
	// kernels, not price one into (or out of) existence.
	fbCorrMin = 1.0 / 16
	fbCorrMax = 16.0
	// fbDeadband is the relative movement some correction must exceed for
	// the refit to publish a new snapshot and bump the epoch — tiny jitter
	// must not thrash the plan cache.
	fbDeadband = 0.10
)

// NewFeedback returns a store layered over the given base coefficients
// (typically DefaultCosts). Until the first effective
// refit, Costs() returns base unchanged.
func NewFeedback(base *Costs) *Feedback {
	f := &Feedback{base: base}
	f.costs.Store(base)
	one := math.Float64bits(1)
	for k := range f.corr {
		f.corr[k].Store(one)
	}
	return f
}

// Costs returns the current corrected coefficient snapshot. The pointer is
// immutable once published; callers may hold it across a whole query.
func (f *Feedback) Costs() *Costs { return f.costs.Load() }

// Epoch returns the number of published correction snapshots. It is summed
// with the engine's stats epoch to key the plan cache, so a bump re-prices
// every cached plan.
func (f *Feedback) Epoch() uint64 { return f.epoch.Load() }

// Refits returns the number of re-fit passes run (published or not).
func (f *Feedback) Refits() uint64 { return f.refits.Load() }

// Observations returns the number of harvested operator samples.
func (f *Feedback) Observations() uint64 { return f.obs.Load() }

// Correction returns the live multiplicative correction for kernel k.
func (f *Feedback) Correction(k Kernel) float64 {
	if int(k) >= KernelCount {
		return 1
	}
	return math.Float64frombits(f.corr[k].Load())
}

// RowsError returns the last refit window's relative cardinality-estimate
// error, Σ|actual−estimated| / Σactual (0 until the first refit).
func (f *Feedback) RowsError() float64 {
	return math.Float64frombits(f.rowsErr.Load())
}

// Observe records one sampled operator: the plan estimated estRows output
// rows at estNs total cost, execution ran it execs times (once per shard)
// producing rows total output rows in ns total nanoseconds. Estimates are
// per-operator totals, matching the summed per-shard actuals. Safe for
// concurrent use; a refit may run inline every fbRefitEvery calls.
func (f *Feedback) Observe(k Kernel, estRows int, estNs float64, execs, rows, ns int64) {
	if k == KernelNone || int(k) >= KernelCount || execs <= 0 {
		return
	}
	per := rows / execs
	b := bits.Len64(uint64(per))
	if b >= fbBuckets {
		b = fbBuckets - 1
	}
	c := &f.cells[k][b]
	c.execs.Add(execs)
	c.rows.Add(rows)
	c.ns.Add(ns)
	c.estRows.Add(int64(estRows))
	e := int64(estNs + 0.5)
	if e < 1 {
		e = 1
	}
	c.estNs.Add(e)
	f.obs.Add(1)
	if f.pending.Add(1) >= fbRefitEvery && f.refitting.CompareAndSwap(false, true) {
		f.pending.Store(0)
		f.refit()
		f.refitting.Store(false)
	}
}

// refit drains every cell, updates per-kernel corrections from the
// actual/estimated ns ratio, and publishes a new Costs snapshot when a
// correction moved past the deadband. Single-flighted by the caller.
func (f *Feedback) refit() {
	var newCorr [KernelCount]float64
	var totRows, totAbsErr int64
	changed := false
	for k := 1; k < KernelCount; k++ {
		old := math.Float64frombits(f.corr[k].Load())
		newCorr[k] = old
		var execs, rows, ns, estRows, estNs int64
		for b := range f.cells[k] {
			c := &f.cells[k][b]
			execs += c.execs.Swap(0)
			rows += c.rows.Swap(0)
			ns += c.ns.Swap(0)
			estRows += c.estRows.Swap(0)
			estNs += c.estNs.Swap(0)
		}
		if rows > 0 || estRows > 0 {
			totRows += rows
			if d := rows - estRows; d >= 0 {
				totAbsErr += d
			} else {
				totAbsErr -= d
			}
		}
		if execs < fbMinExecs || estNs <= 0 || ns <= 0 {
			continue
		}
		step := float64(ns) / float64(estNs)
		if step < fbStepMin {
			step = fbStepMin
		} else if step > fbStepMax {
			step = fbStepMax
		}
		nc := old * step
		if nc < fbCorrMin {
			nc = fbCorrMin
		} else if nc > fbCorrMax {
			nc = fbCorrMax
		}
		newCorr[k] = nc
		f.corr[k].Store(math.Float64bits(nc))
		if nc > old*(1+fbDeadband) || nc < old/(1+fbDeadband) {
			changed = true
		}
	}
	if totRows > 0 || totAbsErr > 0 {
		den := totRows
		if den < 1 {
			den = 1
		}
		f.rowsErr.Store(math.Float64bits(float64(totAbsErr) / float64(den)))
	}
	f.refits.Add(1)
	if changed {
		snap := *f.base
		snap.Corr = newCorr
		f.costs.Store(&snap)
		f.epoch.Add(1)
	}
}
