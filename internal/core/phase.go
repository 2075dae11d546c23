package core

import (
	"time"

	"zombie/internal/obs"
)

// PhaseBreakdown accounts a run's wall-clock time to the inner loop's
// phases. The seven primary phases are disjoint — each loop instruction is
// timed into at most one — so Accounted() is a true lower bound on the
// run's wall time and Coverage() measures how much of the run the
// breakdown explains (the remainder is run set-up and loop bookkeeping:
// plateau detection, curve recording and trace appends).
//
// CacheLookup is the exception: it is the extraction cache's own
// overhead (key hashing, shard locking, decode) and is a subset of
// Extract and Holdout, reported separately so a cache-heavy run can
// split "feature code ran" from "cache answered". It is excluded from
// Accounted().
type PhaseBreakdown struct {
	// Holdout is the holdout-set construction before the loop (extracting
	// every holdout example through the feature code).
	Holdout time.Duration `json:"holdout"`
	// Select is bandit work: arm selection plus reward feedback.
	Select time.Duration `json:"select"`
	// Read is corpus input fetch (disk-backed stores pay real IO here).
	Read time.Duration `json:"read"`
	// Extract is feature-code execution over streamed inputs, cache
	// traffic included.
	Extract time.Duration `json:"extract"`
	// Train is model updates plus reward computation (for delta rewards,
	// the bracketing subsample evaluations), with the per-input accounting
	// between them: one timer spans a batch's whole training pass.
	Train time.Duration `json:"train"`
	// Eval is full-holdout quality evaluation at curve points.
	Eval time.Duration `json:"eval"`
	// RPC is step-dispatch overhead: the part of each step's wall time not
	// spent reading or extracting where the work ran. For the in-process
	// executor this is nanoseconds of call dispatch; for a distributed run
	// it is serialization, network and coordinator retry time.
	RPC time.Duration `json:"rpc"`
	// CacheLookup is extraction-cache overhead, a subset of Extract and
	// Holdout (see above). Zero when the run had no cache.
	CacheLookup time.Duration `json:"cache_lookup"`
}

// phaseNames lists the primary (disjoint) phases in reporting order.
var phaseNames = []string{"holdout", "select", "read", "extract", "train", "eval", "rpc"}

// Durations returns the primary phases as a name → duration map,
// CacheLookup excluded (it overlaps Extract/Holdout).
func (p PhaseBreakdown) Durations() map[string]time.Duration {
	return map[string]time.Duration{
		"holdout": p.Holdout,
		"select":  p.Select,
		"read":    p.Read,
		"extract": p.Extract,
		"train":   p.Train,
		"eval":    p.Eval,
		"rpc":     p.RPC,
	}
}

// Millis renders the primary phases as milliseconds, the wire form
// RunInfo and the bench report use.
func (p PhaseBreakdown) Millis() map[string]float64 {
	out := make(map[string]float64, len(phaseNames))
	for name, d := range p.Durations() {
		out[name] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// Accounted sums the disjoint phases — the portion of the run's wall
// time the breakdown explains.
func (p PhaseBreakdown) Accounted() time.Duration {
	return p.Holdout + p.Select + p.Read + p.Extract + p.Train + p.Eval + p.RPC
}

// Coverage returns Accounted as a fraction of the given wall time
// (0 when wall is 0). The telemetry contract keeps this above 0.9 for
// real workloads: if it drifts lower, the loop grew an untimed phase.
func (p PhaseBreakdown) Coverage(wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(p.Accounted()) / float64(wall)
}

// phaseID indexes a primary phase inside phaseObs.
type phaseID int

const (
	phHoldout phaseID = iota
	phSelect
	phRead
	phExtract
	phTrain
	phEval
	phRPC
	numPhases
)

// phaseObs is the registry-backed side of phase timing: one histogram
// series per phase (family zombie_phase_seconds) plus the whole-run
// histogram, declared idempotently so every run of a process shares the
// same series. A nil *phaseObs is valid and observes nothing — the
// engine times phases unconditionally (RunResult.Phases is always
// filled) and only the histogram fan-out is optional.
type phaseObs struct {
	phases [numPhases]*obs.Histogram
	run    *obs.Histogram
}

func newPhaseObs(r *obs.Registry) *phaseObs {
	if r == nil {
		return nil
	}
	const name, help = "zombie_phase_seconds", "Inner-loop wall time by phase."
	o := &phaseObs{
		run: r.Histogram("zombie_run_seconds", "Engine run wall time.", obs.RunBuckets),
	}
	for i, phase := range phaseNames {
		o.phases[i] = r.HistogramL(name, help, "phase", phase, obs.LatencyBuckets)
	}
	return o
}

// observe folds one per-step (or per-run, for holdout) duration into the
// phase's histogram.
func (o *phaseObs) observe(p phaseID, d time.Duration) {
	if o == nil {
		return
	}
	o.phases[p].ObserveDuration(d)
}

// observeRun records the whole-run wall time.
func (o *phaseObs) observeRun(d time.Duration) {
	if o == nil {
		return
	}
	o.run.ObserveDuration(d)
}
