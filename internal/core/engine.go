package core

import (
	"context"
	"strconv"
	"time"

	"zombie/internal/corpus"
	"zombie/internal/fault"
	"zombie/internal/featurepipe"
	"zombie/internal/index"
	"zombie/internal/learner"
	"zombie/internal/otrace"
	"zombie/internal/rng"
	"zombie/internal/stats"
	"zombie/internal/trace"
)

// Run executes the Zombie inner loop over the task's input pool, selecting
// inputs through the index groups with the configured bandit policy.
func (e *Engine) Run(task *featurepipe.Task, groups *index.Groups) (*RunResult, error) {
	return e.RunContext(context.Background(), task, groups)
}

// RunContext is Run with cancellation: the loop checks ctx once per step
// and, when cancelled, returns the partial result accumulated so far with
// Stop = StopCancelled rather than an error.
func (e *Engine) RunContext(ctx context.Context, task *featurepipe.Task, groups *index.Groups) (*RunResult, error) {
	return e.RunWithExecutor(ctx, task, groups, NewLocalExecutor(task, e.cfg.Cache, e.cfg.Faults))
}

// RunWithExecutor is RunContext with step execution delegated to exec —
// the entry point the distributed coordinator uses. The RNG derivation,
// policy construction and loop are exactly RunContext's, so any executor
// producing the same step outcomes yields a byte-identical curve; task
// must be the unwrapped task (the executor owns cache and fault
// wrapping).
func (e *Engine) RunWithExecutor(ctx context.Context, task *featurepipe.Task, groups *index.Groups, exec Executor) (*RunResult, error) {
	r := rng.New(e.cfg.Seed).Split("run:" + task.Name + ":" + task.Feature.Name())
	src, err := newBanditSource(groups, task.PoolSet(), e.cfg.Policy, e.cfg.PolicyStats, r.Split("policy"))
	if err != nil {
		return nil, err
	}
	seeded, err := src.warmStart(e.cfg.WarmStart, e.cfg.WarmStartDecay)
	if err != nil {
		return nil, err
	}
	res, err := e.loop(ctx, task, src, r, exec)
	if res != nil {
		res.WarmStartPulls = seeded
	}
	return res, err
}

// RunScan executes the same loop over a fixed input order: the sequential
// baseline (shuffle=false) or the paper's random-sampling baseline
// (shuffle=true).
func (e *Engine) RunScan(task *featurepipe.Task, shuffle bool) (*RunResult, error) {
	return e.RunScanContext(context.Background(), task, shuffle)
}

// RunScanContext is RunScan with cancellation (see RunContext).
func (e *Engine) RunScanContext(ctx context.Context, task *featurepipe.Task, shuffle bool) (*RunResult, error) {
	r := rng.New(e.cfg.Seed).Split("scan:" + task.Name + ":" + task.Feature.Name())
	var src inputSource
	if shuffle {
		src = newRandomScan(task.PoolIdx, r.Split("order"))
	} else {
		src = newSequentialScan(task.PoolIdx)
	}
	return e.loop(ctx, task, src, r, NewLocalExecutor(task, e.cfg.Cache, e.cfg.Faults))
}

// RunOracle executes the loop over the ground-truth-best order: all
// useful inputs first. No realizable selector can beat it; experiments use
// it as the skyline.
func (e *Engine) RunOracle(task *featurepipe.Task) (*RunResult, error) {
	return e.RunOracleContext(context.Background(), task)
}

// RunOracleContext is RunOracle with cancellation (see RunContext).
func (e *Engine) RunOracleContext(ctx context.Context, task *featurepipe.Task) (*RunResult, error) {
	r := rng.New(e.cfg.Seed).Split("oracle:" + task.Name + ":" + task.Feature.Name())
	var useful, rest []int
	for _, idx := range task.PoolIdx {
		if oracleUseful(task.Store.Get(idx), task.Feature) {
			useful = append(useful, idx)
		} else {
			rest = append(rest, idx)
		}
	}
	src := newOracleScan(useful, rest, r.Split("order"))
	return e.loop(ctx, task, src, r, NewLocalExecutor(task, e.cfg.Cache, e.cfg.Faults))
}

// oracleUseful mirrors the task feature functions' usefulness definitions
// at the ground-truth level, without paying for extraction.
func oracleUseful(in *corpus.Input, f featurepipe.FeatureFunc) bool {
	if sf, ok := f.(*featurepipe.SongFeature); ok {
		return in.Truth.Class >= sf.Genres/2
	}
	return in.Truth.Class == 1
}

// loop is the shared inner loop: one iteration per arm pull, executing a
// batch of up to BatchSize inputs (one at K=1). Cancellation is checked
// once per batch; a cancelled loop returns the partial result accumulated
// so far (never an error), skipping the final re-evaluation so
// cancellation latency is one batch, not one holdout pass.
func (e *Engine) loop(ctx context.Context, task *featurepipe.Task, src inputSource, r *rng.RNG, exec Executor) (*RunResult, error) {
	wallStart := time.Now()
	// Phase accounting is always on: the timers cost a few time.Now calls
	// per step against feature-extraction work that dominates by orders of
	// magnitude, and every run reporting where its time went is the whole
	// point of the telemetry layer. The registry fan-out (po) is optional.
	// Cache threading and fault wrapping live inside the executor (see
	// NewLocalExecutor), after the callers derived their RNG substreams and
	// the oracle inspected the concrete feature type; the wrappers preserve
	// Name/Dim/fingerprints, so a cached run is byte-identical to an
	// uncached one and the loop's own task stays unwrapped.
	var phases PhaseBreakdown
	po := newPhaseObs(e.cfg.Obs)

	// Span tracing follows the same observational contract as the phase
	// clocks: a nil tracer records nothing and every Start/End below is a
	// no-op, so the decision stream cannot depend on tracing state.
	tracer := e.cfg.Tracer
	runRef := tracer.Start(0, "run",
		otrace.String("task", task.Name),
		otrace.String("strategy", src.name()))

	res := &RunResult{
		Task:     task.Name,
		Strategy: src.name(),
	}
	hRef := tracer.Start(runRef.ID(), "holdout")
	tHoldout := time.Now()
	holdout, skips, err := exec.BuildHoldout(otrace.ContextWithSpan(ctx, tracer, hRef.ID()))
	phases.Holdout = time.Since(tHoldout)
	po.observe(phHoldout, phases.Holdout)
	hRef.End(otrace.Dur("ns.holdout", phases.Holdout))
	for _, s := range skips {
		res.Quarantined = append(res.Quarantined, Quarantine{
			InputID: s.InputID, Site: "holdout", Step: 0, Reason: s.Reason,
		})
	}
	if err != nil {
		runRef.End(otrace.String("error", err.Error()))
		return nil, err
	}
	// The quality-delta reward evaluates a small fixed subsample before
	// and after each update; build it once per run.
	var rewardHold *learner.Holdout
	if e.cfg.Reward != RewardUsefulness {
		rewardHold = subsampleHoldout(holdout, e.cfg.RewardSubsample, r.Split("reward-subsample"))
	}

	model := task.NewModel(task.Feature)
	detector := stats.NewPlateauDetector(e.cfg.EarlyStop.Window, e.cfg.EarlyStop.SlopeThreshold, e.cfg.EarlyStop.Patience)

	// Set-based evaluation (the default) measures the quality of the
	// example set collected so far, independent of the stream order the
	// bandit imposed. The amortized scheme keeps one persistent evaluation
	// model (the "snapshot") and, at each evaluation point, replays only
	// the examples collected since the previous evaluation in a
	// deterministically shuffled order — O(n) total training work per run
	// instead of the O(n²) of retraining from scratch every time. The two
	// schemes train on identical example sets, so they are equivalent for
	// learners whose fit is order-insensitive (the naive Bayes families the
	// workloads use, marked by learner.OrderInsensitive); order-sensitive
	// learners (SGD, KNN, trees) automatically keep the from-scratch full
	// reshuffle, as do EvalFromScratch and EvalEpochs > 1 (multi-epoch
	// training cannot be amortized).
	_, orderInsensitive := model.(learner.OrderInsensitive)
	fromScratch := e.cfg.EvalFromScratch || e.cfg.EvalEpochs > 1 || !orderInsensitive
	var collected []learner.Example // every example, for from-scratch retrains
	var pending []learner.Example   // examples not yet replayed into evalModel
	var evalModel learner.Model
	evalRNG := r.Split("eval")
	evaluate := func() float64 {
		tEval := time.Now()
		defer func() {
			d := time.Since(tEval)
			phases.Eval += d
			po.observe(phEval, d)
		}()
		if e.cfg.EvalIncremental {
			return e.quality(holdout, model)
		}
		if fromScratch {
			m := task.NewModel(task.Feature)
			for epoch := 0; epoch < e.cfg.EvalEpochs; epoch++ {
				for _, i := range evalRNG.Perm(len(collected)) {
					m.PartialFit(collected[i])
				}
			}
			return e.quality(holdout, m)
		}
		if evalModel == nil {
			evalModel = task.NewModel(task.Feature)
		}
		if len(pending) > 0 {
			for _, i := range evalRNG.Perm(len(pending)) {
				evalModel.PartialFit(pending[i])
			}
			pending = pending[:0]
		}
		return e.quality(holdout, evalModel)
	}

	var events *trace.Log
	if e.cfg.TraceEvents {
		events = &trace.Log{}
	}
	// emit records a step event into the in-result log (nil-safe when
	// tracing is off) and mirrors it to the Event hook — the serving
	// layer's live trace ring.
	emit := func(ev trace.Event) {
		events.Record(ev)
		if e.cfg.Event != nil {
			e.cfg.Event(ev)
		}
	}

	record := func(p CurvePoint) {
		res.Curve = append(res.Curve, p)
		if e.cfg.Progress != nil {
			e.cfg.Progress(p)
		}
	}

	var simTime time.Duration
	eRef := tracer.Start(runRef.ID(), "eval", otrace.Int("inputs", 0))
	record(CurvePoint{Inputs: 0, Quality: evaluate(), SimTime: 0})
	eRef.End(otrace.Dur("ns.eval", phases.Eval))

	// loopQuarantined counts inputs quarantined by the loop itself
	// (holdout-phase quarantines predate the budget's denominator and are
	// excluded). overBudget is checked after every quarantine, behind a
	// grace period so a fraction computed over a handful of early steps
	// cannot trip it.
	const failureGraceSteps = 20
	loopQuarantined := 0
	overBudget := func(steps int) bool {
		return steps >= failureGraceSteps &&
			float64(loopQuarantined) > e.cfg.MaxFailureFrac*float64(steps)
	}

	// The loop processes inputs in batches of up to BatchSize per arm pull
	// (K=1, the default, is the classic per-step bandit: a batch of one).
	// Per-batch scratch, the executor's outcome slices included, is
	// allocated once and reused: the inner loop must not pay an allocation
	// per processed input.
	deltaBased := e.cfg.Reward != RewardUsefulness
	batchCap := e.cfg.BatchSize
	rewards := make([]float64, 0, batchCap)
	errMsgs := make([]string, 0, batchCap)
	simAt := make([]time.Duration, 0, batchCap)
	outBuf := make([]StepOutcome, batchCap)
	errBuf := make([]error, batchCap)

	// endBatch closes a batch span with the arm and the per-phase wall
	// deltas this batch contributed — the attrs the cost summary
	// aggregates. Defined once: the loop must not allocate a closure (or,
	// with tracing off, anything at all) per iteration.
	endBatch := func(bRef *otrace.SpanRef, arm, n int, prev PhaseBreakdown) {
		if bRef == nil {
			return
		}
		bRef.End(
			otrace.Int("arm", int64(arm)),
			otrace.Int("steps", int64(n)),
			otrace.Dur("ns.select", phases.Select-prev.Select),
			otrace.Dur("ns.read", phases.Read-prev.Read),
			otrace.Dur("ns.extract", phases.Extract-prev.Extract),
			otrace.Dur("ns.train", phases.Train-prev.Train),
			otrace.Dur("ns.eval", phases.Eval-prev.Eval),
			otrace.Dur("ns.rpc", phases.RPC-prev.RPC),
		)
	}

	// The batch span rides the ctx through a cursor stamped once here and
	// repointed per batch — context.WithValue per iteration would cost two
	// heap allocations. Safe because every consumer of a batch's position
	// (local executor goroutines, shard RPCs) joins before the next batch.
	cursor := tracer.Cursor()
	cursorCtx := otrace.ContextWithCursor(ctx, cursor)
	var batchSpan otrace.SpanRef // loop-owned; refilled by StartInto per batch

	stop := StopExhausted
	steps := 0
loop:
	for {
		if ctx.Err() != nil {
			stop = StopCancelled
			break
		}
		if e.cfg.MaxInputs > 0 && steps >= e.cfg.MaxInputs {
			stop = StopBudget
			break
		}
		if e.cfg.MaxSimTime > 0 && simTime >= e.cfg.MaxSimTime {
			stop = StopBudget
			break
		}
		// Clamp the batch to the remaining input budget so a batch never
		// overshoots MaxInputs: a K=16 run with MaxInputs=100 processes
		// exactly 100 inputs, same as K=1 would.
		k := e.cfg.BatchSize
		if e.cfg.MaxInputs > 0 && steps+k > e.cfg.MaxInputs {
			k = e.cfg.MaxInputs - steps
		}
		// One span per batch, bracketing the six phases; the batch's span
		// rides the ctx so a distributed executor parents its rpc spans
		// (and the stitched worker spans) under it.
		var bRef *otrace.SpanRef
		stepCtx := ctx
		prevPhases := phases
		tSelect := time.Now()
		if tracer != nil {
			// StartInto fills the loop-owned ref and shares tSelect's clock
			// reading — the batch span must cost no allocations and no
			// extra syscalls per iteration.
			tracer.StartInto(&batchSpan, tSelect, runRef.ID(), "batch",
				otrace.Int("step", int64(steps+1)))
			bRef = &batchSpan
			cursor.Move(batchSpan.ID())
			stepCtx = cursorCtx
		}
		idxs, arm, ok := src.nextBatch(k)
		// One clock reading closes each phase and opens the next, so the
		// timers cost a few readings per batch, not two per input, and
		// nothing between selection and feedback falls outside a phase.
		tStep := time.Now()
		dSelect := tStep.Sub(tSelect)
		if !ok {
			phases.Select += dSelect
			po.observe(phSelect, dSelect)
			endBatch(bRef, -1, 0, prevPhases)
			break // pool exhausted
		}
		// The selected arm may hold fewer than k inputs; the short batch
		// still trains and evaluates normally (see TestPartialBatch).
		batchStart := steps
		outs, errs := outBuf[:len(idxs)], errBuf[:len(idxs)]
		exec.ExecuteBatch(stepCtx, steps+1, idxs, outs, errs)
		tTrain := time.Now()
		batchWall := tTrain.Sub(tStep)

		// Pass 1 — account and train, in input order (passes 1 and 2 are
		// timed together as Train). Failures quarantine exactly as
		// before: an executor error (dead worker past the
		// transport's retries) or a read error charges no cost and
		// quarantines by store index; a feature-code panic quarantines by
		// input ID. Delta-based rewards bracket the whole batch with one
		// before/after measurement of the reward holdout — the batch-train
		// amortization — which at K=1 is the classic per-input bracket.
		rewards, errMsgs, simAt = rewards[:0], errMsgs[:0], simAt[:0]
		var before float64
		bracketed := false   // the batch's "before" is measured
		advanced := false    // any input reached the extract stage
		quarantined := false // any input quarantined this batch
		var workNanos int64  // worker-side read+extract time, for rpc split
		for j, idx := range idxs {
			steps++
			rewards = append(rewards, 0)
			errMsgs = append(errMsgs, "")
			simAt = append(simAt, simTime)
			if errs[j] != nil {
				quarantined = true
				loopQuarantined++
				errMsgs[j] = errs[j].Error()
				res.Quarantined = append(res.Quarantined, Quarantine{
					InputID: "#" + strconv.Itoa(idx), Site: string(fault.SiteDistStep),
					Step: steps, Reason: errMsgs[j],
				})
				continue
			}
			out := &outs[j]
			workNanos += out.ReadNanos + out.ExtractNanos
			dRead := time.Duration(out.ReadNanos)
			phases.Read += dRead
			po.observe(phRead, dRead)
			if out.ReadErr != "" {
				quarantined = true
				loopQuarantined++
				errMsgs[j] = out.ReadErr
				res.Quarantined = append(res.Quarantined, Quarantine{
					InputID: "#" + strconv.Itoa(idx), Site: string(fault.SiteCorpusRead),
					Step: steps, Reason: out.ReadErr,
				})
				continue
			}
			advanced = true
			simTime += out.Cost
			simAt[j] = simTime
			dExtract := time.Duration(out.ExtractNanos)
			phases.Extract += dExtract
			po.observe(phExtract, dExtract)
			switch {
			case out.ExtractErr != "":
				res.Errors++
				errMsgs[j] = out.ExtractErr
				if out.Panicked {
					// A panic is categorically worse than a returned error:
					// the feature code lost control on this input. Quarantine
					// it so the run report names every input of this kind.
					quarantined = true
					loopQuarantined++
					res.Quarantined = append(res.Quarantined, Quarantine{
						InputID: out.InputID, Site: string(fault.SiteExtract),
						Step: steps, Reason: errMsgs[j],
					})
				}
			case out.Res.Produced:
				res.Produced++
				if out.Res.Useful {
					res.Useful++
				}
				if deltaBased && !bracketed {
					before = rewardHold.Quality(model)
					bracketed = true
				}
				model.PartialFit(out.Res.Example)
				// The usefulness bit: the whole reward under
				// RewardUsefulness; delta-based rewards fold the shared
				// batch delta into it in pass 2.
				if out.Res.Useful {
					rewards[j] = 1
				}
				if !e.cfg.EvalIncremental {
					if fromScratch {
						collected = append(collected, out.Res.Example)
					} else {
						pending = append(pending, out.Res.Example)
					}
				}
			}
		}
		// Read and extract are timed where they ran (on a remote worker,
		// inside the worker process); the remainder of the batch wall is
		// transport overhead — nanoseconds of call dispatch for the local
		// executor, real serialization and network time for http. A batch
		// that never executed (dead worker) is all transport time.
		if rpc := batchWall - time.Duration(workNanos); rpc > 0 {
			phases.RPC += rpc
			po.observe(phRPC, rpc)
		}

		// Pass 2 — close the delta-reward bracket: one "after" measurement
		// for the whole batch; every produced input shares the batch delta.
		if bracketed {
			after := rewardHold.Quality(model)
			delta := clamp01((after - before) * e.cfg.RewardScale)
			for j := range idxs {
				if errs[j] == nil && outs[j].Res.Produced {
					if e.cfg.Reward == RewardQualityDelta {
						rewards[j] = delta
					} else { // RewardHybrid
						rewards[j] = 0.5*rewards[j] + 0.5*delta
					}
				}
			}
		}

		tFeedback := time.Now()
		dTrain := tFeedback.Sub(tTrain)
		phases.Train += dTrain
		po.observe(phTrain, dTrain)

		// Pass 3 — credit the arm once per input, timed as Select, then
		// emit the step events, both in input order.
		for j := range idxs {
			src.feedback(arm, rewards[j])
		}
		dSelect += time.Since(tFeedback)
		phases.Select += dSelect
		po.observe(phSelect, dSelect)
		for j, idx := range idxs {
			out := &outs[j]
			emit(trace.Event{
				Step: batchStart + 1 + j, InputIdx: idx, Arm: arm, Reward: rewards[j],
				Produced: out.Res.Produced, Useful: out.Res.Useful, Err: errMsgs[j],
				SimTime: simAt[j], CacheHit: out.CacheHit,
				Quarantined: errs[j] != nil || out.ReadErr != "" || out.Panicked,
			})
		}
		if quarantined && overBudget(steps) {
			stop = StopFailed
			endBatch(bRef, arm, len(idxs), prevPhases)
			break loop
		}

		// Evaluate once per batch boundary: whenever this batch pushed the
		// processed-input count across a multiple of EvalEvery. At K=1 the
		// condition is exactly steps%EvalEvery == 0. A batch whose every
		// input failed before extraction records no point, matching the
		// per-step loop's behavior on failed steps.
		if advanced && steps/e.cfg.EvalEvery > batchStart/e.cfg.EvalEvery {
			q := evaluate()
			record(CurvePoint{Inputs: steps, Quality: q, SimTime: simTime})
			plateau := detector.Observe(q)
			if e.cfg.EarlyStop.Enabled && plateau && steps >= e.cfg.EarlyStop.MinInputs {
				stop = StopEarly
				endBatch(bRef, arm, len(idxs), prevPhases)
				break loop
			}
		}
		endBatch(bRef, arm, len(idxs), prevPhases)
	}

	// Reuse the last in-loop evaluation when it already covers the final
	// step: from-scratch evaluation reshuffles, so re-evaluating the same
	// point can return a slightly different number for order-sensitive
	// learners (amortized evaluation is stable on re-evaluation, but the
	// reuse still skips a full holdout pass). A cancelled run also reuses
	// it — the caller asked the loop to stop, so it must not pay for one
	// more holdout evaluation.
	var final float64
	if n := len(res.Curve); n > 0 && (res.Curve[n-1].Inputs == steps || stop == StopCancelled) {
		final = res.Curve[n-1].Quality
	} else {
		evalPrev := phases.Eval
		fRef := tracer.Start(runRef.ID(), "eval", otrace.Int("inputs", int64(steps)))
		final = evaluate()
		fRef.End(otrace.Dur("ns.eval", phases.Eval-evalPrev))
		record(CurvePoint{Inputs: steps, Quality: final, SimTime: simTime})
	}
	res.InputsProcessed = steps
	res.FinalQuality = final
	res.SimTime = simTime
	res.WallTime = time.Since(wallStart)
	res.Stop = stop
	res.Arms = src.arms()
	res.Events = events
	st := exec.Stats()
	res.CacheHits = st.CacheHits
	res.CacheMisses = st.CacheMisses
	phases.CacheLookup = time.Duration(st.CacheLookupNanos)
	res.Phases = phases
	po.observeRun(res.WallTime)
	if tracer != nil {
		// One zero-length "part" span per recipe part carries the run's
		// per-part extraction cost (cached runs only; holdout extractions
		// included) — pure data carriers the cost summary groups by part.
		for _, pc := range st.Parts {
			tracer.Start(runRef.ID(), "part",
				otrace.String("part", pc.Part),
				otrace.Int("hits", pc.Hits),
				otrace.Int("misses", pc.Misses),
				otrace.Dur("ns.cache_lookup", time.Duration(pc.LookupNanos)),
				otrace.Dur("ns.extract", time.Duration(pc.ComputeNanos)),
			).End()
		}
		runRef.End(
			otrace.String("stop", stop.String()),
			otrace.Int("inputs", int64(steps)),
			otrace.Dur("ns.cache_lookup", time.Duration(st.CacheLookupNanos)),
		)
	}
	return res, nil
}

// quality scores a model against a holdout, fanning the prediction pass
// out over EvalWorkers goroutines when configured. Scores are
// deterministic for any worker count.
func (e *Engine) quality(h *learner.Holdout, m learner.Model) float64 {
	if e.cfg.EvalWorkers > 1 {
		return h.QualityParallel(m, e.cfg.EvalWorkers)
	}
	return h.Quality(m)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// subsampleHoldout returns a holdout over up to n examples sampled without
// replacement from h, preserving metric configuration. With n >= len it
// reuses the full example set, and so does n <= 0: an empty subsample
// would silently zero every quality-delta reward, turning the bandit into
// a uniform sampler with no visible error (Config.RewardSubsample
// documents the floor).
func subsampleHoldout(h *learner.Holdout, n int, r *rng.RNG) *learner.Holdout {
	if n <= 0 || n >= len(h.Examples) {
		return h
	}
	picks := r.SampleWithoutReplacement(len(h.Examples), n)
	sub := make([]learner.Example, n)
	for i, p := range picks {
		sub[i] = h.Examples[p]
	}
	return learner.NewHoldout(sub, h.Metric, h.Positive)
}
