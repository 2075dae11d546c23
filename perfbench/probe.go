package main

import (
	"fmt"
	"time"

	"zombie/internal/featurepipe"
)

const (
	// probeTrain is how many pool inputs train the model the quality
	// probe scores.
	probeTrain = 1000
	// probeMinCalls and probeMinTime bound the quality probe from below.
	probeMinCalls = 10
	probeMinTime  = 300 * time.Millisecond
)

// kernelProbes times the two innermost kernels on the workload's real
// holdout, with the task's own feature code and learner: feature
// extraction per holdout input, and one full holdout quality evaluation.
// They run after the timed window, in traced runs only.
func (b *bench) kernelProbes(task *featurepipe.Task) error {
	root := b.tr.start("bench.probe", spanRef{})
	defer root.end()

	sp := root.child("featurepipe.extract")
	t0 := time.Now()
	for _, idx := range task.HoldoutIdx {
		if _, err := task.Feature.Extract(task.Store.Get(idx)); err != nil {
			sp.end()
			return fmt.Errorf("extract probe: %w", err)
		}
	}
	b.rep.set("featurepipe.extract_us", float64(time.Since(t0).Microseconds())/float64(len(task.HoldoutIdx)))
	sp.end()

	holdout, err := task.BuildHoldout()
	if err != nil {
		return fmt.Errorf("quality probe: %w", err)
	}
	model := task.NewModel(task.Feature)
	for _, idx := range task.PoolIdx[:min(probeTrain, len(task.PoolIdx))] {
		res, err := task.Feature.Extract(task.Store.Get(idx))
		if err != nil {
			return fmt.Errorf("quality probe: %w", err)
		}
		if res.Produced {
			model.PartialFit(res.Example)
		}
	}
	sp = root.child("learner.quality")
	calls := 0
	t0 = time.Now()
	for calls < probeMinCalls || time.Since(t0) < probeMinTime {
		holdout.Quality(model)
		calls++
	}
	b.rep.set("learner.quality_us", float64(time.Since(t0).Microseconds())/float64(calls))
	sp.end()
	b.rep.note("probes", "feature=%s holdout=%d examples=%d quality_calls=%d",
		task.Feature.Name(), len(task.HoldoutIdx), len(holdout.Examples), calls)
	return nil
}
