package core

import (
	"context"
	"math"
	"strconv"
	"testing"

	"zombie/internal/corpus"
	"zombie/internal/featurepipe"
	"zombie/internal/index"
	"zombie/internal/learner"
	"zombie/internal/rng"
)

func TestClamp01(t *testing.T) {
	for _, tc := range []struct{ in, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 0.5}, {1, 1}, {2, 1},
	} {
		if got := clamp01(tc.in); got != tc.want {
			t.Errorf("clamp01(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// fixedHoldout builds a trivial 1-D binary holdout for reward tests.
func fixedHoldout() *learner.Holdout {
	exs := []learner.Example{
		{Features: learner.DenseVec([]float64{-1}), Class: 0},
		{Features: learner.DenseVec([]float64{-0.8}), Class: 0},
		{Features: learner.DenseVec([]float64{1}), Class: 1},
		{Features: learner.DenseVec([]float64{0.8}), Class: 1},
	}
	return learner.NewHoldout(exs, learner.MetricAccuracy, 1)
}

// scriptExec is an Executor serving a fixed script of extraction results
// by step number over a fixed holdout: the reward tests' handle on the
// loop's batch bracket. At K=1 every step is its own bracket, and the step
// events report the reward the loop computed for it.
type scriptExec struct {
	hold   *learner.Holdout
	script []featurepipe.Result
}

func (x *scriptExec) BuildHoldout(context.Context) (*learner.Holdout, []featurepipe.HoldoutSkip, error) {
	return x.hold, nil, nil
}

func (x *scriptExec) ExecuteBatch(_ context.Context, firstStep int, idxs []int, outs []StepOutcome, errs []error) {
	for j := range idxs {
		outs[j] = StepOutcome{InputID: strconv.Itoa(firstStep + j), Res: x.script[firstStep+j-1]}
		errs[j] = nil
	}
}

func (x *scriptExec) Stats() ExecutorStats { return ExecutorStats{} }

// runScript runs the loop at K=1 over script (one step per result, against
// fixedHoldout and a 1-D GaussianNB learner) and returns each step's
// reward and the loop's training model.
func runScript(t *testing.T, cfg Config, script []featurepipe.Result) (rewards []float64, model learner.Model) {
	t.Helper()
	ins := make([]*corpus.Input, len(script))
	pool := make([]int, len(script))
	for i := range ins {
		ins[i] = &corpus.Input{ID: strconv.Itoa(i)}
		pool[i] = i
	}
	task := &featurepipe.Task{
		Name:    "script",
		Store:   corpus.NewMemStore(ins),
		Feature: featurepipe.NewWikiFeature(1),
		NewModel: func(featurepipe.FeatureFunc) learner.Model {
			m := learner.NewGaussianNB(1, 2, 1e-3)
			if model == nil { // the loop builds its training model first
				model = m
			}
			return m
		},
		Metric:   learner.MetricAccuracy,
		Positive: 1,
		PoolIdx:  pool,
	}
	groups := &index.Groups{Members: [][]int{pool}, Assign: make([]int, len(script))}
	cfg.MaxInputs, cfg.TraceEvents = len(script), true
	res, err := mustEngine(t, cfg).RunWithExecutor(context.Background(), task, groups,
		&scriptExec{hold: fixedHoldout(), script: script})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range res.Events.Events {
		rewards = append(rewards, ev.Reward)
	}
	if len(rewards) != len(script) {
		t.Fatalf("%d step events for a %d-step script", len(rewards), len(script))
	}
	return rewards, model
}

// example is a produced 1-D extraction result.
func example(x float64, class int, useful bool) featurepipe.Result {
	return featurepipe.Result{
		Example:  learner.Example{Features: learner.DenseVec([]float64{x}), Class: class},
		Produced: true, Useful: useful,
	}
}

// saturating returns 2n examples that train the model to perfection on
// fixedHoldout.
func saturating(n int) []featurepipe.Result {
	var script []featurepipe.Result
	for i := 0; i < n; i++ {
		script = append(script, example(-1, 0, false), example(1, 1, false))
	}
	return script
}

func TestRewardUsefulnessValues(t *testing.T) {
	rewards, model := runScript(t, Config{Reward: RewardUsefulness},
		[]featurepipe.Result{example(1, 1, true), example(-1, 0, false)})
	if rewards[0] != 1 {
		t.Fatalf("useful reward = %v", rewards[0])
	}
	if rewards[1] != 0 {
		t.Fatalf("useless reward = %v", rewards[1])
	}
	if model.Seen() != 2 {
		t.Fatalf("model not trained by reward path: seen=%d", model.Seen())
	}
}

func TestRewardQualityDeltaPaysForImprovement(t *testing.T) {
	// Seed the model so quality is defined, with one example per class —
	// class 1's on the wrong side, so the good example must help. Scale 2
	// keeps the expected reward off both clamp bounds and off the
	// usefulness bit.
	seed := []featurepipe.Result{example(-1, 0, false), example(-1.2, 1, false)}
	good := example(1.2, 1, true)
	rewards, _ := runScript(t, Config{Reward: RewardQualityDelta, RewardScale: 2},
		append(seed, good))

	hold := fixedHoldout()
	replica := learner.NewGaussianNB(1, 2, 1e-3)
	for _, r := range seed {
		replica.PartialFit(r.Example)
	}
	before := hold.Quality(replica)
	replica.PartialFit(good.Example)
	after := hold.Quality(replica)
	if after <= before {
		t.Fatalf("fixture no longer improves the model (%v -> %v)", before, after)
	}
	want := clamp01((after - before) * 2)
	if got := rewards[len(seed)]; math.Abs(got-want) > 1e-12 {
		t.Fatalf("delta reward = %v, want %v", got, want)
	}
}

func TestRewardQualityDeltaNeverNegative(t *testing.T) {
	// Train to perfection first; a mislabeled example can then only hurt
	// quality, and the reward must clamp at 0.
	script := append(saturating(10), example(1, 0, false))
	rewards, _ := runScript(t, Config{Reward: RewardQualityDelta}, script)
	if got := rewards[len(script)-1]; got != 0 {
		t.Fatalf("harmful example earned reward %v", got)
	}
}

func TestRewardHybridAverages(t *testing.T) {
	// Saturated model: delta is 0, so hybrid = 0.5*useful.
	script := append(saturating(20), example(1, 1, true))
	rewards, _ := runScript(t, Config{Reward: RewardHybrid, RewardScale: 10}, script)
	if got := rewards[len(script)-1]; math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("hybrid reward on saturated model = %v, want 0.5", got)
	}
}

func TestSubsampleHoldout(t *testing.T) {
	exs := make([]learner.Example, 100)
	for i := range exs {
		exs[i] = learner.Example{Features: learner.DenseVec([]float64{float64(i)}), Class: i % 2}
	}
	h := learner.NewHoldout(exs, learner.MetricF1, 1)
	sub := subsampleHoldout(h, 20, rng.New(1))
	if len(sub.Examples) != 20 {
		t.Fatalf("subsample size = %d", len(sub.Examples))
	}
	if sub.Metric != learner.MetricF1 || sub.Positive != 1 {
		t.Fatal("subsample lost metric config")
	}
	seen := map[float64]bool{}
	for _, ex := range sub.Examples {
		v := ex.Features.At(0)
		if seen[v] {
			t.Fatalf("duplicate example %v in subsample", v)
		}
		seen[v] = true
	}
	// n >= len reuses the original.
	if got := subsampleHoldout(h, 100, rng.New(1)); got != h {
		t.Fatal("full-size subsample should reuse the holdout")
	}
	if got := subsampleHoldout(h, 500, rng.New(1)); got != h {
		t.Fatal("oversized subsample should reuse the holdout")
	}
}

func TestSafeExtractRecoversPanic(t *testing.T) {
	f := &featurepipe.FaultyFeature{
		Inner:    featurepipe.NewWikiFeature(1),
		PanicPct: 100,
	}
	in := &corpus.Input{ID: "x", Kind: corpus.TextKind, Text: "infobox born"}
	res, err, panicked := SafeExtract(f, in)
	if err == nil || !panicked {
		t.Fatal("panic should surface as error")
	}
	if res.Produced {
		t.Fatal("panicked extraction should produce nothing")
	}
}

func TestOracleUsefulDefinitions(t *testing.T) {
	wiki := featurepipe.NewWikiFeature(1)
	pos := &corpus.Input{Truth: corpus.Truth{Class: 1, Relevant: true}}
	neg := &corpus.Input{Truth: corpus.Truth{Class: 0}}
	if !oracleUseful(pos, wiki) || oracleUseful(neg, wiki) {
		t.Fatal("wiki oracle usefulness wrong")
	}
	songCfg := corpus.DefaultSongConfig()
	song := featurepipe.NewSongFeature(1, songCfg)
	rare := &corpus.Input{Truth: corpus.Truth{Class: songCfg.Genres - 1}}
	common := &corpus.Input{Truth: corpus.Truth{Class: 0}}
	if !oracleUseful(rare, song) || oracleUseful(common, song) {
		t.Fatal("song oracle usefulness wrong")
	}
}

func TestEvalIncrementalMode(t *testing.T) {
	task, groups := imageTask(t, 800, 900)
	inc := mustEngine(t, Config{Seed: 5, MaxInputs: 200, EvalIncremental: true})
	set := mustEngine(t, Config{Seed: 5, MaxInputs: 200})
	ri, err := inc.Run(task, groups)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := set.Run(task, groups)
	if err != nil {
		t.Fatal(err)
	}
	// Same selection trajectory (same seed), possibly different curves.
	if ri.InputsProcessed != rs.InputsProcessed || ri.Useful != rs.Useful {
		t.Fatalf("eval mode changed selection: %d/%d vs %d/%d",
			ri.InputsProcessed, ri.Useful, rs.InputsProcessed, rs.Useful)
	}
}

func TestEvalEpochsStabilizeSGD(t *testing.T) {
	// With an order-sensitive learner, set-based eval must still produce
	// a usable curve; more epochs should not break determinism.
	task, groups := imageTask(t, 800, 901)
	for _, epochs := range []int{1, 3} {
		e := mustEngine(t, Config{Seed: 7, MaxInputs: 150, EvalEpochs: epochs})
		a, err := e.Run(task, groups)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.Run(task, groups)
		if err != nil {
			t.Fatal(err)
		}
		if a.FinalQuality != b.FinalQuality {
			t.Fatalf("epochs=%d: eval not deterministic", epochs)
		}
	}
}
