package dist

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"zombie/internal/core"
	"zombie/internal/fault"
	"zombie/internal/obs"
)

// deadWorkerSeed scans fault seeds for one where, under the given spec,
// worker w1 fails every step call and w0 none — fault decisions are pure
// hashes of (seed, site, id), so the scan is deterministic and cheap.
func deadWorkerSeed(t *testing.T, spec string) int64 {
	t.Helper()
	for seed := int64(1); seed < 4000; seed++ {
		inj, err := fault.Parse(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		_, _, w0 := inj.Check(fault.SiteDistStep, "w0")
		kind, _, w1 := inj.Check(fault.SiteDistStep, "w1")
		if !w0 && w1 && kind == fault.KindError {
			return seed
		}
	}
	t.Fatal("no fault seed kills exactly w1 under " + spec)
	return 0
}

// TestDeadWorkerTripsFailureBudget kills one of two workers mid-run (an
// error rule at dist.step makes every step call routed to w1 fail,
// surviving the coordinator's retries) and asserts the run degrades
// exactly like a single-process run over a half-broken corpus: StopFailed
// once the failure budget trips, with the partial merged curve intact —
// and that the local and http transports fail byte-identically. The gate
// fires once per call, so retry-then-quarantine holds at every K.
func TestDeadWorkerTripsFailureBudget(t *testing.T) {
	const spec = "dist.step:err=0.5"
	const seed, maxInputs, shards = 11, 80, 2
	fseed := deadWorkerSeed(t, spec)
	store, task, groups := testSetup(t, 160, seed)
	for _, batch := range []int{1, 8} {
		eng, err := core.New(core.Config{Seed: seed, MaxInputs: maxInputs, MaxFailureFrac: 0.25, BatchSize: batch})
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		dspec := Spec{
			RunID: "t-chaos", Task: "wiki", Seed: seed, Shards: shards,
			FaultSpec: spec, FaultSeed: fseed,
			Attempts: 2, Backoff: time.Millisecond,
			Obs: reg,
		}

		local := NewLocalTransport(store, shards, nil, nil)
		lres, err := Run(context.Background(), eng, local, dspec, task, groups)
		local.Close()
		if err != nil {
			t.Fatalf("K=%d: local faulted run should degrade, not error: %v", batch, err)
		}
		if lres.Stop != core.StopFailed {
			t.Fatalf("K=%d: Stop = %v, want StopFailed with a dead worker and budget 0.25", batch, lres.Stop)
		}
		if len(lres.Curve) == 0 {
			t.Fatalf("K=%d: StopFailed run lost its partial curve", batch)
		}
		if lres.InputsProcessed >= maxInputs {
			t.Fatalf("K=%d: processed all %d inputs; budget never tripped", batch, maxInputs)
		}
		if len(lres.Quarantined) == 0 {
			t.Fatalf("K=%d: dead worker produced no quarantine entries", batch)
		}
		for _, q := range lres.Quarantined {
			if q.Site != string(fault.SiteDistStep) {
				t.Fatalf("K=%d: quarantine site %q, want %q", batch, q.Site, fault.SiteDistStep)
			}
			if !strings.Contains(q.Reason, "injected error at dist.step on w1") {
				t.Fatalf("K=%d: quarantine reason %q does not name the dead worker", batch, q.Reason)
			}
		}
		// The coordinator retried the dead worker before quarantining: every
		// failed call burned Attempts calls on shard 1 and none on shard 0.
		if lres.Workers[1].FailedCalls == 0 || lres.Workers[1].RetriedCalls == 0 {
			t.Fatalf("K=%d: worker 1 stats %+v record no failures", batch, lres.Workers[1])
		}
		if lres.Workers[0].FailedCalls != 0 {
			t.Fatalf("K=%d: healthy worker 0 stats %+v record failures", batch, lres.Workers[0])
		}
		// The error counters carry both dimensions in the Prometheus
		// exposition: the dead worker's step failures appear as one
		// {method,worker} series, and the healthy worker exports none.
		var prom strings.Builder
		if err := reg.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(prom.String(), `dist_rpc_errors{method="step-batch",worker="1"}`) {
			t.Fatalf("K=%d: exposition missing labeled error counter:\n%s", batch, prom.String())
		}
		if strings.Contains(prom.String(), `worker="0"`) {
			t.Fatalf("K=%d: healthy worker exported an error series:\n%s", batch, prom.String())
		}
		if got := reg.FlatSnapshot()["dist_rpc_errors_step-batch_1"]; got == 0 {
			t.Fatalf("K=%d: flat exposition missing folded dist_rpc_errors_step-batch_1 key", batch)
		}

		httpT := newHTTPTestTransport(t, store, shards)
		hres, err := Run(context.Background(), eng, httpT, dspec, task, groups)
		httpT.Close()
		if err != nil {
			t.Fatalf("K=%d: http faulted run should degrade, not error: %v", batch, err)
		}
		// Same curve, same quarantine list, same stop — the whole RunResult,
		// failure messages included, must not depend on the transport.
		assertSameRun(t, fmt.Sprintf("K=%d http-vs-local chaos", batch), lres.RunResult, hres.RunResult)
	}
}

// TestLatencyInjectionPreservesBytes stalls every step on both workers
// without failing any: the run must complete with a result byte-identical
// to the unfaulted one — injected latency shifts wall time, never bytes.
func TestLatencyInjectionPreservesBytes(t *testing.T) {
	const seed, maxInputs, shards = 11, 30, 2
	store, task, groups := testSetup(t, 120, seed)
	eng := testEngine(t, seed, maxInputs)
	ref, err := eng.RunContext(context.Background(), task, groups)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewLocalTransport(store, shards, nil, nil)
	defer tr.Close()
	res, err := Run(context.Background(), eng, tr, Spec{
		RunID: "t-lat", Task: "wiki", Seed: seed, Shards: shards,
		FaultSpec: "dist.step:lat=2ms,latp=1", FaultSeed: 5,
	}, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != ref.Stop {
		t.Fatalf("latency changed stop reason: %v vs %v", res.Stop, ref.Stop)
	}
	assertSameRun(t, "latency-injected", ref, res.RunResult)
}
