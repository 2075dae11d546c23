package dist

import (
	"context"
	"fmt"
	"testing"

	"zombie/internal/core"
)

func testBatchEngine(t *testing.T, seed int64, maxInputs, batch int) *core.Engine {
	t.Helper()
	eng, err := core.New(core.Config{Seed: seed, MaxInputs: maxInputs, BatchSize: batch})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestBatchedShardIdentity extends the headline shard invariant over K: a
// batched run — where the coordinator groups each engine batch into one
// StepBatch RPC per owning shard, K=1 being a batch of one — must be
// byte-identical to the single-process run at any shard count.
func TestBatchedShardIdentity(t *testing.T) {
	const seed, maxInputs = 20160516, 96
	store, task, groups := testSetup(t, 160, seed)
	for _, batch := range []int{1, 8} {
		eng := testBatchEngine(t, seed, maxInputs, batch)
		ref, err := eng.RunContext(context.Background(), task, groups)
		if err != nil {
			t.Fatal(err)
		}
		if ref.InputsProcessed != maxInputs {
			t.Fatalf("K=%d: reference run too small to be meaningful: %+v", batch, ref)
		}
		for _, shards := range []int{1, 2, 4} {
			tr := NewLocalTransport(store, shards, nil, nil)
			res, err := Run(context.Background(), eng, tr,
				Spec{RunID: "t-batch", Task: "wiki", Seed: seed, Shards: shards}, task, groups)
			tr.Close()
			if err != nil {
				t.Fatalf("K=%d shards=%d: %v", batch, shards, err)
			}
			assertSameRun(t, fmt.Sprintf("K=%d shards=%d", batch, shards), ref, res.RunResult)
			steps := 0
			for _, ws := range res.Workers {
				steps += ws.Steps
			}
			if steps != maxInputs {
				t.Fatalf("K=%d shards=%d: workers report %d steps, want %d", batch, shards, steps, maxInputs)
			}
		}
	}
}

// TestBatchedHTTPTransportIdentity pins the transport half at every K:
// the StepBatch RPC over JSON/HTTP (with per-item codec round trips) must
// reproduce the in-process local transport and the single-process run
// byte-for-byte, for batches of one as for K=8.
func TestBatchedHTTPTransportIdentity(t *testing.T) {
	const seed, maxInputs, shards = 20160516, 72, 2
	store, task, groups := testSetup(t, 140, seed)
	for _, batch := range []int{1, 8} {
		eng := testBatchEngine(t, seed, maxInputs, batch)
		ref, err := eng.RunContext(context.Background(), task, groups)
		if err != nil {
			t.Fatal(err)
		}

		local := NewLocalTransport(store, shards, nil, nil)
		lres, err := Run(context.Background(), eng, local,
			Spec{RunID: "t-bl", Task: "wiki", Seed: seed, Shards: shards}, task, groups)
		local.Close()
		if err != nil {
			t.Fatal(err)
		}
		httpT := newHTTPTestTransport(t, store, shards)
		hres, err := Run(context.Background(), eng, httpT,
			Spec{RunID: "t-bh", Task: "wiki", Seed: seed, Shards: shards}, task, groups)
		httpT.Close()
		if err != nil {
			t.Fatal(err)
		}
		assertSameRun(t, fmt.Sprintf("K=%d local", batch), ref, lres.RunResult)
		assertSameRun(t, fmt.Sprintf("K=%d http", batch), ref, hres.RunResult)
	}
}
