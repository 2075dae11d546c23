package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"zombie/internal/bandit"
	"zombie/internal/core"
)

func TestTailLevelNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 0, ok: false},
		{n: 19, ok: false}, // the median has 9 beyond
		{n: 20, want: 0.5, ok: true},
		{n: 40, want: 0.75, ok: true},
		{n: 99, want: 0.75, ok: true}, // p90 has 9 beyond
		{n: 100, want: 0.9, ok: true},
		{n: 199, want: 0.9, ok: true},
		{n: 200, want: 0.95, ok: true},
		{n: 1000, want: 0.99, ok: true},
	}
	for _, c := range cases {
		got, ok := tailLevel(c.n)
		if ok != c.ok || got != c.want {
			t.Errorf("tailLevel(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < minBeyond {
			t.Errorf("n=%d: p%v has only %d samples beyond", c.n, got*100, beyond(c.n, got))
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := quantile(xs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := quantile(xs, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := beyond(100, 0.9); got != 10 {
		t.Errorf("beyond(100, p90) = %d, want 10", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestDigestCoversCurveAndArms(t *testing.T) {
	curve := []core.CurvePoint{{Inputs: 0}, {Inputs: 25, Quality: 0.5, SimTime: time.Second}}
	arms := []bandit.ArmSnapshot{{Arm: 0, Pulls: 3, Mean: 0.25}}
	base := digest(curve, arms)
	if base != digest(append([]core.CurvePoint(nil), curve...), arms) {
		t.Fatal("digest is not a function of its input")
	}
	q := append([]core.CurvePoint(nil), curve...)
	q[1].Quality = 0.5000000000000001 // one ulp
	if digest(q, arms) == base {
		t.Error("a one-ulp quality change kept the digest")
	}
	a := append([]bandit.ArmSnapshot(nil), arms...)
	a[0].Pulls++
	if digest(curve, a) == base {
		t.Error("an arm change kept the digest")
	}
	if digest(curve[:1], arms) == base {
		t.Error("a dropped curve point kept the digest")
	}
}

func TestSameCurve(t *testing.T) {
	ref := []core.CurvePoint{{Inputs: 0}, {Inputs: 25, Quality: 0.75, SimTime: 1500 * time.Millisecond}}
	served := []servedPoint{{Inputs: 0}, {Inputs: 25, Quality: 0.75, SimSeconds: 1.5}}
	if err := sameCurve(served, ref); err != nil {
		t.Fatalf("identical curves: %v", err)
	}
	served[1].Quality = 0.7500001
	if sameCurve(served, ref) == nil {
		t.Error("a quality difference passed")
	}
	if sameCurve(served[:1], ref) == nil {
		t.Error("a missing point passed")
	}
}

func TestGoldensCheck(t *testing.T) {
	g := &goldens{applies: true, file: goldenFile{Digests: map[string][]string{"w": {"a", "b"}}}}
	rep := newReport()
	g.check(rep, "w", []string{"a", "b"})
	if len(rep.failures) != 0 {
		t.Fatalf("matching digests failed: %v", rep.failures)
	}
	g.check(rep, "w", []string{"a", "c"})
	g.check(rep, "missing", []string{"a"})
	if len(rep.failures) != 2 {
		t.Errorf("want a mismatch and a missing entry, got %v", rep.failures)
	}
	rep = newReport()
	(&goldens{applies: false}).check(rep, "w", []string{"x"})
	if len(rep.failures) != 0 {
		t.Errorf("a run at another seed was checked: %v", rep.failures)
	}
}

func TestReconciliation(t *testing.T) {
	if _, ok := checkCoverage(95*time.Millisecond, 100*time.Millisecond, phaseCoverageBounds); !ok {
		t.Error("coverage 0.95 failed")
	}
	for _, acc := range []time.Duration{89 * time.Millisecond, 111 * time.Millisecond} {
		if c, ok := checkCoverage(acc, 100*time.Millisecond, phaseCoverageBounds); ok {
			t.Errorf("coverage %.2f passed", c)
		}
	}
	if _, ok := checkCoverage(time.Millisecond, 0, phaseCoverageBounds); ok {
		t.Error("a zero wall passed")
	}
	if err := reconcileServed(100*time.Millisecond, 10*time.Millisecond, 85*time.Millisecond); err != nil {
		t.Errorf("fitting op failed: %v", err)
	}
	if reconcileServed(100*time.Millisecond, 20*time.Millisecond, 85*time.Millisecond) == nil {
		t.Error("queue wait + wall beyond the client latency passed")
	}
	if reconcileServed(100*time.Millisecond, -time.Millisecond, 50*time.Millisecond) == nil {
		t.Error("a negative queue wait passed")
	}
}

func TestCoverageCheckedPerKind(t *testing.T) {
	b := &bench{rep: newReport()}
	b.checkCoverageByKind(map[string]*[2]time.Duration{
		"version 1": {95 * time.Millisecond, 100 * time.Millisecond},
		"version 2": {170 * time.Millisecond, 200 * time.Millisecond},
	}, phaseCoverageBounds)
	if len(b.rep.failures) != 1 || !strings.HasPrefix(b.rep.failures[0], "version 2:") {
		t.Errorf("failures %q, want one for version 2 (coverage 0.85)", b.rep.failures)
	}
	b = &bench{rep: newReport()}
	b.checkCoverageByKind(map[string]*[2]time.Duration{
		"run version 1 shards 0": {160 * time.Millisecond, 200 * time.Millisecond},
		"run version 1 shards 2": {230 * time.Millisecond, 200 * time.Millisecond},
	}, servedCoverageBounds)
	if len(b.rep.failures) != 1 || !strings.HasPrefix(b.rep.failures[0], "run version 1 shards 2:") {
		t.Errorf("served failures %q, want one for the sharded kind (coverage 1.15)", b.rep.failures)
	}
}

func TestWallIsMeanOfMedianPerKindLessSteal(t *testing.T) {
	b := &bench{rep: newReport()}
	b.wallMetric(map[string][]opWall{
		"a": {{5, 0}, {3, 0}, {40, 0.5}}, // 5, 3, 20: median 5
		"b": {{10, 0}, {8, 0.25}},        // 10, 6: median 8
	})
	if got := b.rep.metrics["op_wall_ms"]; got != 6.5 {
		t.Errorf("op_wall_ms %v, want the mean of 5 and 8", got)
	}
}

func TestStolenShare(t *testing.T) {
	if got := stolenShare(ticks{busy: 100, steal: 10}, ticks{busy: 300, steal: 60}); got != 0.25 {
		t.Errorf("stolen share %v, want 50 of 200 busy ticks", got)
	}
	if got := stolenShare(ticks{}, ticks{}); got != 0 {
		t.Errorf("stolen share with no busy ticks %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "bench.op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "server.http", Start: 10, End: 60},
		{ID: 3, Parent: 1, Op: 1, Name: "server.http", Start: 50, End: 90},  // overlaps 2
		{ID: 4, Parent: 3, Op: 1, Name: "dist.worker", Start: 55, End: 120}, // runs past its parent
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"bench": 20, "server": 50 + 5, "dist": 65}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("self[%s] = %d, want %d", l, got[l], w)
		}
	}
}

func TestTracerRecordsTree(t *testing.T) {
	var off *tracer
	if sp := off.start("bench.op", spanRef{}); sp.t != nil {
		t.Fatal("a nil tracer opened a span")
	}
	tr := newTracer()
	root := tr.start("bench.op", spanRef{})
	kid := root.child("core.run")
	kid.end()
	root.end()
	other := tr.start("bench.op", spanRef{})
	other.end()
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	byID := map[uint64]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	if k := byID[kid.id]; k.Parent != root.id || k.Op != root.id {
		t.Errorf("child span %+v: want parent and op %d", k, root.id)
	}
	if o := byID[other.id]; o.Parent != 0 || o.Op != other.id {
		t.Errorf("second root %+v: want its own op", o)
	}
}

func TestDistCounterCountsWorkerTraffic(t *testing.T) {
	c := &distCounter{}
	h := c.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(io.LimitReader(r.Body, 4)) // leaves the rest unread
		time.Sleep(2 * time.Millisecond)
		w.Write(append(body, "-reply"...)) //nolint:errcheck
	}))
	tr := newTracer()
	op := tr.start("bench.op", spanRef{})
	c.op.Store(&op)
	srv := httptest.NewServer(h)
	defer srv.Close()
	post := func(path, body string) {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
	post("/dist/step", "0123456789") // 10 in, 4+6 out
	post("/dist/init", "ab")         // 2 in, 2+6 out
	post("/runs", "ignored")         // not a dist route
	if got := c.rpcs.Load(); got != 2 {
		t.Errorf("rpcs = %d, want 2", got)
	}
	if got := c.bytes.Load(); got != 10+10+2+8 {
		t.Errorf("bytes = %d, want 30", got)
	}
	if got := time.Duration(c.busyNanos.Load()); got < 4*time.Millisecond {
		t.Errorf("busy %s, want at least the handlers' 4ms", got)
	}
	workers := 0
	for _, s := range tr.snapshot() {
		if s.Name == "dist.worker" {
			workers++
			if s.Parent != op.id {
				t.Errorf("worker span parent %d, want the op's %d", s.Parent, op.id)
			}
		}
	}
	if workers != 2 {
		t.Errorf("%d worker spans, want 2", workers)
	}
}

func TestReadSSE(t *testing.T) {
	stream := "event: point\ndata: {\"inputs\":0,\"quality\":0,\"sim_seconds\":0}\n\n" +
		"event: trace\ndata: {\"step\":1}\n\n" +
		"event: point\ndata: {\"inputs\":25,\"quality\":0.5,\"sim_seconds\":3.75}\n\n" +
		"event: status\ndata: {\"id\":\"r1\",\"state\":\"done\"}\n\n"
	curve, status, err := readSSE(strings.NewReader(stream), json.Unmarshal)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 2 || curve[1] != (servedPoint{Inputs: 25, Quality: 0.5, SimSeconds: 3.75}) {
		t.Errorf("curve %+v", curve)
	}
	if string(status) != `{"id":"r1","state":"done"}` {
		t.Errorf("status %q", status)
	}
}

func TestRunSpecsAlternateTransport(t *testing.T) {
	order := versionOrder(7)
	seen := map[[2]int]bool{}
	for i := 0; i < 16; i++ {
		s := runSpec(7, order, i)
		if s.Seed != 7 || s.K != indexK || !s.EarlyStop {
			t.Fatalf("op %d spec %+v", i, s)
		}
		if (s.Shards == 2) != (i%2 == 1) || (s.Shards == 2) != (s.Batch == 16) {
			t.Errorf("op %d: shards %d batch %d", i, s.Shards, s.Batch)
		}
		seen[[2]int{s.FeatureVersion, s.Shards}] = true
	}
	if len(seen) != 16 {
		t.Errorf("16 ops covered %d (version, transport) pairs, want all 16", len(seen))
	}
	for v := 2; v <= sessionVersions; v++ {
		a, b := recipeVersion(v-1), recipeVersion(v)
		changed := 0
		for i := range a.Parts {
			if a.Parts[i].Version != b.Parts[i].Version {
				changed++
			}
		}
		if changed != 1 {
			t.Errorf("version %d changes %d parts, want 1", v, changed)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metric names and units the
// program reports in step with BENCHMARK.json.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, want []metricDef, got []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
}
