package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zombie/internal/core"
	"zombie/internal/recipe"
	"zombie/internal/rng"
	"zombie/internal/server"
	"zombie/internal/workload"
)

const (
	serveCorpus = "wiki"
	// sessionPoll is the session-status poll interval. GET /sessions/{id}
	// has no stream, so session latency is quantized by it; it must stay
	// under 1/50 of the median session latency.
	sessionPoll = 2 * time.Millisecond
	// sessionVersions is how many recipe versions a session gets before
	// the client opens a fresh one.
	sessionVersions = 8
	policy          = "eps-greedy:0.1"
	sessionDecay    = 0.5 // the server's default warm-start decay
)

// stack is one coordinator and two dist workers, each a server.New
// handler on a loopback listener. The workers' handlers sit behind one
// distCounter.
type stack struct {
	coordURL  string
	servers   []*server.Server
	listeners []*httptest.Server
	dist      *distCounter
	client    *http.Client
	// decodeNanos is the time the benchmark's clients spent decoding
	// replies: harness CPU inside the process, taken out of the
	// program's CPU cost.
	decodeNanos atomic.Int64
}

// decode unmarshals one reply body, timing it into decodeNanos.
func (st *stack) decode(data []byte, v any) error {
	t0 := time.Now()
	err := json.Unmarshal(data, v)
	st.decodeNanos.Add(int64(time.Since(t0)))
	return err
}

// startStack brings the servers up and registers the corpus on all three,
// returning the mean POST /corpora time.
func (b *bench) startStack(ctx context.Context, corpusPath, stateDir string, parent spanRef) (*stack, time.Duration, error) {
	st := &stack{dist: &distCounter{}, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}}
	var urls []string
	for i := 0; i < 2; i++ {
		w, err := server.New(server.Config{})
		if err != nil {
			st.close()
			return nil, 0, err
		}
		st.servers = append(st.servers, w)
		ts := httptest.NewServer(st.dist.wrap(w.Handler()))
		st.listeners = append(st.listeners, ts)
		urls = append(urls, ts.URL)
	}
	coord, err := server.New(server.Config{StateDir: stateDir, DistWorkers: urls})
	if err != nil {
		st.close()
		return nil, 0, err
	}
	st.servers = append(st.servers, coord)
	ts := httptest.NewServer(coord.Handler())
	st.listeners = append(st.listeners, ts)
	st.coordURL = ts.URL

	var load time.Duration
	for _, u := range append([]string{st.coordURL}, urls...) {
		sp := parent.child("corpus.load")
		t0 := time.Now()
		err := st.do(ctx, http.MethodPost, u+"/corpora", map[string]any{"name": serveCorpus, "path": corpusPath}, http.StatusCreated, nil)
		load += time.Since(t0)
		sp.end()
		if err != nil {
			st.close()
			return nil, 0, err
		}
	}
	coord.Recover()
	return st, load / 3, nil
}

// close stops the listeners, then drains and closes the servers.
func (st *stack) close() {
	for i := len(st.listeners) - 1; i >= 0; i-- {
		st.listeners[i].Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range st.servers {
		s.Shutdown(ctx) //nolint:errcheck // teardown of a finished run
	}
	st.client.CloseIdleConnections()
}

// do sends one JSON request and decodes the reply into out (when non-nil),
// failing on any status other than want.
func (st *stack) do(ctx context.Context, method, url string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return st.decode(data, out)
}

// metrics fetches a server's flat /metrics map.
func (st *stack) metrics(ctx context.Context, base string) (map[string]int64, error) {
	var m map[string]int64
	err := st.do(ctx, http.MethodGet, base+"/metrics?format=json", nil, http.StatusOK, &m)
	return m, err
}

// metricsAll sums /metrics over the three servers.
func (st *stack) metricsAll(ctx context.Context) (map[string]int64, error) {
	total := map[string]int64{}
	for _, l := range st.listeners {
		m, err := st.metrics(ctx, l.URL)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			total[k] += v
		}
	}
	return total, nil
}

// runOp is one served run: POST /runs, then the curve's SSE stream until
// the terminal status frame.
type runOp struct {
	spec    server.RunSpec
	traced  bool
	latency time.Duration
	stolen  float64
	info    server.RunInfo
	curve   []servedPoint
	err     error
}

// submitRun times one run from POST /runs until the SSE stream of
// GET /runs/{id}/curve?follow=1 ends.
func (st *stack) submitRun(ctx context.Context, spec server.RunSpec, root spanRef) runOp {
	op := runOp{spec: spec, traced: root.t != nil}
	if spec.Shards > 0 && op.traced {
		st.dist.op.Store(&root)
		defer st.dist.op.Store(nil)
	}
	tk := readTicks()
	t0 := time.Now()
	sp := root.child("server.http")
	var accepted server.RunInfo
	err := st.do(ctx, http.MethodPost, st.coordURL+"/runs", spec, http.StatusAccepted, &accepted)
	sp.end()
	if err == nil {
		sp = root.child("server.http")
		if spec.Shards > 0 && op.traced {
			st.dist.op.Store(&sp)
		}
		op.curve, op.info, err = st.follow(ctx, accepted.ID)
		sp.end()
	}
	op.latency = time.Since(t0)
	op.stolen = stolenShare(tk, readTicks())
	op.err = err
	return op
}

// follow reads a run's curve stream: "point" frames, then one "status"
// frame with the terminal run info, then EOF.
func (st *stack) follow(ctx context.Context, id string) ([]servedPoint, server.RunInfo, error) {
	var info server.RunInfo
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.coordURL+"/runs/"+id+"/curve?follow=1", nil)
	if err != nil {
		return nil, info, err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return nil, info, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, info, fmt.Errorf("GET /runs/%s/curve: status %d", id, resp.StatusCode)
	}
	curve, status, err := readSSE(resp.Body, st.decode)
	if err != nil {
		return nil, info, fmt.Errorf("run %s stream: %w", id, err)
	}
	if status == nil {
		return nil, info, fmt.Errorf("run %s stream ended without a status frame", id)
	}
	err = st.decode(status, &info)
	return curve, info, err
}

// readSSE parses a curve stream into its points, each decoded by
// unmarshal, and the raw status frame.
func readSSE(r io.Reader, unmarshal func([]byte, any) error) ([]servedPoint, []byte, error) {
	var curve []servedPoint
	var status []byte
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := []byte(strings.TrimPrefix(line, "data: "))
			switch event {
			case "point":
				var p servedPoint
				if err := unmarshal(data, &p); err != nil {
					return nil, nil, err
				}
				curve = append(curve, p)
			case "status":
				status = data
			}
		}
	}
	return curve, status, sc.Err()
}

// sessionOp is one served session version: POST /sessions/{id}/runs, then
// polls of GET /sessions/{id} until the version is terminal.
type sessionOp struct {
	session, version int // 0-based session, 1-based version
	traced           bool
	latency          time.Duration
	stolen           float64
	state            server.RunState
	errMsg           string
	curve            []servedPoint
	wallMs           int64
	inputs           int
	sharedParts      int
	polls            int
	err              error
}

// submitVersion times one recipe version from submission until a poll
// sees it terminal.
func (st *stack) submitVersion(ctx context.Context, sid string, spec recipe.Spec, root spanRef) sessionOp {
	op := sessionOp{traced: root.t != nil}
	tk := readTicks()
	t0 := time.Now()
	sp := root.child("server.http")
	var ack struct {
		Version int `json:"version"`
	}
	err := st.do(ctx, http.MethodPost, st.coordURL+"/sessions/"+sid+"/runs", spec, http.StatusAccepted, &ack)
	sp.end()
	for err == nil {
		var info server.SessionInfo
		sp = root.child("server.http")
		err = st.do(ctx, http.MethodGet, st.coordURL+"/sessions/"+sid, nil, http.StatusOK, &info)
		sp.end()
		op.polls++
		if err != nil {
			break
		}
		if ack.Version < 1 || ack.Version > len(info.Versions) {
			err = fmt.Errorf("session %s has no version %d", sid, ack.Version)
			break
		}
		v := info.Versions[ack.Version-1]
		if v.State == server.StateDone || v.State == server.StateFailed || v.State == server.StateCancelled {
			op.latency = time.Since(t0)
			op.version, op.state, op.errMsg = ack.Version, v.State, v.Error
			op.wallMs, op.inputs, op.sharedParts = v.WallMillis, v.Inputs, v.SharedParts
			for _, p := range v.Curve {
				op.curve = append(op.curve, servedPoint{Inputs: p.Inputs, Quality: p.Quality, SimSeconds: p.SimSeconds})
			}
			break
		}
		time.Sleep(sessionPoll)
	}
	if op.latency == 0 {
		op.latency = time.Since(t0)
	}
	op.stolen = stolenShare(tk, readTicks())
	op.err = err
	return op
}

// versionOrder is the order in which serve-mixed's run client visits the
// 8 wiki feature versions, drawn from the workload seed. Every cycle
// covers each version once, so the work per cycle does not depend on the
// seed.
func versionOrder(seed int64) []int {
	order := []int{1, 2, 3, 4, 5, 6, 7, 8}
	rng.New(seed).Split("version-order").ShuffleInts(order)
	return order
}

// recipeVersion is the v-th (1-based) recipe of a session: fixed base and
// mid parts and a top part at feature version v, so each version changes
// one part. Sessions visit the versions in this one order, whatever the
// seed: a session's cost depends on it (each version warm-starts from the
// last), and with the order drawn from the seed, session latency medians
// ranged 148-242 ms over 20 seeds.
func recipeVersion(v int) recipe.Spec {
	return recipe.Spec{Name: "bench", Parts: []recipe.Part{
		{Name: "base", Kind: "wiki", Version: 2},
		{Name: "mid", Kind: "wiki", Version: 4, Deps: []string{"base"}},
		{Name: "top", Kind: "wiki", Version: v, Deps: []string{"mid"}},
	}}
}

// runSpec is the i-th run op of client A: the versions of order in turn,
// each run single-process at K=1 and then over HTTP dist at 2 shards with
// K=16. seed is the index and engine seed every op shares.
func runSpec(seed int64, order []int, i int) server.RunSpec {
	spec := server.RunSpec{
		Corpus: serveCorpus, Task: "wiki", Mode: "zombie", Policy: policy, K: indexK,
		Seed: seed, FeatureVersion: order[(i/2)%len(order)], EarlyStop: true,
	}
	if i%2 == 1 {
		spec.Shards, spec.Batch = 2, 16
	}
	return spec
}

// setupStack starts a stack on a fresh state directory and runs one
// untimed warm-up op, which builds the coordinator's index. No route times
// the build on its own, so its time is the warm-up run's wall beyond the
// run's engine phases.
func (b *bench) setupStack(ctx context.Context, corpusPath string, i int) (*stack, setupTimes, error) {
	var t setupTimes
	sp := b.tr.start("bench.setup", spanRef{})
	defer sp.end()
	tk := readTicks()
	t0 := time.Now()
	st, load, err := b.startStack(ctx, corpusPath, filepath.Join(b.dir, fmt.Sprintf("state-%d", i)), sp)
	if err != nil {
		return nil, t, err
	}
	cpu0 := cpuTime()
	warm := st.submitRun(ctx, runSpec(corpusSeed, versionOrder(b.opts.seed), 0), sp)
	warmCPU := cpuTime() - cpu0
	if warm.err == nil && warm.info.State != server.StateDone {
		warm.err = fmt.Errorf("ended %s: %s", warm.info.State, warm.info.Error)
	}
	if warm.err != nil {
		st.close()
		return nil, t, fmt.Errorf("warm-up run: %w", warm.err)
	}
	t.total, t.load, t.stolen = time.Since(t0), load, stolenShare(tk, readTicks())
	t.index = time.Duration(warm.info.WallMillis)*time.Millisecond - phaseSum(warm.info.PhaseMillis)
	t.cpuPerWall = ratio(warmCPU.Seconds(), warm.latency.Seconds())
	return st, t, nil
}

// runServeMixed drives the service with two closed-loop clients: A
// submits runs and follows their SSE curves, B submits recipe versions to
// sessions and polls them. Every op uses the corpus seed as its index and
// engine seed, so the coordinator builds one index, in set-up; the
// workload seed orders the run client's versions.
func runServeMixed(b *bench) error {
	ctx := context.Background()
	seed, order := corpusSeed, versionOrder(b.opts.seed)
	path, err := b.generate("wiki")
	if err != nil {
		return err
	}
	var st *stack
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	err = b.repeatSetup(func(i int) (setupTimes, error) {
		if st != nil {
			// The last set-up's servers go first, so that each set-up
			// starts from the same heap.
			st.close()
			st = nil
			runtime.GC()
		}
		var t setupTimes
		st, t, err = b.setupStack(ctx, path, i)
		return t, err
	})
	if err != nil {
		return err
	}
	b.rep.note("session_poll", "%s", sessionPoll)
	b.rep.note("version_order", "%v", order)

	m0, err := st.metricsAll(ctx)
	if err != nil {
		return err
	}
	dist0 := [3]int64{st.dist.rpcs.Load(), st.dist.bytes.Load(), st.dist.busyNanos.Load()}
	decode0 := st.decodeNanos.Load()
	before := takeSnap()
	var runs []runOp
	var versions []sessionOp
	var sessionErr error // client B stops at a session it cannot open
	t0 := time.Now()
	deadline := t0.Add(b.window())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			// Traced runs alternate with untraced ones by version pair,
			// flipping each cycle, so both see every version and transport.
			var root spanRef
			if b.tr != nil && (i/2+i/16)%2 == 0 {
				root = b.tr.start("bench.op", spanRef{})
			}
			op := st.submitRun(ctx, runSpec(seed, order, i), root)
			root.end()
			runs = append(runs, op)
		}
	}()
	go func() {
		defer wg.Done()
		for sess := 0; time.Now().Before(deadline); sess++ {
			var info server.SessionInfo
			err := st.do(ctx, http.MethodPost, st.coordURL+"/sessions", server.SessionSpec{
				Name: "bench", Corpus: serveCorpus, Task: "wiki", Policy: policy, K: indexK,
				Seed: seed, EarlyStop: true,
			}, http.StatusCreated, &info)
			if err != nil {
				sessionErr = err
				return
			}
			for v := 1; v <= sessionVersions && time.Now().Before(deadline); v++ {
				var root spanRef
				if b.tr != nil && (sess+v)%2 == 0 {
					root = b.tr.start("bench.op", spanRef{})
				}
				op := st.submitVersion(ctx, info.ID, recipeVersion(v), root)
				root.end()
				op.session = sess
				versions = append(versions, op)
			}
		}
	}()
	wg.Wait()
	window := time.Since(t0)
	after := takeSnap()
	decode := time.Duration(st.decodeNanos.Load() - decode0)
	m1, err := st.metricsAll(ctx)
	if err != nil {
		return err
	}
	dist1 := [3]int64{st.dist.rpcs.Load(), st.dist.bytes.Load(), st.dist.busyNanos.Load()}
	// The servers go before the reference checks load their own corpus
	// copy, so that peak memory is the window's, not the checks'.
	st.close()
	st = nil
	runtime.GC()
	if sessionErr != nil {
		b.rep.op(true)
		b.rep.failf("open session: %v", sessionErr)
	}

	b.serveMetrics(runs, versions, window, before, after, decode)
	b.distMetrics(runs, dist0, dist1)
	b.storeMetrics(m0, m1, len(runs)+len(versions))
	b.rep.set("fail_frac", ratio(float64(b.rep.failed), float64(b.rep.attempted)))
	return b.checkServed(path, seed, order, runs, versions)
}

// reconcileServed checks that the server-side parts of a served op, queue
// wait and run wall, fit inside the latency the client measured around it.
func reconcileServed(latency, wait, wall time.Duration) error {
	if wait < 0 || wall < 0 || wait+wall > latency {
		return fmt.Errorf("queue wait %s + run wall %s do not fit in the client's submit-to-terminal %s",
			wait, wall, latency)
	}
	return nil
}

// phaseSum adds a served run's phase times.
func phaseSum(phases map[string]float64) time.Duration {
	total := 0.0
	for _, v := range phases {
		total += v
	}
	return time.Duration(total * float64(time.Millisecond))
}

// parseTime reads a run-info timestamp.
func parseTime(s string) (time.Time, error) { return time.Parse(time.RFC3339Nano, s) }

// serveMetrics checks each op's outcome and reconciliation and reports
// the latency, throughput and server-side layer metrics.
func (b *bench) serveMetrics(runs []runOp, versions []sessionOp, window time.Duration, before, after procSnap, decode time.Duration) {
	var all, runLat, sessLat, queue, overhead, shared []float64
	var holdout, extract, eval, train, sel, read, rpc, wall, unattr []float64
	inputs, polls := 0, 0
	var acc time.Duration
	byKind := map[string][]opWall{}
	cover := map[string]*[2]time.Duration{} // run kind -> accounted, wall
	for i, op := range runs {
		failed := op.err != nil || op.info.State != server.StateDone || op.info.Quarantined > 0
		b.rep.op(failed)
		all = append(all, ms(op.latency))
		runLat = append(runLat, ms(op.latency))
		kind := fmt.Sprintf("run version %d shards %d", op.spec.FeatureVersion, op.spec.Shards)
		byKind[kind] = append(byKind[kind], opWall{ms(op.latency), op.stolen})
		if failed {
			b.rep.failf("run op %d (version %d, shards %d): err=%v state=%s quarantined=%d %s",
				i, op.spec.FeatureVersion, op.spec.Shards, op.err, op.info.State, op.info.Quarantined, op.info.Error)
			continue
		}
		created, err1 := parseTime(op.info.Created)
		started, err2 := parseTime(op.info.Started)
		finished, err3 := parseTime(op.info.Finished)
		if err1 != nil || err2 != nil || err3 != nil {
			b.rep.failf("run op %d: unreadable timestamps %q %q %q", i, op.info.Created, op.info.Started, op.info.Finished)
			continue
		}
		// The run's wall from its timestamps: wall_ms is truncated to whole
		// milliseconds, too coarse for the coverage of a short run.
		wait, runWall := started.Sub(created), finished.Sub(started)
		if err := reconcileServed(op.latency, wait, runWall); err != nil {
			b.rep.failf("run op %d: %v", i, err)
		}
		p := op.info.PhaseMillis
		queue = append(queue, ms(wait))
		overhead = append(overhead, ms(op.latency-wait-runWall))
		holdout = append(holdout, p["holdout"])
		extract = append(extract, p["extract"])
		eval = append(eval, p["eval"])
		train = append(train, p["train"])
		sel = append(sel, p["select"])
		read = append(read, p["read"])
		wall = append(wall, ms(runWall))
		unattr = append(unattr, ms(runWall-phaseSum(p)))
		acc += phaseSum(p)
		k := cover[kind]
		if k == nil {
			k = new([2]time.Duration)
			cover[kind] = k
		}
		k[0] += phaseSum(p)
		k[1] += runWall
		if op.spec.Shards > 0 {
			rpc = append(rpc, p["rpc"])
		}
		inputs += op.info.InputsProcessed
	}
	for i, op := range versions {
		failed := op.err != nil || op.state != server.StateDone
		b.rep.op(failed)
		all = append(all, ms(op.latency))
		sessLat = append(sessLat, ms(op.latency))
		polls += op.polls
		kind := fmt.Sprintf("session version %d", op.version)
		byKind[kind] = append(byKind[kind], opWall{ms(op.latency), op.stolen})
		if failed {
			b.rep.failf("session op %d (session %d, version %d): err=%v state=%s %s",
				i, op.session, op.version, op.err, op.state, op.errMsg)
			continue
		}
		if err := reconcileServed(op.latency, 0, time.Duration(op.wallMs)*time.Millisecond); err != nil {
			b.rep.failf("session op %d: %v", i, err)
		}
		shared = append(shared, float64(op.sharedParts))
		inputs += op.inputs
	}
	b.latencyMetrics("op", all)
	b.wallMetric(byKind)
	b.latencyMetrics("run", runLat)
	b.latencyMetrics("session", sessLat)
	if med := median(sessLat); med > 0 && float64(sessionPoll)/float64(time.Millisecond) > med/50 {
		b.rep.note("warning", "session poll %s is over 1/50 of the median session latency %.1f ms", sessionPoll, med)
	}
	b.rep.set("inputs_per_s", ratio(float64(inputs), window.Seconds()))
	b.rep.set("ops_per_s", ratio(float64(len(all)), window.Seconds()))
	b.rep.set("featurepipe.holdout_ms", mean(holdout))
	b.rep.set("featurepipe.extract_ms", mean(extract))
	b.rep.set("learner.eval_ms", mean(eval))
	b.rep.set("learner.train_ms", mean(train))
	b.rep.set("bandit.select_ms", mean(sel))
	b.rep.set("core.read_ms", mean(read))
	b.rep.set("core.run_ms", mean(wall))
	b.rep.set("core.phase_coverage", ratio(ms(acc), sum(wall)))
	b.checkCoverageByKind(cover, servedCoverageBounds)
	b.rep.set("core.unattributed_ms", mean(unattr))
	b.rep.set("dist.rpc_ms", mean(rpc))
	b.rep.set("server.queue_wait_ms", mean(queue))
	b.rep.set("server.overhead_ms", mean(overhead))
	b.rep.set("recipe.shared_parts", mean(shared))
	b.cpuMetrics(before, after, decode, inputs, len(all))
	b.rep.note("client_decode", "%d session polls; reply decoding took %.1f ms, %.2f%% of the window's process CPU, taken out of cpu_per_op_ms and inputs_per_cpu_s",
		polls, ms(decode), 100*ratio(decode.Seconds(), (after.cpu-before.cpu).Seconds()))
	b.rep.note("window", "%.3fs run_ops=%d session_ops=%d inputs=%d", window.Seconds(), len(runs), len(versions), inputs)
	b.rep.note("unattributed", "submit-to-terminal minus queue wait and run wall: %.3f ms/run op; run wall minus phases: %.3f ms/run op",
		mean(overhead), mean(unattr))

	if b.tr != nil {
		var tr, un [2][]float64
		for _, op := range runs {
			if op.traced {
				tr[0] = append(tr[0], ms(op.latency))
			} else {
				un[0] = append(un[0], ms(op.latency))
			}
		}
		for _, op := range versions {
			if op.traced {
				tr[1] = append(tr[1], ms(op.latency))
			} else {
				un[1] = append(un[1], ms(op.latency))
			}
		}
		b.rep.set("bench.trace_overhead", mean([]float64{traceOverhead(tr[0], un[0]), traceOverhead(tr[1], un[1])}))
	}
}

// distMetrics reports what the workers' counting middleware saw, per
// sharded op.
func (b *bench) distMetrics(runs []runOp, before, after [3]int64) {
	sharded, inputs := 0, 0
	for _, op := range runs {
		if op.spec.Shards > 0 {
			sharded++
			inputs += op.info.InputsProcessed
		}
	}
	b.rep.set("dist.rpcs_per_op", ratio(float64(after[0]-before[0]), float64(sharded)))
	b.rep.set("dist.bytes_per_input", ratio(float64(after[1]-before[1]), float64(inputs)))
	b.rep.set("dist.worker_busy_ms", ratio(float64(after[2]-before[2])/1e6, float64(sharded)))
}

// storeMetrics reports the extraction-cache and run-journal deltas the
// servers' /metrics show across the timed window.
func (b *bench) storeMetrics(m0, m1 map[string]int64, ops int) {
	delta := func(k string) float64 { return float64(m1[k] - m0[k]) }
	hits, misses := delta("feat_cache_hits"), delta("feat_cache_misses")
	b.rep.set("featcache.hit_ratio", ratio(hits, hits+misses))
	b.rep.set("featcache.evictions", delta("feat_cache_evictions"))
	// The journal gauges count since the last snapshot; after a snapshot
	// in the window only the post-snapshot part is visible.
	records, bytes := delta("journal_records"), delta("journal_bytes")
	if delta("snapshot_ms") > 0 || records < 0 || bytes < 0 {
		records, bytes = float64(m1["journal_records"]), float64(m1["journal_bytes"])
		b.rep.note("warning", "a journal snapshot fell in the window; runstore counts cover only its tail")
	}
	b.rep.set("runstore.records_per_op", ratio(records, float64(ops)))
	b.rep.set("runstore.bytes_per_op", ratio(bytes, float64(ops)))
	b.rep.set("runstore.snapshot_ms", delta("snapshot_ms"))
}

// checkServed re-runs, untimed and in-process, the spec of every served op
// and requires its curve to equal the served one point for point. Runs
// are compared against Engine.Run of the same (version, batch); session
// versions against a recipe.Session replaying the same recipes.
func (b *bench) checkServed(path string, seed int64, order []int, runs []runOp, versions []sessionOp) error {
	ctx := context.Background()
	s, err := setupOnce("wiki", path, nil)
	if err != nil {
		return err
	}
	store, task, groups := s.store, s.task, s.groups

	type key struct{ version, batch int }
	refs := map[key]*core.RunResult{}
	reference := func(spec server.RunSpec) (*core.RunResult, error) {
		k := key{spec.FeatureVersion, spec.Batch}
		if r, ok := refs[k]; ok {
			return r, nil
		}
		t, _, err := workload.Build("wiki", store, spec.FeatureVersion, rng.New(seed).Split("task"))
		if err != nil {
			return nil, err
		}
		eng, err := core.New(core.Config{Policy: policy, Seed: seed, BatchSize: spec.Batch,
			EarlyStop: core.EarlyStopConfig{Enabled: true}})
		if err != nil {
			return nil, err
		}
		r, err := eng.Run(t, groups)
		if err != nil {
			return nil, err
		}
		refs[k] = r
		return r, nil
	}
	first, err := reference(runSpec(seed, order, 0))
	if err != nil {
		return err
	}
	checked := 0
	for i, op := range runs {
		if op.err != nil || op.info.State != server.StateDone {
			continue
		}
		ref, err := reference(op.spec)
		if err != nil {
			return err
		}
		if err := sameCurve(op.curve, ref.Curve); err != nil {
			b.rep.failf("run op %d (version %d, shards %d) differs from in-process Engine.Run: %v",
				i, op.spec.FeatureVersion, op.spec.Shards, err)
		}
		checked++
	}

	ws, err := recipe.NewSession("bench", task, groups, recipe.Config{
		Engine: core.Config{Policy: policy, Seed: seed, EarlyStop: core.EarlyStopConfig{Enabled: true}},
		Decay:  sessionDecay,
	})
	if err != nil {
		return err
	}
	var sessionRefs []*recipe.Version
	for v := 1; v <= sessionVersions; v++ {
		spec := recipeVersion(v)
		rec, err := spec.Recipe()
		if err != nil {
			return err
		}
		ver, err := ws.Submit(ctx, rec)
		if err != nil {
			return err
		}
		sessionRefs = append(sessionRefs, ver)
	}
	for i, op := range versions {
		if op.err != nil || op.state != server.StateDone {
			continue
		}
		if err := sameCurve(op.curve, sessionRefs[op.version-1].Run.Curve); err != nil {
			b.rep.failf("session op %d (session %d, version %d) differs from the in-process recipe session: %v",
				i, op.session, op.version, err)
		}
		checked++
	}
	b.rep.note("reference_checks", "%d served ops matched against %d in-process runs and a %d-version session",
		checked, len(refs), sessionVersions)
	s1 := sessionRefs[0].Run
	b.golden.check(b.rep, "serve-mixed", []string{digest(first.Curve, first.Arms), digest(s1.Curve, s1.Arms)})
	b.rep.set("learner.evals", float64(len(first.Curve)+len(s1.Curve)))
	if b.tr != nil {
		return b.kernelProbes(task)
	}
	return nil
}
