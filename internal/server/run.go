package server

import (
	"context"
	"sync"
	"time"

	"zombie/internal/core"
	"zombie/internal/dist"
	"zombie/internal/otrace"
	"zombie/internal/trace"
)

// RunState is a run's lifecycle position. Transitions are strictly
// forward: queued → running → {done, failed, cancelled}, with the shortcut
// queued → cancelled for runs cancelled before a worker picked them up.
type RunState string

const (
	StateQueued    RunState = "queued"
	StateRunning   RunState = "running"
	StateDone      RunState = "done"
	StateFailed    RunState = "failed"
	StateCancelled RunState = "cancelled"
)

// terminal reports whether no further transition is possible.
func (s RunState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// RunSpec is a run submission. JSON field names are the HTTP API.
type RunSpec struct {
	// Corpus names a registered corpus; Task picks the workload
	// ("wiki", "songs", "image").
	Corpus string `json:"corpus"`
	Task   string `json:"task"`
	// Mode is zombie (default), scan-random, scan-sequential, or oracle.
	Mode string `json:"mode,omitempty"`
	// Policy is the bandit policy spec (zombie mode; default
	// "eps-greedy:0.1"). K is the number of index groups (default 32).
	Policy string `json:"policy,omitempty"`
	K      int    `json:"k,omitempty"`
	// Seed defaults to 1; FeatureVersion 0 means the task default.
	Seed           int64 `json:"seed,omitempty"`
	FeatureVersion int   `json:"feature_version,omitempty"`
	// Engine knobs, mirroring core.Config.
	MaxInputs int  `json:"max_inputs,omitempty"`
	EvalEvery int  `json:"eval_every,omitempty"`
	EarlyStop bool `json:"early_stop,omitempty"`
	// Batch is core.Config.BatchSize: inputs popped per arm pull. 0
	// inherits the server default (zombie-serve -batch, normally 1); 1 is
	// the classic per-step loop with byte-identical output; K>1 amortizes
	// selection, evaluation, and — for distributed runs — per-input RPCs
	// into one StepBatch call per owning shard. See DESIGN.md §13.
	Batch int `json:"batch,omitempty"`
	// Trace records the step-level event log, served at
	// GET /runs/{id}/events as CSV once the run is terminal, and feeds the
	// run's bounded trace ring, served live at GET /runs/{id}/trace and as
	// "trace" frames on the curve SSE stream.
	Trace bool `json:"trace,omitempty"`
	// Spans enables the run's span tracer: one bounded buffer of timing
	// spans (engine phases, dist RPCs, worker-side child spans stitched
	// across processes) served as a tree at GET /runs/{id}/spans and folded
	// into the run info's cost summary. Like Trace, it is observational:
	// curves, arms, and quarantine lists are byte-identical with spans on
	// or off.
	Spans bool `json:"spans,omitempty"`
	// TimeoutMillis is this run's wall-clock deadline; 0 inherits the
	// server's default (Config.RunTimeout). A run over its deadline ends as
	// cancelled-with-partials, marked timed_out in its info.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// MaxFailures overrides core.Config.MaxFailureFrac (0 inherits the
	// server default): the fraction of processed inputs that may be
	// quarantined before the run degrades to its partial results.
	MaxFailures float64 `json:"max_failures,omitempty"`
	// Faults is a fault-injection spec (fault.Parse syntax) evaluated with
	// FaultSeed. Empty inherits the server's injector (normally none);
	// chaos tests submit runs with their own spec.
	Faults    string `json:"faults,omitempty"`
	FaultSeed int64  `json:"fault_seed,omitempty"`
	// Shards > 0 executes the run distributed over that many corpus shards
	// (zombie mode only). The curve is byte-identical to the single-process
	// run for the same seed — shards only change where steps execute.
	// Without worker addresses the shards run on in-process workers.
	Shards int `json:"shards,omitempty"`
	// DistWorkers lists worker base URLs (zombie-serve processes serving
	// /dist/*) to execute the shards over HTTP; its length must match
	// shards when both are set. Empty inherits the server's -dist-workers
	// default, if any.
	DistWorkers []string `json:"dist_workers,omitempty"`
}

// distributed reports whether the spec asks for the sharded execution
// path (which requires mode zombie; Submit enforces that).
func (s *RunSpec) distributed() bool {
	return s.Shards > 0 || len(s.DistWorkers) > 0
}

// traceRingCap bounds each traced run's event ring. Long runs drop their
// oldest events (the ring reports how many); the full log is still served
// as CSV from the result once the run finishes.
const traceRingCap = 4096

// streamMsg is one frame of a run's live stream: exactly one of a curve
// point or a trace event. Trace frames carry the ring's drop count as of
// the append, so a stream follower learns the ring wrapped without
// polling the snapshot endpoint.
type streamMsg struct {
	point   *core.CurvePoint
	event   *trace.Event
	dropped int64
}

// Run is one managed run: the spec, its lifecycle state, the live learning
// curve, the trace ring (traced runs), and the subscriber fan-out feeding
// SSE streams. All mutable fields are guarded by mu; done is closed
// exactly once, on reaching a terminal state.
type Run struct {
	ID string

	mu       sync.Mutex
	spec     RunSpec
	state    RunState
	created  time.Time
	started  time.Time
	finished time.Time
	curve    []core.CurvePoint
	subs     map[int]chan streamMsg
	nextSub  int
	result   *core.RunResult
	errMsg   string
	cancel   context.CancelFunc
	timedOut bool
	// summary carries a restored terminal run's persisted digest; Info
	// falls back to it when result is nil because the engine result
	// belonged to a previous process. recovered counts how many times
	// recovery re-queued this run after a crash.
	summary   *runSummary
	recovered int
	// distTransport / distWorkers record the distribution summary for
	// sharded runs, set by the manager before the run finishes.
	distTransport string
	distWorkers   []dist.WorkerStats

	// ring holds the run's recent step events (nil unless spec.Trace). The
	// engine goroutine appends while HTTP handlers snapshot concurrently;
	// the ring has its own lock, so appends never contend with r.mu.
	ring *trace.Ring

	// tracer holds the run's span buffer (nil unless spec.Spans), seeded
	// with the run ID so the trace ID is stable across re-executions. Like
	// the ring it has its own lock; spans are not journaled, so a restored
	// terminal run reports none until re-executed.
	tracer *otrace.Tracer

	done chan struct{}
}

func newRun(id string, spec RunSpec, now time.Time) *Run {
	r := &Run{
		ID:      id,
		spec:    spec,
		state:   StateQueued,
		created: now,
		subs:    map[int]chan streamMsg{},
		done:    make(chan struct{}),
	}
	if spec.Trace {
		r.ring = trace.NewRing(traceRingCap)
	}
	if spec.Spans {
		r.tracer = otrace.New(id, otrace.DefaultCapacity)
	}
	return r
}

// restoreRun rebuilds a Run from its persisted record. Terminal runs
// come back with their history — curve, summary, error, timings — and a
// closed Done channel; interrupted (queued/running) runs come back as
// the crash left them, for the manager to re-queue via prepareRequeue.
func restoreRun(pr *persistRun) *Run {
	r := &Run{
		ID:        pr.ID,
		spec:      pr.Spec,
		state:     pr.State,
		created:   time.Unix(0, pr.Created),
		subs:      map[int]chan streamMsg{},
		done:      make(chan struct{}),
		errMsg:    pr.Err,
		summary:   pr.Summary,
		timedOut:  pr.TimedOut,
		recovered: pr.Recovered,
	}
	if pr.Started != 0 {
		r.started = time.Unix(0, pr.Started)
	}
	if pr.Finished != 0 {
		r.finished = time.Unix(0, pr.Finished)
	}
	r.curve = append(r.curve, pr.Curve...)
	if pr.Spec.Trace {
		// The ring starts empty: step events are not journaled (far too
		// dense); a re-executed run refills it, a restored terminal run
		// reports zero retained events.
		r.ring = trace.NewRing(traceRingCap)
	}
	if pr.Spec.Spans {
		// Same policy as the ring: spans are not journaled, a re-executed
		// run refills the buffer.
		r.tracer = otrace.New(pr.ID, otrace.DefaultCapacity)
	}
	if r.state.terminal() {
		close(r.done)
	}
	return r
}

// prepareRequeue resets an interrupted restored run to queued for
// deterministic re-execution. The stale partial curve is dropped: the
// engine re-emits the complete curve from scratch, byte-identical to an
// uninterrupted run of the same spec.
func (r *Run) prepareRequeue() {
	r.mu.Lock()
	r.state = StateQueued
	r.started = time.Time{}
	r.curve = nil
	r.errMsg = ""
	r.recovered++
	r.mu.Unlock()
}

// RunInfo is the externally visible run snapshot.
type RunInfo struct {
	ID       string   `json:"id"`
	Spec     RunSpec  `json:"spec"`
	State    RunState `json:"state"`
	Error    string   `json:"error,omitempty"`
	Created  string   `json:"created"`
	Started  string   `json:"started,omitempty"`
	Finished string   `json:"finished,omitempty"`
	// CurvePoints is the number of curve samples so far; the curve itself
	// is served by /runs/{id}/curve.
	CurvePoints int `json:"curve_points"`
	// WallMillis is the run's execution wall time in milliseconds, present
	// once the run has both started and reached a terminal state.
	WallMillis int64 `json:"wall_ms,omitempty"`
	// Summary fields, present once the run is terminal with a result.
	InputsProcessed int     `json:"inputs_processed,omitempty"`
	FinalQuality    float64 `json:"final_quality,omitempty"`
	Stop            string  `json:"stop,omitempty"`
	Strategy        string  `json:"strategy,omitempty"`
	// CacheHits / CacheMisses are the run's extraction-cache traffic.
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
	// Quarantined counts inputs the run removed after absorbed failures;
	// the full records are in the result's quarantine list.
	Quarantined int `json:"quarantined,omitempty"`
	// PhaseMillis breaks the run's wall time down by inner-loop phase
	// (milliseconds), present once the run is terminal with a result.
	PhaseMillis map[string]float64 `json:"phase_ms,omitempty"`
	// TraceEvents is the number of step events currently retained in the
	// run's trace ring (traced runs only; the ring is bounded, so long runs
	// report the cap).
	TraceEvents int `json:"trace_events,omitempty"`
	// Spans / SpansDropped report the span tracer's buffer (runs submitted
	// with "spans": true only); Cost is the per-run cost attribution built
	// from those spans — wall and CPU seconds by phase × shard × recipe
	// part — present once the run is terminal.
	Spans        int                 `json:"spans,omitempty"`
	SpansDropped int64               `json:"spans_dropped,omitempty"`
	Cost         *otrace.CostSummary `json:"cost,omitempty"`
	// TimedOut marks a cancelled run that hit its deadline rather than a
	// client's DELETE.
	TimedOut bool `json:"timed_out,omitempty"`
	// Transport and Workers describe a distributed run's execution: which
	// transport carried the steps ("local" or "http") and each worker's
	// share. Absent for single-process runs.
	Transport string             `json:"transport,omitempty"`
	Workers   []dist.WorkerStats `json:"workers,omitempty"`
	// Recovered counts how many times this run was interrupted by a server
	// crash and re-queued from the state directory. The curve of a
	// recovered run is byte-identical to an uninterrupted one — recovery
	// re-executes the deterministic engine, it does not splice state.
	Recovered int `json:"recovered,omitempty"`
}

// Info snapshots the run.
func (r *Run) Info() RunInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	info := RunInfo{
		ID:          r.ID,
		Spec:        r.spec,
		State:       r.state,
		Error:       r.errMsg,
		Created:     r.created.UTC().Format(time.RFC3339Nano),
		CurvePoints: len(r.curve),
	}
	if !r.started.IsZero() {
		info.Started = r.started.UTC().Format(time.RFC3339Nano)
	}
	if !r.finished.IsZero() {
		info.Finished = r.finished.UTC().Format(time.RFC3339Nano)
		if !r.started.IsZero() {
			info.WallMillis = r.finished.Sub(r.started).Milliseconds()
		}
	}
	if r.result != nil {
		info.InputsProcessed = r.result.InputsProcessed
		info.FinalQuality = r.result.FinalQuality
		info.Stop = r.result.Stop.String()
		info.Strategy = r.result.Strategy
		info.CacheHits = r.result.CacheHits
		info.CacheMisses = r.result.CacheMisses
		info.Quarantined = len(r.result.Quarantined)
		info.PhaseMillis = r.result.Phases.Millis()
	} else if r.summary != nil {
		info.InputsProcessed = r.summary.InputsProcessed
		info.FinalQuality = r.summary.FinalQuality
		info.Stop = r.summary.Stop
		info.Strategy = r.summary.Strategy
		info.CacheHits = r.summary.CacheHits
		info.CacheMisses = r.summary.CacheMisses
		info.Quarantined = r.summary.Quarantined
		info.PhaseMillis = r.summary.PhaseMillis
	}
	if r.ring != nil {
		info.TraceEvents = r.ring.Len()
	}
	if r.tracer != nil {
		info.Spans = r.tracer.Len()
		info.SpansDropped = r.tracer.Dropped()
		if r.state.terminal() {
			spans, dropped := r.tracer.Snapshot()
			info.Cost = otrace.BuildCost(spans, dropped)
		}
	}
	info.TimedOut = r.timedOut
	info.Recovered = r.recovered
	info.Transport = r.distTransport
	info.Workers = r.distWorkers
	return info
}

// setDist records a sharded run's distribution summary; called by the
// manager once the coordinator has merged the result.
func (r *Run) setDist(transport string, workers []dist.WorkerStats) {
	r.mu.Lock()
	r.distTransport = transport
	r.distWorkers = workers
	r.mu.Unlock()
}

// setTimedOut marks the run as deadline-expired; called by the worker
// before finishing a run whose context hit its timeout.
func (r *Run) setTimedOut() {
	r.mu.Lock()
	r.timedOut = true
	r.mu.Unlock()
}

// State returns the current lifecycle state.
func (r *Run) State() RunState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// Curve returns a copy of the learning curve so far.
func (r *Run) Curve() []core.CurvePoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]core.CurvePoint, len(r.curve))
	copy(out, r.curve)
	return out
}

// Result returns the engine result once terminal (nil before, and nil
// forever for runs that failed or were cancelled while queued).
func (r *Run) Result() *core.RunResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.result
}

// Done returns a channel closed when the run reaches a terminal state.
func (r *Run) Done() <-chan struct{} { return r.done }

// appendPoint records a live curve point and fans it out to subscribers.
// Slow subscribers are skipped rather than blocking the engine loop: SSE
// consumers that fall more than a channel buffer behind miss interior
// frames but always see the terminal state via Done.
func (r *Run) appendPoint(p core.CurvePoint) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.curve = append(r.curve, p)
	r.fanOutLocked(streamMsg{point: &p})
}

// appendEvent records a step event into the trace ring and fans it out to
// subscribers. It is the engine's Config.Event bridge, wired only for
// traced runs, and must not block (see appendPoint).
func (r *Run) appendEvent(ev trace.Event) {
	r.ring.Append(ev)
	dropped := r.ring.Dropped()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fanOutLocked(streamMsg{event: &ev, dropped: dropped})
}

func (r *Run) fanOutLocked(msg streamMsg) {
	for _, ch := range r.subs {
		select {
		case ch <- msg:
		default:
		}
	}
}

// SpanSnapshot returns the run's recorded spans (start order, parents
// before children) and how many newer spans the bounded buffer refused.
// ok is false for runs submitted without "spans": true. Safe to call
// while the run executes.
func (r *Run) SpanSnapshot() (spans []otrace.Span, dropped int64, ok bool) {
	if r.tracer == nil {
		return nil, 0, false
	}
	spans, dropped = r.tracer.Snapshot()
	return spans, dropped, true
}

// Tracer returns the run's span tracer (nil unless spec.Spans).
func (r *Run) Tracer() *otrace.Tracer { return r.tracer }

// TraceSnapshot returns the trace ring's retained events (oldest first)
// and how many older ones the ring dropped. ok is false for untraced
// runs. It is safe to call while the run executes.
func (r *Run) TraceSnapshot() (events []trace.Event, dropped int64, ok bool) {
	if r.ring == nil {
		return nil, 0, false
	}
	events, dropped = r.ring.Snapshot()
	return events, dropped, true
}

// Subscribe returns the curve so far plus a channel of subsequent stream
// frames (curve points and, for traced runs, step events). The channel is
// closed when the run finishes; if the run is already terminal the
// returned channel is nil. unsubscribe is safe to call twice.
func (r *Run) Subscribe() (history []core.CurvePoint, ch <-chan streamMsg, unsubscribe func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	history = make([]core.CurvePoint, len(r.curve))
	copy(history, r.curve)
	if r.state.terminal() {
		return history, nil, func() {}
	}
	// Traced runs push one frame per step, far denser than curve points, so
	// the buffer is sized for them.
	c := make(chan streamMsg, 256)
	id := r.nextSub
	r.nextSub++
	r.subs[id] = c
	return history, c, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		if _, ok := r.subs[id]; ok {
			delete(r.subs, id)
			close(c)
		}
	}
}

// start transitions queued → running, recording the cancel hook a later
// DELETE will invoke. It reports false — and the worker must skip the run
// — when the run was cancelled while still queued.
func (r *Run) start(cancel context.CancelFunc, now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != StateQueued {
		return false
	}
	r.state = StateRunning
	r.started = now
	r.cancel = cancel
	return true
}

// requestCancel asks the run to stop and returns the state observed at
// decision time. A queued run is settled as cancelled on the spot (no
// worker will ever own it); a running run gets its context cancelled and
// reaches StateCancelled when the engine loop notices; a terminal run is
// untouched. cancelledNow reports whether this call itself settled the
// run — the caller then owns the metrics increment, the journal record
// and the publish, in that order (see settle).
func (r *Run) requestCancel(now time.Time) (state RunState, cancelledNow bool) {
	r.mu.Lock()
	if r.state == StateQueued {
		r.settleLocked(StateCancelled, nil, "", now)
		r.mu.Unlock()
		return StateCancelled, true
	}
	state = r.state
	cancel := r.cancel
	r.mu.Unlock()
	if state == StateRunning && cancel != nil {
		cancel()
	}
	return state, false
}

// settle moves the run to a terminal state and records the outcome
// without telling anyone yet: the caller counts the outcome, journals it,
// and only then calls publish. A client woken by Done therefore finds the
// counters already bumped, and a crash before publish finds the terminal
// record journaled instead of re-executing a finished run on recovery.
// settle is a no-op if the run is already terminal (a cancel racing a
// natural completion, for example) and reports whether this call
// performed the transition; only then may the caller publish.
func (r *Run) settle(state RunState, res *core.RunResult, errMsg string, now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state.terminal() {
		return false
	}
	r.settleLocked(state, res, errMsg, now)
	return true
}

// settleLocked is settle with r.mu already held and the state known to be
// non-terminal.
func (r *Run) settleLocked(state RunState, res *core.RunResult, errMsg string, now time.Time) {
	r.state = state
	r.result = res
	r.errMsg = errMsg
	r.finished = now
}

// publish announces a settled run: it closes every subscriber channel and
// signals Done. Call it exactly once, after the settle that performed the
// transition.
func (r *Run) publish() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, ch := range r.subs {
		delete(r.subs, id)
		close(ch)
	}
	close(r.done)
}
