package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload from its untraced run. BENCHMARK.json lists the same names with
// their bounds. An "op" is the workload's unit of work: one verdict
// (wiki-verdict), one full pass (songs-fullpass), or one served run or
// session version (serve-mixed); its kind is its feature version (and, for
// served runs, its transport). On the 2-vCPU VMs this benchmark was built
// on, the hypervisor steals 1-21% of the CPU depending on the hour, which
// moved wall-clock op percentiles by up to 30% between runs of the same
// code. So the op costs are gated two ways that steal moves little:
// op_wall_ms, each op's wall-clock latency less the share of it that was
// stolen, which sees waits, sleeps and lost parallelism on the program's
// path; and process CPU per op and per input, which the kernel does not
// charge for stolen time and which sees work added anywhere. setup_s
// loses its stolen share the same way. The raw wall-clock percentiles
// are printed under the detail names.
var endToEnd = []metricDef{
	{"setup_s", "s"},            // median wall time of the run's set-ups, less stolen CPU
	{"op_wall_ms", "ms"},        // op wall-clock latency less stolen CPU: mean over kinds of the median
	{"cpu_per_op_ms", "ms"},     // process CPU over the timed window per completed op
	{"inputs_per_cpu_s", "1/s"}, // inputs processed per process CPU second in the window
	{"peak_rss_mb", "MiB"},      // peak resident memory of the process
}

// perLayer are the metrics of single layers, reported by every workload
// from its traced run; a layer the workload does not exercise reports 0.
// Phase times are means per op of the engine's RunResult.Phases (or the
// served run's phase_ms); <layer>.self_ms is the layer's total span self
// time over the traced run.
var perLayer = []metricDef{
	{"corpus.load_s", "s"},
	{"index.build_s", "s"},
	{"index.cpu_per_wall", "ratio"},
	{"featurepipe.holdout_ms", "ms"},
	{"featurepipe.extract_ms", "ms"},
	{"featurepipe.extract_us", "us"},
	{"learner.eval_ms", "ms"},
	{"learner.quality_us", "us"},
	{"learner.evals", "count"},
	{"learner.train_ms", "ms"},
	{"bandit.select_ms", "ms"},
	{"core.read_ms", "ms"},
	{"core.run_ms", "ms"},
	{"core.phase_coverage", "ratio"},
	{"core.unattributed_ms", "ms"},
	{"core.allocs_per_input", "count"},
	{"core.gc_ms", "ms"},
	{"dist.rpcs_per_op", "count"},
	{"dist.bytes_per_input", "B"},
	{"dist.worker_busy_ms", "ms"},
	{"dist.rpc_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"featcache.hit_ratio", "ratio"},
	{"featcache.evictions", "count"},
	{"recipe.shared_parts", "count"},
	{"runstore.records_per_op", "count"},
	{"runstore.bytes_per_op", "B"},
	{"runstore.snapshot_ms", "ms"},
	{"bench.trace_overhead", "ratio"},
	{"bench.spans", "count"},
	{"bench.self_ms", "ms"},
	{"corpus.self_ms", "ms"},
	{"index.self_ms", "ms"},
	{"core.self_ms", "ms"},
	{"server.self_ms", "ms"},
	{"dist.self_ms", "ms"},
	{"featurepipe.self_ms", "ms"},
	{"learner.self_ms", "ms"},
}

// detail are the wall-clock figures and the workload-specific names,
// printed for people but not part of the JSON result.
var detail = []metricDef{
	{"op_p50_ms", "ms"}, // median wall-clock op latency
	{"op_p90_ms", "ms"}, // nearest-rank p90 wall-clock op latency
	{"verdict_p50_ms", "ms"},
	{"verdict_p90_ms", "ms"},
	{"run_p50_ms", "ms"},
	{"run_p90_ms", "ms"},
	{"session_p50_ms", "ms"},
	{"session_p90_ms", "ms"},
	{"inputs_per_s", "1/s"}, // median op's inputs per second of Engine.Run (in-process); inputs per window second (served)
	{"ops_per_s", "1/s"},    // completed ops per second of the timed window
	{"fail_frac", "ratio"},
}

// unitOf finds a metric's unit in the catalogues.
func unitOf(name string) (string, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer, detail} {
		for _, d := range list {
			if d.name == name {
				return d.unit, true
			}
		}
	}
	return "", false
}

// metricValue is one metric in the JSON result.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects one run's stamp, metrics, op counts and failed checks.
type report struct {
	stamp     []string
	metrics   map[string]float64
	attempted int
	failed    int
	failures  []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// set records a catalogued metric; an uncatalogued name is a bug.
func (r *report) set(name string, v float64) {
	if _, ok := unitOf(name); !ok {
		panic("perfbench: uncatalogued metric " + name)
	}
	r.metrics[name] = v
}

// note adds a key=value stamp line.
func (r *report) note(key string, format string, args ...any) {
	r.stamp = append(r.stamp, key+"="+fmt.Sprintf(format, args...))
}

// failf records a failed output or reconciliation check.
func (r *report) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// op counts one attempted op and whether it failed.
func (r *report) op(failed bool) {
	r.attempted++
	if failed {
		r.failed++
	}
}

// result builds the JSON result from the catalogue the run reports: every
// per-layer metric for a traced run, every end-to-end metric otherwise. A
// catalogued metric the workload did not set is a failed check.
func (r *report) result(traced bool) result {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			r.failf("metric %s was not measured", d.name)
			continue
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	out.Correct = len(r.failures) == 0 && r.attempted > 0
	return out
}

// print writes the human-readable report: the stamp, every metric with its
// unit (catalogue order, then the workload-specific names), and the
// failed checks. The JSON result goes last, on its own line.
func (r *report) print(w io.Writer, res result) error {
	for _, s := range r.stamp {
		fmt.Fprintf(w, "stamp: %s\n", s)
	}
	var names []string
	for _, list := range [][]metricDef{endToEnd, detail, perLayer} {
		for _, d := range list {
			if _, ok := r.metrics[d.name]; ok {
				names = append(names, d.name)
			}
		}
	}
	for _, n := range names {
		u, _ := unitOf(n)
		fmt.Fprintf(w, "metric: %-26s %14.6g %s\n", n, r.metrics[n], u)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "check failed: %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
