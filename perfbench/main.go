// Command perfbench is the repository benchmark. It generates its corpora
// from a seed, drives the zombie engine and service through their public
// entry points under one workload, checks every output, and prints each
// end-to-end and per-layer metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run records the benchmark's own spans around each call into a layer,
// writes them to a span file, and the metrics are the per-layer ones.
// Build and run it from the repository root:
//
//	bash perfbench/run.sh --workload wiki-verdict --seed 1 --seconds 20 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	wiki-verdict    one client cycles the 8 wiki feature versions as
//	                early-stopped K=1 engine runs
//	songs-fullpass  one client repeats K=16 full passes over the songs corpus
//	serve-mixed     two clients against zombie-serve handlers: runs (K=1 and
//	                2-shard HTTP dist) and 8-version recipe sessions
//
// A run exits non-zero without a result when it cannot run, and exits 1
// after printing "correct": false when an output or reconciliation check
// fails.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"zombie/internal/buildinfo"
	"zombie/internal/corpus"
	"zombie/internal/rng"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	wikiN    int    // inputs in the generated wiki corpus
	songsN   int    // inputs in the generated songs corpus
	workDir  string // corpora, state and span files live under it
	// goldenOut, when set, writes this run's first-cycle digests there
	// instead of checking them.
	goldenOut string
}

// bench is one workload run in progress.
type bench struct {
	opts   options
	dir    string // this run's private scratch directory
	rep    *report
	tr     *tracer // nil unless traced
	golden *goldens
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"wiki-verdict":   runWikiVerdict,
	"songs-fullpass": runSongsFullpass,
	"serve-mixed":    runServeMixed,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark run and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rep, traced, err := execute(opts, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := rep.result(traced)
	if err := rep.print(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the engine seeds and the order of served versions derive from it")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	fs.IntVar(&o.wikiN, "wiki-n", 20000, "inputs in the generated wiki corpus")
	fs.IntVar(&o.songsN, "songs-n", 10000, "inputs in the generated songs corpus")
	fs.StringVar(&o.workDir, "work-dir", ".bench_build", "directory for corpora, run state and span files")
	fs.StringVar(&o.goldenOut, "update-golden", "", "write the first-cycle digests to this file instead of checking them")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = *trace == 1
	switch {
	case workloads[o.workload] == nil:
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	case *trace != 0 && *trace != 1:
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	case o.seconds <= 0:
		return o, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	case o.wikiN < 100 || o.songsN < 100:
		return o, fmt.Errorf("corpora need at least 100 inputs, got --wiki-n %d --songs-n %d", o.wikiN, o.songsN)
	}
	return o, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// execute runs the workload and returns its report.
func execute(opts options, stdout io.Writer) (*report, bool, error) {
	if err := os.MkdirAll(opts.workDir, 0o755); err != nil {
		return nil, false, err
	}
	dir, err := os.MkdirTemp(opts.workDir, "run-")
	if err != nil {
		return nil, false, err
	}
	defer os.RemoveAll(dir)
	g, err := loadGoldens(opts, opts.goldenOut != "")
	if err != nil {
		return nil, false, err
	}
	b := &bench{opts: opts, dir: dir, rep: newReport(), golden: g}
	if opts.trace {
		b.tr = newTracer()
	}
	b.stamp()
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%g trace=%t\n",
		opts.workload, opts.seed, opts.seconds, opts.trace)
	if err := workloads[opts.workload](b); err != nil {
		return nil, false, err
	}
	b.rep.set("peak_rss_mb", peakRSSMiB())
	if b.tr != nil {
		if err := b.finishTrace(); err != nil {
			return nil, false, err
		}
	}
	if opts.goldenOut != "" {
		if err := g.write(opts.goldenOut); err != nil {
			return nil, false, err
		}
	}
	return b.rep, opts.trace, nil
}

// stamp records what the numbers were measured on.
func (b *bench) stamp() {
	version, commit := buildinfo.Resolve()
	b.rep.note("nproc", "%d", runtime.NumCPU())
	b.rep.note("gomaxprocs", "%d", runtime.GOMAXPROCS(0))
	b.rep.note("go", "%s", runtime.Version())
	b.rep.note("build", "%s", version)
	b.rep.note("commit", "%s", commit)
	b.rep.note("os_arch", "%s/%s", runtime.GOOS, runtime.GOARCH)
	b.rep.note("seed", "%d", b.opts.seed)
	b.rep.note("corpus_seed", "%d", corpusSeed)
	b.rep.note("seconds", "%g", b.opts.seconds)
	b.rep.note("clients", "%d", clientsOf(b.opts.workload))
}

func clientsOf(workload string) int {
	if workload == "serve-mixed" {
		return 2
	}
	return 1
}

// window is the timed window's length.
func (b *bench) window() time.Duration {
	return time.Duration(b.opts.seconds * float64(time.Second))
}

// corpusSeed generates the corpora and seeds the holdout split and the
// index. It is fixed, not derived from the workload seed: corpora drawn
// from different seeds moved verdict latency by 20% between runs, which
// would bury any change under test. The workload seed varies the ops.
const corpusSeed int64 = 20160516

// engineSeed derives the engine seed of a workload cycle.
func engineSeed(seed int64, cycle int) int64 { return seed*1000 + int64(cycle) + 1 }

// generate writes the named corpus, generated from the corpus seed, to
// the run's scratch directory and returns its path. Generation makes the
// benchmark's inputs and is not part of set-up.
func (b *bench) generate(name string) (string, error) {
	r := rng.New(corpusSeed).Split("corpus-" + name)
	var (
		inputs []*corpus.Input
		err    error
	)
	switch name {
	case "wiki":
		cfg := corpus.DefaultWikiConfig()
		cfg.N = b.opts.wikiN
		inputs, err = corpus.GenerateWiki(cfg, r)
	case "songs":
		cfg := corpus.DefaultSongConfig()
		cfg.N = b.opts.songsN
		inputs, err = corpus.GenerateSongs(cfg, r)
	default:
		err = fmt.Errorf("no generator for corpus %q", name)
	}
	if err != nil {
		return "", err
	}
	path, err := filepath.Abs(filepath.Join(b.dir, name+".jsonl"))
	if err != nil {
		return "", err
	}
	if err := corpus.WriteJSONL(path, inputs); err != nil {
		return "", err
	}
	b.rep.note("corpus", "%s n=%d", name, len(inputs))
	runtime.GC()
	return path, nil
}

// finishTrace writes the span file and reports per-layer self time.
func (b *bench) finishTrace() error {
	spans := b.tr.snapshot()
	self := selfTimes(spans)
	for _, l := range []string{"bench", "corpus", "index", "core", "server", "dist", "featurepipe", "learner"} {
		b.rep.set(l+".self_ms", float64(self[l])/float64(time.Millisecond))
	}
	b.rep.set("bench.spans", float64(len(spans)))
	path := filepath.Join(b.opts.workDir, fmt.Sprintf("spans-%s-seed%d.json", b.opts.workload, b.opts.seed))
	if err := writeSpans(path, b.opts.workload, b.opts.seed, spans); err != nil {
		return fmt.Errorf("write span file: %w", err)
	}
	b.rep.note("span_file", "%s", path)
	return nil
}
