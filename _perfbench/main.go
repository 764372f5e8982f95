// Command perfbench is the repository's benchmark. One run takes one
// named workload from a generated tensor to served queries and prints
// every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1) as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"setup_s": {"value": 1.2, "unit": "s"}, ...}}
//
// Each workload runs the same pipeline: generate a planted knowledge
// base (3-way) and an intrusion log (4-way), decompose them
// with PARAFAC-DRI, Tucker-DRI and 4-way PARAFAC on a simulated
// cluster, save the PARAFAC model, load it back and serve top-k object
// queries under an open-loop load. The workloads differ in which stage
// they repeat and size up (see workloads below). --seed generates the
// tensors of the ALS workload and the query streams of the serving
// workloads, whose model is a fixed fixture. Layers are measured
// from outside, by timing and counting the calls the benchmark makes
// into gen, core, mr, mrproc, matrix, tensor, the root package and
// serve; no engine code is instrumented.
//
// Run it through run.sh from the repository root, which builds it:
//
//	bash _perfbench/run.sh --workload serve-zipf --seed 3 --seconds 20 --trace 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"

	"github.com/haten2/haten2/internal/gen"
	"github.com/haten2/haten2/internal/mrproc"
)

// workload is one named benchmark input set. Sizes were chosen on a
// 2-core host so that ALS converges in the same number of iterations
// for almost every seed (the iteration count, not the data, is what
// would otherwise dominate seed-to-seed spread) and a run fits its
// time budget.
type workload struct {
	name string
	why  string

	kb     gen.KBConfig // 3-way knowledge base; Seed is set per run
	rank   int          // PARAFAC rank on the knowledge base
	tucker [3]int       // Tucker core shape on the knowledge base

	log4  gen.IntrusionConfig // 4-way connection log; Seed is set per run
	hours int64
	rank4 int // 4-way PARAFAC rank

	// procLeg makes the traced run also drive the ALS stage through two
	// mrproc worker processes, behind the backend probe, and check that
	// it reproduces the in-process factors bit for bit.
	procLeg bool
	// serveHeavy puts the decompositions and the model save in set-up
	// and makes serving the measured phase; otherwise the ALS stage is
	// the measured phase and a short serving leg closes the pipeline.
	serveHeavy bool

	mix  string  // query mix: "zipf" or "uniform"
	rate float64 // fixed offered rate of the latency phase, queries/s

	// injectFail replaces every injectFail-th query of the latency
	// phase with an out-of-range one. Only the self-test sets it.
	injectFail int
}

func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%d", prefix, i)
	}
	return out
}

// The ALS workload decomposes a knowledge base of six dense planted
// concepts over 120 subjects/objects, and a 4-way log whose port scan is
// a dense block against diurnal background traffic. All workloads share
// the log.
var (
	alsKB = gen.KBConfig{
		Theme:              "music",
		ConceptNames:       gen.FreebaseMusicNames,
		EntitiesPerConcept: 20,
		TriplesPerConcept:  6000,
		NoiseTriples:       1000,
	}
	alsLog = gen.IntrusionConfig{
		Sources: 300, Targets: 16, Ports: 12,
		Background:  20000,
		ScanSources: 10, ScanTargets: 40, ScanPorts: 30,
	}
	// serveKB is sparse and wide: 1,600 subjects and objects and 416
	// predicates, so the 666K (subject, predicate) queries dwarf the
	// server's 4,096 cache entries and uniform traffic almost never hits.
	serveKB = gen.KBConfig{
		Theme:              "kb",
		ConceptNames:       names("concept", 16),
		EntitiesPerConcept: 100,
		TriplesPerConcept:  1000,
		NoiseTriples:       2000,
	}
)

var workloads = []workload{
	{
		name: "als-inproc",
		why: "dfs/mr/core/matrix/tensor do the work on the in-process engine, serving is a short tail; " +
			"its traced run also measures the mrproc backend on the same jobs",
		kb: alsKB, rank: 6, tucker: [3]int{4, 4, 4},
		log4: alsLog, hours: 24, rank4: 2,
		procLeg: true,
		mix:     "zipf", rate: 8000,
	},
	{
		name: "serve-zipf",
		why: "Zipf(1.2) users over 3M ids against a rank-16 model; the LRU hit path, " +
			"single-flight and dispatch queue do the work, the engine none in the measured phase",
		kb: serveKB, rank: 16, tucker: [3]int{4, 4, 4},
		log4: alsLog, hours: 24, rank4: 2,
		serveHeavy: true,
		mix:        "zipf", rate: 6000,
	},
	{
		name: "serve-uniform",
		why: "uniform users, hit rate near 0: every query inserts and evicts in the LRU and runs " +
			"batching, MulBTInto, SelectTopK and MergeTopK",
		kb: serveKB, rank: 16, tucker: [3]int{4, 4, 4},
		log4: alsLog, hours: 24, rank4: 2,
		serveHeavy: true,
		mix:        "uniform", rate: 3000,
	},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// spec names one reported metric and its unit.
type spec struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"parafac_s", "s"}, {"tucker_s", "s"}, {"nway_s", "s"},
	{"parafac_fit", "ratio"}, {"tucker_fit", "ratio"}, {"nway_fit", "ratio"},
	{"sim_s", "sim-s"},
	{"cpu_s", "s"},
	{"allocs_m", "M"},
	{"peak_rss_mb", "MB"},
	{"serve_ready_s", "s"},
	{"serve_p50_ms", "ms"},
	{"serve_qps", "1/s"},
}

// perLayer are the metrics of a traced run, on every workload; a layer
// a workload does not use reports 0.
var perLayer = []spec{
	{"gen.tensor_s", "s"},
	{"dfs.stage_s", "s"}, {"dfs.write_mb", "MB"}, {"dfs.read_mb", "MB"},
	{"mr.jobs", "count"}, {"mr.map_records", "count"}, {"mr.shuffle_records", "count"},
	{"mr.shuffle_mb", "MB"}, {"mr.output_records", "count"},
	{"mr.sim_map_s", "s"}, {"mr.sim_shuffle_s", "s"}, {"mr.sim_reduce_s", "s"}, {"mr.sim_startup_s", "s"},
	{"core.parafac_contract_s", "s"}, {"core.tucker_contract_s", "s"}, {"core.contract_share", "ratio"},
	{"core.wall_per_sim.naive", "ratio"}, {"core.wall_per_sim.dnn", "ratio"},
	{"core.wall_per_sim.drn", "ratio"}, {"core.wall_per_sim.dri", "ratio"},
	{"core.plan_rank_match", "bool"},
	{"als.parafac_iters", "count"}, {"als.tucker_iters", "count"}, {"als.nway_iters", "count"},
	{"als.core_build_s", "s"},
	{"matrix.gram_s", "s"}, {"matrix.pinv_s", "s"}, {"matrix.mul_s", "s"}, {"matrix.svd_s", "s"},
	{"matrix.flops", "flop"},
	{"tensor.fit_s", "s"},
	{"backend.ship_part_calls", "count"}, {"backend.ship_part_mb", "MB"}, {"backend.ship_part_s", "s"},
	{"backend.fetch_part_calls", "count"}, {"backend.fetch_part_mb", "MB"}, {"backend.fetch_part_s", "s"},
	{"backend.ship_file_calls", "count"}, {"backend.ship_file_mb", "MB"}, {"backend.ship_file_s", "s"},
	{"backend.fetch_file_calls", "count"}, {"backend.fetch_file_mb", "MB"}, {"backend.fetch_file_s", "s"},
	{"backend.fetch_file_fallbacks", "count"}, {"backend.fetch_file_useful_frac", "ratio"},
	{"backend.release_s", "s"}, {"backend.spawn_s", "s"}, {"backend.bytes_per_charged_byte", "ratio"},
	{"persist.save_s", "s"}, {"persist.load_s", "s"}, {"persist.model_mb", "MB"},
	{"serve.build_s", "s"},
	{"serve.hit_rate", "ratio"}, {"serve.coalesced_frac", "ratio"}, {"serve.misses", "count"},
	{"serve.batches", "count"}, {"serve.batch_occupancy", "count"},
	{"serve.kernel_us_per_query", "us"}, {"serve.kernel_flops_per_query", "flop"},
	{"load.offered_qps", "1/s"}, {"load.sent", "count"}, {"load.failed", "count"},
	{"load.p99_ms", "ms"}, {"load.late_p99_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	out     string // directory for model files and traces
}

// tally accumulates a run's outcome: metric values, operation counts,
// and the first correctness violation.
type tally struct {
	values    map[string]float64
	attempted int64
	failed    int64
	wrong     []string
}

func newTally() *tally { return &tally{values: map[string]float64{}} }

func (t *tally) set(name string, v float64) { t.values[name] = v }

// op counts one attempted operation and whether it failed.
func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
	}
}

// check records a correctness violation.
func (t *tally) check(ok bool, format string, args ...any) {
	if !ok {
		t.wrong = append(t.wrong, fmt.Sprintf(format, args...))
	}
}

// result fills the metrics of specs from the tally. A metric the run
// did not produce, or a non-finite value, is a bug in the benchmark
// and makes the run incorrect.
func (t *tally) result(specs []spec) result {
	r := result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, s := range specs {
		v, ok := t.values[s.name]
		if !ok {
			t.check(false, "metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.check(false, "metric %s is %v", s.name, v)
			v = 0
		}
		r.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	if r.Attempted == 0 {
		t.check(false, "no operation was attempted")
		r.Attempted = 1
	}
	r.Correct = len(t.wrong) == 0
	return r
}

// provenance describes the host and inputs of a run.
type provenance struct {
	Workload   string         `json:"workload"`
	Why        string         `json:"why"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Sizes      map[string]any `json:"sizes"`
}

func main() {
	mrproc.MaybeWorker() // worker processes re-exec this binary
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags, runs one workload and prints its provenance and
// result. It returns the process exit code: 0 only for a correct run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	out := fs.String("out", ".bench_build/perfbench-out", "directory for model files and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	res, prov, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := printResult(stdout, prov, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// runWorkload sets GOMAXPROCS to at most 2 and the host's CPU count,
// runs the workload and returns its result. A non-nil error means the
// run could not produce a result at all.
func runWorkload(w workload, cfg runConfig) (result, provenance, error) {
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return result{}, provenance{}, err
	}
	prov := provenance{
		Workload: w.name, Why: w.why, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(),
	}
	t := newTally()
	var err error
	if cfg.trace {
		err = traced(w, cfg, t, &prov)
	} else {
		err = untraced(w, cfg, t, &prov)
	}
	if err != nil {
		return result{}, prov, err
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	res := t.result(specs)
	for _, msg := range t.wrong {
		fmt.Fprintf(os.Stderr, "perfbench: %s: incorrect: %s\n", w.name, msg)
	}
	return res, prov, nil
}

// printResult writes the provenance line and then the result line,
// which must be the last line of standard output.
func printResult(out io.Writer, prov provenance, res result) error {
	p, err := json.Marshal(map[string]provenance{"provenance": prov})
	if err != nil {
		return err
	}
	r, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n%s\n", p, r)
	return err
}

// median returns the median of xs (0 for none) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
