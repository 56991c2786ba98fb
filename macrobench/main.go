// Command macrobench is macroflow's benchmark: it runs one named
// workload against the public entry points (Flow.RunCNV and Flow.Compile
// in-process, a real macroflowd binary through the api/v1 client),
// checks every output against a reference outside the timed region, and
// prints the metrics as one JSON object on the last line of standard
// output.
//
// With -trace 0 it measures the end-to-end metrics; with -trace 1 it
// replays the workload single-threaded, timing the calls into each
// layer's public functions from this package, and reports the per-layer
// metrics and the tracing overhead. README.md explains the workloads and
// which layer metric should move which end-to-end metric.
//
// Run it through run.sh from the root of a checkout, which builds this
// binary and macroflowd first:
//
//	bash macrobench/run.sh --workload cnv-z020-cold --seed 1 --seconds 15 --trace 0
//
// -regen rewrites the reference files under reference/ from the current
// program (a change that alters a reference value must say why).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// metricUnits is every metric the benchmark emits, with its unit. The
// names match BENCHMARK.json (the self-test checks both directions).
var endToEndUnits = map[string]string{
	"setup_s":        "s",
	"latency_p50_s":  "s",
	"latency_p90_s":  "s",
	"compiles_per_s": "1/s",
	"cpu_s":          "s",
	"stitch_cost":    "cost",
	"placed_frac":    "ratio",
	"alloc_mb":       "MB",
	"peak_rss_mb":    "MB",
	"success_rate":   "ratio",
}

var perLayerUnits = map[string]string{
	"synth.elaborate_s":            "s",
	"synth.optimize_s":             "s",
	"synth.cells":                  "count",
	"synth.elaborate_allocs":       "count",
	"place.quick_s":                "s",
	"pblock.build_s":               "s",
	"place.detail_s":               "s",
	"place.detail_allocs":          "count",
	"place.detail_fail":            "count",
	"route.route_s":                "s",
	"route.route_allocs":           "count",
	"route.fail":                   "count",
	"pblock.probes":                "count",
	"pblock.feasible_ratio":        "ratio",
	"pblock.search_critical_s":     "s",
	"stitch.run_s":                 "s",
	"stitch.moves_per_s":           "1/s",
	"stitch.illegal_ratio":         "ratio",
	"stitch.accept_ratio":          "ratio",
	"stitch.run_allocs":            "count",
	"implcache.hash_s":             "s",
	"blockcache.read_s":            "s",
	"blockcache.mem_hits":          "count",
	"blockcache.disk_hits":         "count",
	"blockcache.singleflight_hits": "count",
	"blockcache.misses":            "count",
	"blockcache.stores":            "count",
	"ml.predict_s":                 "s",
	"ml.first_run_frac":            "ratio",
	"pblock.estimate_probes":       "count",
	"macroflowd.queue_wait_s":      "s",
	"macroflowd.run_s":             "s",
	"macroflowd.overhead_s":        "s",
	"macroflowd.queue_depth_peak":  "count",
	"apiv1.decode_s":               "s",
	"oracle.check_s":               "s",
	"trace.overhead_s":             "s",
}

// env is what every workload needs to know about the run.
type env struct {
	seed    int64
	seconds float64
	root    string // checkout root
	dir     string // this benchmark's directory
	daemon  string // macroflowd binary
	scratch string // per-run scratch directory inside the checkout
	// seedsPerRun and streamJobs size the workloads: the stitch seeds
	// of a cnv run and the jobs of a daemon-mix round (the self-test
	// shrinks both).
	seedsPerRun, streamJobs int
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the JSON object printed as the last line of the run.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one workload run: metrics, operation counts and
// correctness failures.
type run struct {
	units     map[string]string
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
}

func newRun(trace bool) *run {
	units := endToEndUnits
	if trace {
		units = perLayerUnits
	}
	return &run{units: units, metrics: make(map[string]metric)}
}

// set records a metric; its unit comes from the metric table.
func (r *run) set(name string, v float64) {
	u, ok := r.units[name]
	if !ok {
		r.fail("internal: metric %q is not declared for this mode", name)
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s has no value (nothing was measured)", name)
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: u}
}

// fail records a correctness failure; any failure makes the run
// incorrect.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(os.Stderr, "macrobench: CHECK FAILED:", msg)
}

func (r *run) outcome() outcome {
	for name := range r.units {
		if _, ok := r.metrics[name]; !ok {
			r.fail("metric %s was not measured", name)
		}
	}
	return outcome{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	measure func(e *env, r *run)
	trace   func(e *env, r *run)
}{
	"cnv-z020-cold": {coldCNV.measure, coldCNV.trace},
	"cnv-z045-warm": {warmCNV.measure, warmCNV.trace},
	"daemon-mix":    {measureMix, traceMix},
}

func main() { os.Exit(mainCode()) }

// mainCode runs the benchmark and returns the process exit code: 0 for
// a correct run, 1 when a correctness check failed (the result is still
// printed), 2 when the run could not start.
func mainCode() int {
	workload := flag.String("workload", "", "workload to run: cnv-z020-cold, cnv-z045-warm or daemon-mix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 15, "measurement time")
	trace := flag.Int("trace", 0, "1 = traced per-layer replay, 0 = end-to-end measurement")
	root := flag.String("root", ".", "checkout root")
	dir := flag.String("dir", "macrobench", "benchmark directory")
	daemon := flag.String("daemon", "", "macroflowd binary")
	scratch := flag.String("scratch", "", "directory for the run's scratch files")
	regen := flag.Bool("regen", false, "rewrite the reference files under -dir/reference and exit")
	flag.Parse()

	w, ok := workloads[*workload]
	switch {
	case *scratch == "":
		return cannotRun("-scratch is required")
	case !*regen && !ok:
		return cannotRun(fmt.Sprintf("unknown workload %q", *workload))
	case *trace != 0 && *trace != 1:
		return cannotRun("-trace must be 0 or 1")
	}
	work, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		return cannotRun(err.Error())
	}
	defer os.RemoveAll(work)
	e := &env{
		seed: *seed, seconds: *seconds,
		root: *root, dir: *dir, daemon: *daemon, scratch: work,
		seedsPerRun: seedsPerRun, streamJobs: streamJobs,
	}
	if *regen {
		if err := regenerate(e); err != nil {
			return cannotRun("regen: " + err.Error())
		}
		return 0
	}
	r := newRun(*trace == 1)
	if *trace == 1 {
		w.trace(e, r)
	} else {
		w.measure(e, r)
	}
	out := r.outcome()
	printBox(e)
	data, err := json.Marshal(out)
	if err != nil {
		return cannotRun(err.Error())
	}
	fmt.Println(string(data))
	if !out.Correct {
		return 1
	}
	return 0
}

// cannotRun reports a run that could not start.
func cannotRun(msg string) int {
	fmt.Fprintln(os.Stderr, "macrobench:", msg)
	return 2
}

// printBox records where the numbers came from: CPU model, nproc,
// GOMAXPROCS, Go version, commit and a digest of the sources.
func printBox(e *env) {
	box := struct {
		CPU        string `json:"cpu"`
		NProc      int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Go         string `json:"go"`
		Commit     string `json:"commit"`
		Sources    string `json:"sources_sha256"`
	}{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     gitCommit(e.root),
		Sources:    sourceDigest(e.root),
	}
	data, _ := json.Marshal(box)
	fmt.Printf("box %s\n", data)
}

// freshDir returns a new empty directory under the run's scratch space.
func (e *env) freshDir(prefix string) (string, error) {
	return os.MkdirTemp(e.scratch, prefix)
}

// refPath locates a file under the benchmark's reference directory.
func (e *env) refPath(name string) string {
	return filepath.Join(e.dir, "reference", name)
}
