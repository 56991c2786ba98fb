package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"macroflow"
)

// daemonBin is the macroflowd binary the tiny runs start, built once by
// TestMain.
var daemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "macrobench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	daemonBin = filepath.Join(dir, "macroflowd")
	build := exec.Command("go", "build", "-o", daemonBin, "macroflow/cmd/macroflowd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "build macroflowd:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tinyEnv is a run small enough for a test: two stitch seeds per cnv
// run, eight jobs per daemon-mix round, no minimum measuring time.
func tinyEnv(t *testing.T) *env {
	return &env{
		seed: 3, root: "..", dir: ".", daemon: daemonBin, scratch: t.TempDir(),
		seedsPerRun: 2, streamJobs: 8,
	}
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is the part of the repository's BENCHMARK.json the
// benchmark must agree with.
type benchmarkFile struct {
	Workloads []declared `json:"workloads"`
	EndToEnd  []declared `json:"end_to_end"`
	PerLayer  []declared `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkFile(t)
	for _, c := range []struct {
		section string
		listed  []declared
		table   map[string]string
	}{
		{"end_to_end", b.EndToEnd, endToEndUnits},
		{"per_layer", b.PerLayer, perLayerUnits},
	} {
		seen := make(map[string]bool)
		for _, m := range c.listed {
			seen[m.Name] = true
			if u, ok := c.table[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json lists %s [%s], the benchmark has [%s]", c.section, m.Name, m.Unit, u)
			}
		}
		for name := range c.table {
			if !seen[name] {
				t.Errorf("%s: the benchmark emits %s, BENCHMARK.json does not list it", c.section, name)
			}
		}
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark has %v", names, want)
	}
}

// TestTinyRunsEmitEveryMetric runs every workload, untraced and traced,
// at a tiny size: each run must pass its correctness gate and emit
// every metric BENCHMARK.json names, with its unit and a finite value.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	b := loadBenchmarkFile(t)
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				r := newRun(trace)
				want := b.EndToEnd
				if trace {
					workloads[w.Name].trace(tinyEnv(t), r)
					want = b.PerLayer
				} else {
					workloads[w.Name].measure(tinyEnv(t), r)
				}
				out := r.outcome()
				if !out.Correct {
					t.Fatalf("correctness gate failed:\n%s", strings.Join(r.problems, "\n"))
				}
				if out.Attempted < 1 || out.Failed != 0 {
					t.Errorf("attempted %d, failed %d", out.Attempted, out.Failed)
				}
				for _, m := range want {
					got, ok := out.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					}
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, %d declared", len(out.Metrics), len(want))
				}
			})
		}
	}
}

// TestGateRejectsCorruptedReference changes one block's CF in a copy of
// the cold reference: a run against it must be incorrect.
func TestGateRejectsCorruptedReference(t *testing.T) {
	e := tinyEnv(t)
	e.dir = t.TempDir()
	if err := os.Mkdir(filepath.Join(e.dir, "reference"), 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob("reference/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(e.dir, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	path := e.refPath(coldCNV.name + ".json")
	ref, err := loadReference(path)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 20
	ref.Blocks[victim].CF += searchStep
	if err := writeJSON(path, ref); err != nil {
		t.Fatal(err)
	}
	r := newRun(false)
	coldCNV.measure(e, r)
	if r.outcome().Correct {
		t.Fatal("the gate accepted a run against a corrupted reference")
	}
	if !strings.Contains(strings.Join(r.problems, "\n"), ref.Blocks[victim].Name) {
		t.Errorf("the gate failed, but not on the corrupted block %s:\n%s", ref.Blocks[victim].Name, strings.Join(r.problems, "\n"))
	}
}

// TestRunCNVDeterministic compiles cnvW1A1 twice with the same stitch
// seed: every output must be identical.
func TestRunCNVDeterministic(t *testing.T) {
	var results [2]*macroflow.CNVResult
	for i := range results {
		res, err := coldCNV.compile(t.TempDir(), 7, macroflow.CheckOff, false)
		if err != nil {
			t.Fatal(err)
		}
		// Which of two content-identical blocks is a memory hit and
		// which a singleflight join depends on worker timing (their sum
		// is in CacheHits, which is compared).
		res.Cache.MemHits, res.Cache.SingleflightHits = 0, 0
		results[i] = res
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatal("two RunCNV calls with the same seed gave different outputs")
	}
}
