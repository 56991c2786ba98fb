package macroflow

import (
	"reflect"
	"testing"

	"macroflow/internal/stitch"
)

// TestSearchStrategyOverride: the per-call Strategy override must yield
// the same correction factors as the flow-level setting.
func TestSearchStrategyOverride(t *testing.T) {
	f, _ := NewFlow("xc7z020")
	f.SetSearch(0.9, 0.02, 3.0)
	linear, err := f.Compile(smallDesign(120), MinSweepCF(), CompileOptions{
		Implement: ImplementOptions{Strategy: SearchForceLinear}, SkipStitch: true})
	if err != nil {
		t.Fatal(err)
	}
	bisect, err := f.Compile(smallDesign(120), MinSweepCF(), CompileOptions{
		Implement: ImplementOptions{Strategy: SearchForceBisect}, SkipStitch: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range linear.Blocks {
		if linear.Blocks[i].CF != bisect.Blocks[i].CF {
			t.Errorf("block %s: linear CF %.2f != bisect CF %.2f",
				linear.Blocks[i].Name, linear.Blocks[i].CF, bisect.Blocks[i].CF)
		}
	}
	if bisect.Blocks[0].ToolRuns >= linear.Blocks[0].ToolRuns {
		t.Errorf("bisect should need fewer tool runs: %d vs %d",
			bisect.Blocks[0].ToolRuns, linear.Blocks[0].ToolRuns)
	}
}

// TestIterToReachFinalCost: the stitch trace must always end with a
// sample at FinalCost, so IterToReach(FinalCost) never returns -1 —
// serial or chained, converged or overflowing.
func TestIterToReachFinalCost(t *testing.T) {
	f, _ := NewFlow("xc7z020")
	f.SetSearch(0.9, 0.02, 3.0)
	for _, chains := range []int{0, 3} {
		res, err := f.Compile(smallDesign(120), MinSweepCF(), CompileOptions{
			Stitch: StitchOptions{Seed: 1, Anneal: AnnealOptions{Iterations: 5000, Chains: chains}}})
		if err != nil {
			t.Fatal(err)
		}
		if it := res.Stitch.IterToReach(res.Stitch.FinalCost); it < 0 {
			t.Errorf("chains=%d: IterToReach(FinalCost) = -1", chains)
		}
		if it := res.Stitch.IterToReach(res.Stitch.FinalCost - 1); it != -1 {
			t.Errorf("chains=%d: unreachable cost should give -1, got %d", chains, it)
		}
	}
}

// TestCompileMultiChainDeterministic: the multi-chain path through the
// public API is reproducible and reports per-chain telemetry.
func TestCompileMultiChainDeterministic(t *testing.T) {
	f, _ := NewFlow("xc7z020")
	f.SetSearch(0.9, 0.02, 3.0)
	opts := CompileOptions{Stitch: StitchOptions{Seed: 4, Anneal: AnnealOptions{Iterations: 9000, Chains: 3}}}
	a, err := f.Compile(smallDesign(120), MinSweepCF(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Compile(smallDesign(120), MinSweepCF(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Stitch, b.Stitch) {
		t.Error("multi-chain compile not reproducible")
	}
	if len(a.Stitch.Chains) != 3 {
		t.Fatalf("chain reports = %d, want 3", len(a.Stitch.Chains))
	}
	moves := 0
	for _, ch := range a.Stitch.Chains {
		moves += ch.Moves
	}
	if moves != a.Stitch.Iterations {
		t.Errorf("sum of chain moves %d != Iterations %d", moves, a.Stitch.Iterations)
	}
}

// TestStitchProgressCallback: Progress fires from the calling goroutine
// with ordered per-chain samples.
func TestStitchProgressCallback(t *testing.T) {
	f, _ := NewFlow("xc7z020")
	f.SetSearch(0.9, 0.02, 3.0)
	type sample struct {
		chain, iter int
	}
	var got []sample
	_, err := f.Compile(smallDesign(120), MinSweepCF(), CompileOptions{
		Stitch: StitchOptions{Seed: 1, Anneal: AnnealOptions{Iterations: 6000, Chains: 2},
			Progress: func(chain, iter int, cost float64) {
				got = append(got, sample{chain, iter})
			}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no progress samples")
	}
	seen := map[int]bool{}
	for _, s := range got {
		seen[s.chain] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("progress must cover both chains, saw %v", seen)
	}
}

// TestTraceEveryOption: the trace sampling interval is configurable,
// echoed in the report, and defaults to 256.
func TestTraceEveryOption(t *testing.T) {
	f, _ := NewFlow("xc7z020")
	f.SetSearch(0.9, 0.02, 3.0)
	def, err := f.Compile(smallDesign(120), MinSweepCF(),
		CompileOptions{Stitch: StitchOptions{Seed: 3, Anneal: AnnealOptions{Iterations: 8000}}})
	if err != nil {
		t.Fatal(err)
	}
	if def.Stitch.TraceEvery != 256 {
		t.Errorf("default TraceEvery = %d, want 256", def.Stitch.TraceEvery)
	}
	fine, err := f.Compile(smallDesign(120), MinSweepCF(),
		CompileOptions{Stitch: StitchOptions{Seed: 3, Anneal: AnnealOptions{Iterations: 8000}, TraceEvery: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if fine.Stitch.TraceEvery != 100 {
		t.Errorf("TraceEvery = %d, want 100", fine.Stitch.TraceEvery)
	}
	if len(fine.Stitch.Trace) <= len(def.Stitch.Trace) {
		t.Errorf("finer sampling must yield more trace points: %d vs %d",
			len(fine.Stitch.Trace), len(def.Stitch.Trace))
	}
	for _, p := range fine.Stitch.Trace[:len(fine.Stitch.Trace)-1] {
		if p.Iter%100 != 0 {
			t.Fatalf("trace point at iter %d is off the TraceEvery grid", p.Iter)
		}
	}
}

// TestStitchConfigMapping pins how the structured options reach the
// annealer configuration: the per-backend sub-structs fill their
// stitch.Config fields, a zero budget keeps the default, and
// AdaptiveStop derives the plateau window from the budget.
func TestStitchConfigMapping(t *testing.T) {
	def := stitch.DefaultConfig()
	cases := []struct {
		name string
		in   StitchOptions
		want func(*stitch.Config)
	}{
		{"anneal-default", StitchOptions{Seed: 3, Anneal: AnnealOptions{Iterations: 8000, Chains: 4}},
			func(c *stitch.Config) { c.Seed, c.Iterations, c.Chains = 3, 8000, 4 }},
		{"anneal-explicit", StitchOptions{Seed: 1, Backend: BackendAnneal, Anneal: AnnealOptions{Iterations: 200}},
			func(c *stitch.Config) { c.Seed, c.Iterations = 1, 200 }},
		{"hybrid-gd", StitchOptions{Seed: 2, Backend: BackendHybrid, Analytic: AnalyticOptions{GDIterations: 64}},
			func(c *stitch.Config) { c.Seed, c.Backend, c.GDIterations = 2, stitch.BackendHybrid, 64 }},
		{"adaptive", StitchOptions{Seed: 5, Anneal: AnnealOptions{Iterations: 16000}, AdaptiveStop: true},
			func(c *stitch.Config) { c.Seed, c.Iterations, c.StopWindow = 5, 16000, 1000 }},
		{"zero-budget-keeps-default", StitchOptions{Anneal: AnnealOptions{TempLadder: 2}},
			func(c *stitch.Config) { c.TempLadder = 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := def
			want.Backend = stitch.BackendAnneal
			tc.want(&want)
			if got := stitchConfig(tc.in); !reflect.DeepEqual(got, want) {
				t.Errorf("stitchConfig =\n%+v\nwant\n%+v", got, want)
			}
		})
	}
}

// TestOptionsValidate drives the consolidated Validate() methods over
// good and bad option sets; RunCNV, Compile and the macroflowd request
// decoder all reject through these same messages.
func TestOptionsValidate(t *testing.T) {
	stitchCases := []struct {
		name string
		o    StitchOptions
		ok   bool
	}{
		{"zero", StitchOptions{}, true},
		{"full", StitchOptions{Seed: 1, Backend: BackendHybrid, Check: CheckSampled,
			Anneal: AnnealOptions{Iterations: 100, Chains: 2}, Analytic: AnalyticOptions{GDIterations: 10}}, true},
		{"bad-backend", StitchOptions{Backend: "bogus"}, false},
		{"bad-check", StitchOptions{Check: CheckLevel(42)}, false},
		{"structured-full", StitchOptions{Backend: BackendPortfolio,
			Anneal:    AnnealOptions{Chains: 4, Iterations: 100, TempLadder: 2.5},
			Analytic:  AnalyticOptions{GDIterations: 64},
			Evo:       EvoOptions{Mu: 2, Lambda: 8, Generations: 10},
			Portfolio: PortfolioOptions{Backends: []string{"anneal", "evo"}, Threshold: 5000}}, true},
		{"negative-anneal-iterations", StitchOptions{Anneal: AnnealOptions{Iterations: -1}}, false},
		{"negative-anneal-chains", StitchOptions{Anneal: AnnealOptions{Chains: -1}}, false},
		{"temp-ladder-below-one", StitchOptions{Anneal: AnnealOptions{TempLadder: 0.5}}, false},
		{"negative-analytic-gd", StitchOptions{Analytic: AnalyticOptions{GDIterations: -1}}, false},
		{"negative-evo-mu", StitchOptions{Evo: EvoOptions{Mu: -1}}, false},
		{"negative-evo-lambda", StitchOptions{Evo: EvoOptions{Lambda: -1}}, false},
		{"negative-evo-generations", StitchOptions{Evo: EvoOptions{Generations: -1}}, false},
		{"negative-threshold", StitchOptions{Portfolio: PortfolioOptions{Threshold: -1}}, false},
		{"empty-portfolio-entrant", StitchOptions{Portfolio: PortfolioOptions{Backends: []string{"anneal", ""}}}, false},
		{"unknown-portfolio-entrant", StitchOptions{Portfolio: PortfolioOptions{Backends: []string{"genetic"}}}, false},
		{"nested-portfolio", StitchOptions{Portfolio: PortfolioOptions{Backends: []string{"portfolio"}}}, false},
	}
	for _, tc := range stitchCases {
		if err := tc.o.Validate(); (err == nil) != tc.ok {
			t.Errorf("StitchOptions %s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	implCases := []struct {
		name string
		o    ImplementOptions
		ok   bool
	}{
		{"zero", ImplementOptions{}, true},
		{"full", ImplementOptions{Workers: 2, Strategy: SearchForceBisect, ProbeWorkers: 2,
			Check: CheckFull}, true},
		{"negative-workers", ImplementOptions{Workers: -1}, false},
		{"negative-probes", ImplementOptions{ProbeWorkers: -1}, false},
		{"bad-strategy", ImplementOptions{Strategy: SearchChoice(42)}, false},
		{"bad-check", ImplementOptions{Check: CheckLevel(-1)}, false},
	}
	for _, tc := range implCases {
		if err := tc.o.Validate(); (err == nil) != tc.ok {
			t.Errorf("ImplementOptions %s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestCompileValidatesOptions: bad options must fail Compile and RunCNV
// before any implementation work, with the Validate() message.
func TestCompileValidatesOptions(t *testing.T) {
	f, _ := NewFlow("xc7z020")
	f.SetSearch(0.9, 0.02, 3.0)
	if _, err := f.Compile(smallDesign(120), MinSweepCF(),
		CompileOptions{Stitch: StitchOptions{Backend: "bogus"}}); err == nil {
		t.Error("Compile accepted an unknown stitch backend")
	}
	if _, err := f.Compile(smallDesign(120), MinSweepCF(),
		CompileOptions{Implement: ImplementOptions{Workers: -1}}); err == nil {
		t.Error("Compile accepted negative Workers")
	}
	if _, err := f.RunCNV(MinSweepCF(),
		CNVOptions{Stitch: StitchOptions{Anneal: AnnealOptions{Iterations: -5}}}); err == nil {
		t.Error("RunCNV accepted a negative iteration budget")
	}
}

// TestRecorderDoesNotPerturbResults: attaching a recorder must leave
// every numeric output bit-identical — observability observes, it never
// feeds back. Also checks the expected span names show up.
func TestRecorderDoesNotPerturbResults(t *testing.T) {
	f, _ := NewFlow("xc7z020")
	f.SetSearch(0.9, 0.02, 3.0)
	opts := func(rec *Recorder) CompileOptions {
		return CompileOptions{
			Stitch:    StitchOptions{Seed: 5, Anneal: AnnealOptions{Iterations: 8000, Chains: 2}, Obs: rec},
			Implement: ImplementOptions{Obs: rec},
		}
	}
	plain, err := f.Compile(smallDesign(120), MinSweepCF(), opts(nil))
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	traced, err := f.Compile(smallDesign(120), MinSweepCF(), opts(rec))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Error("recorder changed the compile result")
	}
	names := map[string]bool{}
	for _, s := range rec.Spans() {
		names[s.Name] = true
	}
	for _, want := range []string{"flow.compile", "implement.block", "synth.elaborate",
		"place.quick", "search.mincf", "oracle.probe", "stitch.chains", "stitch.chain"} {
		if !names[want] {
			t.Errorf("span %q missing (got %v)", want, names)
		}
	}
	if rec.CounterValue("mincf.oracle_runs") == 0 {
		t.Error("mincf.oracle_runs not counted")
	}
	if rec.CounterValue("stitch.moves") == 0 {
		t.Error("stitch.moves not counted")
	}
}
