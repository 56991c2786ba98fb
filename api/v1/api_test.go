package apiv1

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"macroflow"
)

func fullRequest() *CompileRequest {
	return &CompileRequest{
		Device: "xc7z045",
		Design: DesignSpec{
			Blocks: []BlockSpec{
				{Name: "b0", Components: []ComponentSpec{
					{Kind: CompShiftRegs, Count: 4, Length: 8, ControlSets: 2, Fanin: 4},
					{Kind: CompLogic, LUTs: 64, Fanin: 4, Depth: 2},
				}},
				{Name: "b1", Components: []ComponentSpec{
					{Kind: CompMemory, Width: 16, Depth: 512},
				}},
			},
			Instances: []InstanceSpec{
				{Name: "b0_0", Block: 0},
				{Name: "b0_1", Block: 0},
				{Name: "b1_0", Block: 1},
			},
			Nets: []NetSpec{{From: 0, To: 2, Width: 8}},
		},
		Mode:   ModeSpec{Kind: "constant", CF: 1.5},
		Search: &SearchWindow{Start: 0.9, Step: 0.02, Max: 2.5},
		Stitch: StitchParams{Seed: 7, Iterations: 9000, Chains: 2, AdaptiveStop: true,
			TraceEvery: 128, Backend: "hybrid", GDIterations: 64, Check: "sampled",
			Anneal:    &AnnealParams{Chains: 2, Iterations: 9000, TempLadder: 2.5},
			Analytic:  &AnalyticParams{GDIterations: 64},
			Evo:       &EvoParams{Mu: 2, Lambda: 8, Generations: 10},
			Portfolio: &PortfolioParams{Backends: []string{"anneal", "evo"}, Threshold: 4000}},
		Implement: ImplementParams{Workers: 2, Strategy: "bisect", ProbeWorkers: 2, Check: "off"},
		Priority:  3,
	}
}

// TestRequestRoundTrip: encode → strict decode must reproduce the
// request exactly, through every nested field.
func TestRequestRoundTrip(t *testing.T) {
	want := fullRequest()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestDecodeRequestRejectsUnknownFields: a typo'd option must fail
// loudly with the typed bad_request error, not silently compile with
// defaults — at top level and inside nested objects alike.
func TestDecodeRequestRejectsUnknownFields(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"top-level", `{"design":{"builtin":"cnvW1A1"},"iteratons":5}`},
		{"nested-stitch", `{"design":{"builtin":"cnvW1A1"},"stitch":{"sede":7}}`},
		{"nested-component", `{"design":{"blocks":[{"name":"b","components":[{"kind":"logic","lust":4}]}]}}`},
		{"nested-anneal", `{"design":{"builtin":"cnvW1A1"},"stitch":{"anneal":{"chians":2}}}`},
		{"nested-evo", `{"design":{"builtin":"cnvW1A1"},"stitch":{"evo":{"mu":2,"lamda":8}}}`},
		{"nested-portfolio", `{"design":{"builtin":"cnvW1A1"},"stitch":{"portfolio":{"bakends":["anneal"]}}}`},
		{"trailing-data", `{"design":{"builtin":"cnvW1A1"}} {"design":{"builtin":"cnvW1A1"}}`},
		{"malformed", `{"design":`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeRequest(strings.NewReader(tc.body))
			if err == nil {
				t.Fatal("decode accepted a bad body")
			}
			var ae *Error
			if !errors.As(err, &ae) || ae.Code != ErrBadRequest {
				t.Errorf("error = %v, want *Error with code %q", err, ErrBadRequest)
			}
		})
	}
	// The happy path still decodes.
	if _, err := DecodeRequest(strings.NewReader(`{"design":{"builtin":"cnvW1A1"}}`)); err != nil {
		t.Errorf("valid body rejected: %v", err)
	}
}

// TestRequestValidate covers the wire-level invariants.
func TestRequestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*CompileRequest)
		ok     bool
	}{
		{"valid", func(r *CompileRequest) {}, true},
		{"builtin", func(r *CompileRequest) { r.Design = DesignSpec{Builtin: BuiltinCNVW1A1} }, true},
		{"bad-device", func(r *CompileRequest) { r.Device = "xc9k" }, false},
		{"bad-builtin", func(r *CompileRequest) { r.Design = DesignSpec{Builtin: "alexnet"} }, false},
		{"builtin-plus-blocks", func(r *CompileRequest) { r.Design.Builtin = BuiltinCNVW1A1 }, false},
		{"no-blocks", func(r *CompileRequest) { r.Design.Blocks = nil }, false},
		{"no-instances", func(r *CompileRequest) { r.Design.Instances = nil }, false},
		{"bad-component-kind", func(r *CompileRequest) { r.Design.Blocks[0].Components[0].Kind = "flipflops" }, false},
		{"instance-out-of-range", func(r *CompileRequest) { r.Design.Instances[0].Block = 9 }, false},
		{"net-out-of-range", func(r *CompileRequest) { r.Design.Nets[0].To = 99 }, false},
		{"bad-mode", func(r *CompileRequest) { r.Mode.Kind = "oracle" }, false},
		{"constant-without-cf", func(r *CompileRequest) { r.Mode = ModeSpec{Kind: "constant"} }, false},
		{"bad-search-window", func(r *CompileRequest) { r.Search = &SearchWindow{Start: 2, Step: 0.02, Max: 1} }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := fullRequest()
			tc.mutate(req)
			err := req.Validate()
			if (err == nil) != tc.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, tc.ok)
			}
			if err != nil {
				var ae *Error
				if !errors.As(err, &ae) {
					t.Errorf("validation error is %T, want *Error", err)
				}
			}
		})
	}
}

// TestStitchParamsFlatPrecedence: the flat iterations/chains/
// gdIterations wire fields fill the Anneal and Analytic sub-structs,
// and a non-zero sub-object field wins over its flat counterpart,
// field by field.
func TestStitchParamsFlatPrecedence(t *testing.T) {
	cases := []struct {
		name   string
		in     StitchParams
		anneal macroflow.AnnealOptions
		gd     int
	}{
		{name: "zero"},
		{name: "flat-only", in: StitchParams{Iterations: 500, Chains: 3, GDIterations: 64},
			anneal: macroflow.AnnealOptions{Iterations: 500, Chains: 3}, gd: 64},
		{name: "structured-only", in: StitchParams{Anneal: &AnnealParams{Iterations: 800, Chains: 2, TempLadder: 2},
			Analytic: &AnalyticParams{GDIterations: 32}},
			anneal: macroflow.AnnealOptions{Iterations: 800, Chains: 2, TempLadder: 2}, gd: 32},
		{name: "structured-wins-conflict", in: StitchParams{Iterations: 9999, Chains: 9, GDIterations: 999,
			Anneal: &AnnealParams{Iterations: 800, Chains: 2}, Analytic: &AnalyticParams{GDIterations: 32}},
			anneal: macroflow.AnnealOptions{Iterations: 800, Chains: 2}, gd: 32},
		{name: "flat-fills-unset-structured-fields", in: StitchParams{Iterations: 500, Chains: 3, GDIterations: 64,
			Anneal: &AnnealParams{TempLadder: 2}, Analytic: &AnalyticParams{}},
			anneal: macroflow.AnnealOptions{Iterations: 500, Chains: 3, TempLadder: 2}, gd: 64},
		{name: "mixed-per-field", in: StitchParams{Iterations: 500, Chains: 3,
			Anneal: &AnnealParams{Chains: 2}},
			anneal: macroflow.AnnealOptions{Iterations: 500, Chains: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := tc.in.Options()
			if err != nil {
				t.Fatal(err)
			}
			if o.Anneal != tc.anneal {
				t.Errorf("Anneal = %+v, want %+v", o.Anneal, tc.anneal)
			}
			if o.Analytic.GDIterations != tc.gd {
				t.Errorf("Analytic.GDIterations = %d, want %d", o.Analytic.GDIterations, tc.gd)
			}
		})
	}
}

// TestParamsOptions: the wire params must map onto the structured
// options field for field, and reject the library's own invalid values
// through the same Validate() messages.
func TestParamsOptions(t *testing.T) {
	so, err := fullRequest().Stitch.Options()
	if err != nil {
		t.Fatal(err)
	}
	want := macroflow.StitchOptions{Seed: 7, AdaptiveStop: true,
		TraceEvery: 128, Backend: "hybrid", Check: macroflow.CheckSampled,
		Anneal:    macroflow.AnnealOptions{Chains: 2, Iterations: 9000, TempLadder: 2.5},
		Analytic:  macroflow.AnalyticOptions{GDIterations: 64},
		Evo:       macroflow.EvoOptions{Mu: 2, Lambda: 8, Generations: 10},
		Portfolio: macroflow.PortfolioOptions{Backends: []string{"anneal", "evo"}, Threshold: 4000}}
	if !reflect.DeepEqual(so, want) {
		t.Errorf("StitchParams.Options() = %+v, want %+v", so, want)
	}
	if err := so.Validate(); err != nil {
		t.Errorf("converted options failed the library's Validate: %v", err)
	}
	if _, err := (StitchParams{Check: "everything"}).Options(); err == nil {
		t.Error("bad check level accepted")
	}
	if _, err := (StitchParams{Iterations: -1, Anneal: &AnnealParams{Iterations: 500}}).Options(); err == nil {
		t.Error("negative flat iterations accepted behind a sub-object value")
	}

	im, err := fullRequest().Implement.Options()
	if err != nil {
		t.Fatal(err)
	}
	if im.Workers != 2 || im.Strategy != macroflow.SearchForceBisect || im.ProbeWorkers != 2 {
		t.Errorf("ImplementParams.Options() = %+v", im)
	}
	for spelling, want := range map[string]macroflow.SearchChoice{
		"": macroflow.SearchFlowDefault, "default": macroflow.SearchFlowDefault,
		"linear": macroflow.SearchForceLinear, "bisect": macroflow.SearchForceBisect,
	} {
		im, err := (ImplementParams{Strategy: spelling}).Options()
		if err != nil {
			t.Fatalf("strategy %q: %v", spelling, err)
		}
		if im.Strategy != want {
			t.Errorf("strategy %q = %v, want %v", spelling, im.Strategy, want)
		}
	}
	if _, err := (ImplementParams{Strategy: "quantum"}).Options(); err == nil {
		t.Error("bad strategy accepted")
	}
}

// TestStitchSummaryPortfolio: a portfolio run's cross-backend report
// must survive the library → wire mapping and a JSON round trip (the
// additive-within-v1 portfolio object of the result envelope).
func TestStitchSummaryPortfolio(t *testing.T) {
	trace := []macroflow.CostPoint{{Iter: 256, Cost: 500}, {Iter: 512, Cost: 123.5}}
	rep := &macroflow.StitchReport{
		Backend: "portfolio", Placed: 10, FinalCost: 123.5, Trace: trace,
		Portfolio: &macroflow.PortfolioReport{
			Winner:    1,
			Threshold: 4000,
			Entrants: []macroflow.PortfolioEntrant{
				{ChainReport: macroflow.ChainReport{Chain: 0, Moves: 100, FinalCost: 200, Trace: trace},
					Backend: "anneal", ThresholdIter: -1, Iterations: 100, Unplaced: 1},
				{ChainReport: macroflow.ChainReport{Chain: 1, Moves: 90, FinalCost: 123.5, Trace: trace},
					Backend: "evo", Winner: true, ThresholdIter: 256, Iterations: 90},
			},
		},
	}
	sum := stitchSummary(rep)
	if sum.Portfolio == nil || sum.Portfolio.Winner != 1 || len(sum.Portfolio.Entrants) != 2 {
		t.Fatalf("wire portfolio = %+v", sum.Portfolio)
	}
	data, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	var got StitchSummary
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, sum) {
		t.Errorf("portfolio summary round trip diverged:\n got %+v\nwant %+v", &got, sum)
	}
	if got.Portfolio.Entrants[1].Backend != "evo" || !got.Portfolio.Entrants[1].Winner {
		t.Errorf("winner entrant lost its identity: %+v", got.Portfolio.Entrants[1])
	}
	// Non-portfolio reports must not grow a portfolio object.
	if s := stitchSummary(&macroflow.StitchReport{Backend: "anneal"}); s.Portfolio != nil {
		t.Error("anneal summary attached a portfolio report")
	}
}

// TestBuildDesign: the wire design must build a macroflow.Design with
// the right shape, and InstanceCounts must tally per block type.
func TestBuildDesign(t *testing.T) {
	req := fullRequest()
	d, err := req.Design.BuildDesign()
	if err != nil {
		t.Fatal(err)
	}
	if d.NumTypes() != 2 || d.NumInstances() != 3 {
		t.Errorf("built design has %d types / %d instances, want 2 / 3", d.NumTypes(), d.NumInstances())
	}
	if got := req.Design.InstanceCounts(); !reflect.DeepEqual(got, []int{2, 1}) {
		t.Errorf("InstanceCounts() = %v, want [2 1]", got)
	}
	if (&DesignSpec{Builtin: BuiltinCNVW1A1}).InstanceCounts() != nil {
		t.Error("builtin designs must report nil instance counts")
	}
	if _, err := (&DesignSpec{Builtin: BuiltinCNVW1A1}).BuildDesign(); err == nil {
		t.Error("builtin designs must not build client-side")
	}
}

// TestErrorEnvelopeShape: the typed error must round-trip through its
// envelope and render a stable message.
func TestErrorEnvelopeShape(t *testing.T) {
	e := &Error{Code: ErrQueueFull, Message: "compile queue is full (64 jobs)"}
	data, _ := json.Marshal(ErrorEnvelope{Error: e})
	var env ErrorEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(env.Error, e) {
		t.Errorf("envelope round trip = %+v, want %+v", env.Error, e)
	}
	if got, want := e.Error(), "macroflowd: queue_full: compile queue is full (64 jobs)"; got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
}
