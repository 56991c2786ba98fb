package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	apiv1 "macroflow/api/v1"
	"macroflow/internal/obs"
)

// promFind returns the first sample matching name and every given
// label key=value pair (supplied as alternating strings).
func promFind(samples []obs.PromSample, name string, kv ...string) (obs.PromSample, bool) {
sample:
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if s.Label(kv[i]) != kv[i+1] {
				continue sample
			}
		}
		return s, true
	}
	return obs.PromSample{}, false
}

func scrapeMetrics(t *testing.T, base string) []obs.PromSample {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParsePrometheusText(data)
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus text: %v\n%s", err, data)
	}
	return samples
}

// TestMetricsEndpoint compiles one job and scrapes GET /metrics: the
// exposition must parse as strict Prometheus text and carry the
// service series — job/queue counters, worker gauges, stage and job
// latency histograms with quantile companions, and the counters
// absorbed from the job's own recorder.
func TestMetricsEndpoint(t *testing.T) {
	s, c := newTestServer(t, serverConfig{Workers: 1})
	s.start()
	defer s.drain()

	final := submitAndWait(t, c, smallReq(1))
	if final.State != apiv1.JobDone {
		t.Fatalf("job state = %s (%v)", final.State, final.Error)
	}
	samples := promFill(t, c.BaseURL)

	mustValue := func(want float64, name string, kv ...string) {
		t.Helper()
		sm, ok := promFind(samples, name, kv...)
		if !ok {
			t.Errorf("series %s %v missing", name, kv)
			return
		}
		if sm.Value != want {
			t.Errorf("%s %v = %g, want %g", name, kv, sm.Value, want)
		}
	}
	mustPresent := func(name string, kv ...string) {
		t.Helper()
		if _, ok := promFind(samples, name, kv...); !ok {
			t.Errorf("series %s %v missing", name, kv)
		}
	}

	mustValue(1, "macroflowd_jobs_total", "state", "done")
	mustValue(1, "macroflowd_submitted_total")
	mustValue(0, "macroflowd_queue_depth")
	mustValue(1, "macroflowd_queue_depth_peak")
	mustValue(1, "macroflowd_workers")
	mustValue(0, "macroflowd_workers_busy")
	mustValue(0, "macroflowd_draining")

	// One job: one latency sample, one queue wait at default priority.
	mustValue(1, "macroflowd_job_latency_ms_count")
	mustValue(1, "macroflowd_job_latency_ms_bucket", "le", "+Inf")
	mustValue(1, "macroflowd_queue_wait_ms_count", "priority", "0")
	for _, q := range []string{"_p50", "_p95", "_p99"} {
		mustPresent("macroflowd_job_latency_ms" + q)
	}

	// Stage latency histograms from the job's span stream.
	for _, stage := range []string{"synth", "place", "mincf", "stitch"} {
		mustPresent("macroflowd_stage_latency_ms_bucket", "stage", stage, "le", "+Inf")
		mustPresent("macroflowd_stage_latency_ms_p95", "stage", stage)
	}

	// Solver health sampled from the search spans: the two blocks were
	// both searched, at least one probe each.
	if sm, ok := promFind(samples, "macroflowd_probes_per_block_count"); !ok || sm.Value < 2 {
		t.Errorf("probes_per_block_count = %v %v, want >= 2", sm.Value, ok)
	}

	// Counters absorbed from the finished job recorder.
	if sm, ok := promFind(samples, "flow_tool_runs"); !ok || sm.Value < 1 {
		t.Errorf("flow_tool_runs = %v %v, want >= 1", sm.Value, ok)
	}

	// The always-on flight ring saw the job's spans.
	if sm, ok := promFind(samples, "macroflowd_flight_spans"); !ok || sm.Value == 0 {
		t.Errorf("flight_spans = %v %v, want > 0", sm.Value, ok)
	}

	// A rejected submission lands in the labeled rejection counter.
	resp, err := http.Post(c.BaseURL+"/v1/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	samples = promFill(t, c.BaseURL)
	mustValue(1, "macroflowd_rejected_total", "reason", "invalid")
}

// promFill scrapes and parses /metrics (named separately from
// scrapeMetrics so test failure lines point at the assertion site).
func promFill(t *testing.T, base string) []obs.PromSample {
	t.Helper()
	return scrapeMetrics(t, base)
}

// chromeTraceDoc is the subset of the trace_event document the tests
// inspect.
type chromeTraceDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func decodeTrace(t *testing.T, data []byte) chromeTraceDoc {
	t.Helper()
	var doc chromeTraceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("not a chrome trace document: %v", err)
	}
	return doc
}

// TestFlightRecorderDump drives the anomaly trigger end to end: with a
// 1ms SLO every real job breaches, so finishing a job must dump the
// flight ring to a Chrome trace file named after the job — and the
// on-demand debug endpoint and /v1/stats telemetry block must agree.
func TestFlightRecorderDump(t *testing.T) {
	dir := t.TempDir()
	s, c := newTestServer(t, serverConfig{Workers: 1, SLOMs: 1, FlightDir: dir, FlightSize: 256})
	s.start()
	defer s.drain()

	// A warm 4000-move smallReq can finish inside the 1ms SLO; a larger
	// move budget makes the breach deterministic instead of a timing race.
	req := smallReq(2)
	req.Stitch.Iterations = 400000
	final := submitAndWait(t, c, req)
	if final.State != apiv1.JobDone {
		t.Fatalf("job state = %s (%v)", final.State, final.Error)
	}

	path := filepath.Join(dir, "macroflowd-flight-"+final.ID+".trace.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("anomaly dump missing: %v", err)
	}
	doc := decodeTrace(t, data)
	spans, tagged := 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X", "i":
			spans++
			if job, _ := ev.Args["job"].(string); job == final.ID {
				tagged++
			}
		case "M":
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	if spans == 0 {
		t.Fatal("dump contains no spans")
	}
	if tagged != spans {
		t.Errorf("%d/%d spans tagged with job=%s", tagged, spans, final.ID)
	}

	// The debug endpoint serves the same ring on demand.
	resp, err := http.Get(c.BaseURL + "/v1/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	live, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeTrace(t, live); len(got.TraceEvents) == 0 {
		t.Error("debug endpoint returned an empty trace")
	}

	// /v1/stats surfaces the breach and the dump.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tel := st.Telemetry
	if tel == nil {
		t.Fatal("stats carry no telemetry block")
	}
	if tel.SLOBreaches < 1 || tel.FlightDumps < 1 {
		t.Errorf("breaches=%d dumps=%d, want >= 1 each", tel.SLOBreaches, tel.FlightDumps)
	}
	if tel.SLOMs != 1 {
		t.Errorf("sloMs = %d, want 1", tel.SLOMs)
	}
	if tel.JobLatency.Count != 1 || tel.JobLatency.P50 <= 0 {
		t.Errorf("jobLatency = %+v, want one positive sample", tel.JobLatency)
	}
	if tel.FlightSpans == 0 {
		t.Error("flightSpans = 0, want ring populated")
	}
	if len(tel.Stages) == 0 {
		t.Error("no per-stage latency summaries")
	}
}

// TestFlightRecorderDisabled: a negative FlightSize turns the ring off —
// no dumps even on breach, and the debug endpoint serves an empty trace.
func TestFlightRecorderDisabled(t *testing.T) {
	dir := t.TempDir()
	s, c := newTestServer(t, serverConfig{Workers: 1, SLOMs: 1, FlightDir: dir, FlightSize: -1})
	s.start()
	defer s.drain()

	// Same deterministic-breach budget as TestFlightRecorderDump.
	req := smallReq(3)
	req.Stitch.Iterations = 400000
	final := submitAndWait(t, c, req)
	if final.State != apiv1.JobDone {
		t.Fatalf("job state = %s (%v)", final.State, final.Error)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("dump written with the ring disabled: %v", entries)
	}
	resp, err := http.Get(c.BaseURL + "/v1/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeTrace(t, data); len(got.TraceEvents) != 0 {
		// A disabled ring still renders a valid, span-free document
		// (metadata-only events are fine).
		for _, ev := range got.TraceEvents {
			if ev.Ph != "M" {
				t.Errorf("disabled ring served span %q", ev.Name)
			}
		}
	}

	// The SLO trigger still counts breaches without a ring to dump.
	samples := scrapeMetrics(t, c.BaseURL)
	if sm, ok := promFind(samples, "macroflowd_slo_breaches_total"); !ok || sm.Value < 1 {
		t.Errorf("slo_breaches_total = %v %v, want >= 1", sm.Value, ok)
	}
	if _, ok := promFind(samples, "macroflowd_flight_dumps_total"); ok {
		t.Error("flight_dumps_total present with the ring disabled")
	}
}

// TestStageOf pins the span→stage attribution table.
func TestStageOf(t *testing.T) {
	for name, want := range map[string]string{
		"search.mincf":       "mincf",
		"search.estimate":    "mincf",
		"search.constant":    "mincf",
		"stitch.chains":      "stitch",
		"stitch.analytic":    "stitch",
		"oracle.check":       "oracle",
		"place.quick":        "place",
		"place.detail":       "place",
		"stitch.chain":       "", // child of stitch.chains, already counted
		"stitch.analytic.iter": "",
		"oracle.probe":       "", // search probe, not an audit
		"synth.elaborate":    "synth",
		"synth.optimize":     "synth",
		"flow.compile":       "",
	} {
		if got := stageOf(name); got != want {
			t.Errorf("stageOf(%q) = %q, want %q", name, got, want)
		}
	}
}
