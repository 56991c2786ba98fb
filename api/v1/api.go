// Package apiv1 is the versioned wire contract of the macroflowd
// compile service (cmd/macroflowd): request/response structs with
// explicit JSON tags, a typed error envelope, and a small Go client.
//
// The contract mirrors the library's structured options surface —
// StitchParams maps onto macroflow.StitchOptions and ImplementParams
// onto macroflow.ImplementOptions, field for field. The flat stitch
// fields (iterations/chains/gdIterations) predate the per-backend
// sub-objects and fill the same Anneal/Analytic sub-struct fields; the
// anneal/analytic/evo/portfolio sub-objects map onto the sub-structs
// and a non-zero sub-object field wins on conflict. Compatibility policy:
// within v1, fields are only ever added (always with omitempty
// semantics on responses, as the sub-objects and the result's
// portfolio report were); renames, removals or meaning changes require
// a new version prefix.
// Servers decode requests strictly (unknown fields are rejected, so a
// typo'd option fails loudly instead of being silently ignored);
// clients decode responses leniently (unknown fields are ignored, so
// old clients keep working against newer v1 servers).
package apiv1

import (
	"encoding/json"
	"fmt"
	"io"
)

// Version is the contract version this package implements; PathPrefix
// is the URL prefix every endpoint lives under.
const (
	Version    = "v1"
	PathPrefix = "/v1"
)

// Job states reported by JobStatus.State.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
)

// Error codes used in the typed error envelope.
const (
	ErrBadRequest     = "bad_request"     // malformed JSON, unknown fields
	ErrInvalidOptions = "invalid_options" // options the flow's Validate rejects
	ErrQueueFull      = "queue_full"      // admission control: bounded queue at capacity
	ErrDraining       = "draining"        // server is draining, not admitting
	ErrNotFound       = "not_found"       // unknown job ID or route
	ErrNotFinished    = "not_finished"    // result requested before the job finished
	ErrNotCancelable  = "not_cancelable"  // cancel on a running or finished job
	ErrUnsupported    = "unsupported"     // e.g. estimator mode with no estimator loaded
	ErrInternal       = "internal"        // compile failure or server bug
)

// Error is the typed error payload; it travels inside ErrorEnvelope
// and doubles as the Go error the client returns.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e == nil {
		return "<nil>"
	}
	return fmt.Sprintf("macroflowd: %s: %s", e.Code, e.Message)
}

// ErrorEnvelope is the body of every non-2xx response.
type ErrorEnvelope struct {
	Error *Error `json:"error"`
}

// CompileRequest submits one compile job.
type CompileRequest struct {
	// Device is the target fabric: "xc7z020" (the default) or
	// "xc7z045".
	Device string `json:"device,omitempty"`
	// Design is the block design to compile: either the builtin
	// cnvW1A1 case study or a custom block/instance/net list.
	Design DesignSpec `json:"design"`
	// Mode selects the correction-factor policy (minsweep default).
	Mode ModeSpec `json:"mode,omitempty"`
	// Search overrides the CF search window (flow defaults otherwise;
	// the builtin cnvW1A1 design defaults to the paper's 0.5/0.02/3.0).
	Search *SearchWindow `json:"search,omitempty"`
	// Stitch mirrors macroflow.StitchOptions.
	Stitch StitchParams `json:"stitch,omitempty"`
	// Implement mirrors macroflow.ImplementOptions.
	Implement ImplementParams `json:"implement,omitempty"`
	// Partition mirrors macroflow.PartitionOptions (multi-region
	// compilation; absent = single-device). Added within v1.
	Partition *PartitionParams `json:"partition,omitempty"`
	// SkipStitch implements the blocks only.
	SkipStitch bool `json:"skipStitch,omitempty"`
	// Priority orders admission: higher-priority jobs start first;
	// ties run in submission order. 0 is the default priority.
	Priority int `json:"priority,omitempty"`
}

// DesignSpec names a design: exactly one of Builtin or Blocks must be
// set.
type DesignSpec struct {
	// Builtin selects a built-in workload; "cnvW1A1" is the paper's
	// partitioned CNN (74 unique block types, 175 instances).
	Builtin string `json:"builtin,omitempty"`
	// Blocks are the unique block types of a custom design.
	Blocks []BlockSpec `json:"blocks,omitempty"`
	// Instances replicate block types; Block indexes into Blocks.
	Instances []InstanceSpec `json:"instances,omitempty"`
	// Nets connect instances; From/To index into Instances.
	Nets []NetSpec `json:"nets,omitempty"`
}

// BlockSpec is one unique block type, assembled from the component
// library exactly like macroflow.Spec's builder methods.
type BlockSpec struct {
	Name       string          `json:"name"`
	Components []ComponentSpec `json:"components"`
}

// Component kinds accepted in ComponentSpec.Kind, mirroring the Spec
// builder methods one to one.
const (
	CompShiftRegs         = "shiftregs"  // Spec.ShiftRegs(count, length, controlSets, fanin)
	CompSRLs              = "srls"       // Spec.SRLs(count, length, controlSets)
	CompMemory            = "memory"     // Spec.Memory(width, depth)
	CompDistributedMemory = "distmem"    // Spec.DistributedMemory(width, depth)
	CompSumOfSquares      = "sumsquares" // Spec.SumOfSquares(width, terms)
	CompLFSRs             = "lfsrs"      // Spec.LFSRs(count, width, useCarry, useSRL)
	CompLogic             = "logic"      // Spec.Logic(luts, fanin, depth)
)

// ComponentSpec is one component of a block; Kind selects which of the
// parameter fields apply (see the Comp* constants).
type ComponentSpec struct {
	Kind        string `json:"kind"`
	Count       int    `json:"count,omitempty"`
	Length      int    `json:"length,omitempty"`
	ControlSets int    `json:"controlSets,omitempty"`
	Fanin       int    `json:"fanin,omitempty"`
	Width       int    `json:"width,omitempty"`
	Depth       int    `json:"depth,omitempty"`
	Terms       int    `json:"terms,omitempty"`
	LUTs        int    `json:"luts,omitempty"`
	UseCarry    bool   `json:"useCarry,omitempty"`
	UseSRL      bool   `json:"useSRL,omitempty"`
}

// InstanceSpec is one occurrence of a block type.
type InstanceSpec struct {
	Name  string `json:"name"`
	Block int    `json:"block"`
}

// NetSpec is a width-bit stream between two instances.
type NetSpec struct {
	From  int `json:"from"`
	To    int `json:"to"`
	Width int `json:"width,omitempty"`
}

// ModeSpec selects the correction-factor policy.
type ModeSpec struct {
	// Kind is "minsweep" (default), "constant" or "estimator" (needs
	// an estimator loaded into the server).
	Kind string `json:"kind,omitempty"`
	// CF is the fixed correction factor for Kind "constant".
	CF float64 `json:"cf,omitempty"`
}

// SearchWindow overrides the minimal-CF search window.
type SearchWindow struct {
	Start float64 `json:"start"`
	Step  float64 `json:"step"`
	Max   float64 `json:"max"`
}

// StitchParams mirrors macroflow.StitchOptions (the structured surface;
// recorder, progress callback and check level travel as wire-friendly
// spellings). The per-backend sub-objects (anneal/analytic/evo/
// portfolio) mirror the library's sub-structs and were added within v1;
// the flat iterations/chains/gdIterations fields predate them and fill
// the same Anneal/Analytic fields, so old clients keep working; a
// non-zero sub-object field wins over its flat counterpart.
type StitchParams struct {
	Seed         int64            `json:"seed,omitempty"`
	Iterations   int              `json:"iterations,omitempty"`
	Chains       int              `json:"chains,omitempty"`
	AdaptiveStop bool             `json:"adaptiveStop,omitempty"`
	TraceEvery   int              `json:"traceEvery,omitempty"`
	Backend      string           `json:"backend,omitempty"`      // anneal (default), analytic, hybrid, evo, portfolio
	GDIterations int              `json:"gdIterations,omitempty"` // analytic/hybrid gradient-descent budget
	Check        string           `json:"check,omitempty"`        // off (default), sampled, full
	Anneal       *AnnealParams    `json:"anneal,omitempty"`
	Analytic     *AnalyticParams  `json:"analytic,omitempty"`
	Evo          *EvoParams       `json:"evo,omitempty"`
	Portfolio    *PortfolioParams `json:"portfolio,omitempty"`
}

// AnnealParams mirrors macroflow.AnnealOptions.
type AnnealParams struct {
	Chains     int     `json:"chains,omitempty"`
	Iterations int     `json:"iterations,omitempty"`
	TempLadder float64 `json:"tempLadder,omitempty"`
}

// AnalyticParams mirrors macroflow.AnalyticOptions.
type AnalyticParams struct {
	GDIterations int `json:"gdIterations,omitempty"`
}

// EvoParams mirrors macroflow.EvoOptions.
type EvoParams struct {
	Mu          int `json:"mu,omitempty"`
	Lambda      int `json:"lambda,omitempty"`
	Generations int `json:"generations,omitempty"`
}

// PortfolioParams mirrors macroflow.PortfolioOptions.
type PortfolioParams struct {
	Backends  []string `json:"backends,omitempty"`
	Threshold float64  `json:"threshold,omitempty"`
}

// PartitionParams mirrors macroflow.PartitionOptions.
type PartitionParams struct {
	Shards      int     `json:"shards"`
	Backend     string  `json:"backend,omitempty"` // greedy (default), evo
	CutPenalty  float64 `json:"cutPenalty,omitempty"`
	Refinements int     `json:"refinements,omitempty"`
}

// ImplementParams mirrors macroflow.ImplementOptions.
type ImplementParams struct {
	Workers      int    `json:"workers,omitempty"`
	Strategy     string `json:"strategy,omitempty"` // default, linear, bisect
	ProbeWorkers int    `json:"probeWorkers,omitempty"`
	Check        string `json:"check,omitempty"` // off (default), sampled, full
}

// JobStatus is one job's public state.
type JobStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Priority int    `json:"priority,omitempty"`
	// QueuePos is the number of jobs ahead in the queue (0 when not
	// queued).
	QueuePos int `json:"queuePos,omitempty"`
	// SubmittedMs/StartedMs/FinishedMs are Unix milliseconds (0 when
	// the stage has not happened yet).
	SubmittedMs int64 `json:"submittedMs,omitempty"`
	StartedMs   int64 `json:"startedMs,omitempty"`
	FinishedMs  int64 `json:"finishedMs,omitempty"`
	// Error holds the failure for state "failed".
	Error *Error `json:"error,omitempty"`
}

// CompileResult is the wire form of a finished compile — the common
// shape of macroflow.CompileResult and macroflow.CNVResult.
type CompileResult struct {
	Blocks []BlockResult `json:"blocks"`
	// Instances maps Blocks[i] to its instance count (builtin designs
	// and custom designs alike).
	Instances []int `json:"instances,omitempty"`
	// ToolRuns sums the place-and-route attempts of this job (cache
	// hits contribute zero).
	ToolRuns int `json:"toolRuns"`
	// FirstRunRate is the fraction of estimated blocks feasible on the
	// first attempt (estimator mode on the builtin design only).
	FirstRunRate float64    `json:"firstRunRate,omitempty"`
	CacheHits    int        `json:"cacheHits"`
	Cache        CacheStats `json:"cache"`
	// Stitch is nil for skipStitch jobs. For partitioned jobs it is the
	// aggregate over all shards.
	Stitch *StitchSummary `json:"stitch,omitempty"`
	// Partition is the per-member breakdown of a partitioned job — nil
	// unless the request set partition.shards. Added within v1.
	Partition *PartitionSummary `json:"partition,omitempty"`
	// Verify is nil unless a check level was requested.
	Verify *VerifySummary `json:"verify,omitempty"`
}

// PartitionSummary mirrors macroflow.PartitionReport.
type PartitionSummary struct {
	Backend    string          `json:"backend"`
	Members    []MemberSummary `json:"members"`
	CutNets    int             `json:"cutNets"`
	CutWeight  float64         `json:"cutWeight"`
	CutPenalty float64         `json:"cutPenalty"`
	CutCost    float64         `json:"cutCost"`
	TotalCost  float64         `json:"totalCost"`
}

// MemberSummary mirrors macroflow.MemberReport.
type MemberSummary struct {
	Name        string         `json:"name"`
	Instances   int            `json:"instances"`
	UsedSlices  int            `json:"usedSlices"`
	CapSlices   int            `json:"capSlices"`
	Utilization float64        `json:"utilization"`
	Stitch      *StitchSummary `json:"stitch,omitempty"`
}

// BlockResult mirrors macroflow.ModuleResult.
type BlockResult struct {
	Name          string  `json:"name"`
	CF            float64 `json:"cf"`
	ToolRuns      int     `json:"toolRuns"`
	EstSlices     int     `json:"estSlices"`
	UsedSlices    int     `json:"usedSlices"`
	PBlock        string  `json:"pblock"`
	LongestPathNS float64 `json:"longestPathNs"`
	Irregularity  float64 `json:"irregularity"`
	MaxFanout     int     `json:"maxFanout"`
	ControlSets   int     `json:"controlSets"`
	CarryChains   int     `json:"carryChains"`
}

// CacheStats mirrors macroflow.CacheStats.
type CacheStats struct {
	MemHits          int `json:"memHits"`
	DiskHits         int `json:"diskHits"`
	SingleflightHits int `json:"singleflightHits"`
	Misses           int `json:"misses"`
	Stores           int `json:"stores"`
	Negatives        int `json:"negatives"`
}

// StitchSummary mirrors macroflow.StitchReport (per-chain telemetry
// and the cost trace included; the ASCII map is omitted unless small).
type StitchSummary struct {
	Backend         string        `json:"backend"`
	GDIters         int           `json:"gdIters,omitempty"`
	Placed          int           `json:"placed"`
	Unplaced        int           `json:"unplaced"`
	FinalCost       float64       `json:"finalCost"`
	ConvergenceIter int           `json:"convergenceIter"`
	IllegalMoves    int           `json:"illegalMoves"`
	Iterations      int           `json:"iterations"`
	Exchanges       int           `json:"exchanges,omitempty"`
	FreeTiles       int           `json:"freeTiles"`
	LargestFreeRect int           `json:"largestFreeRect"`
	TraceEvery      int           `json:"traceEvery"`
	Map             string        `json:"map,omitempty"`
	Trace           []CostPoint   `json:"trace,omitempty"`
	Chains          []ChainReport `json:"chains,omitempty"`
	// Portfolio carries the cross-backend race telemetry of portfolio
	// runs (absent otherwise). Added within v1.
	Portfolio *PortfolioReport `json:"portfolio,omitempty"`
}

// PortfolioReport mirrors macroflow.PortfolioReport.
type PortfolioReport struct {
	Winner    int                `json:"winner"`
	Threshold float64            `json:"threshold,omitempty"`
	Entrants  []PortfolioEntrant `json:"entrants"`
}

// PortfolioEntrant mirrors macroflow.PortfolioEntrant: a ChainReport
// (the entrant as a pseudo-chain) plus the racing outcome.
type PortfolioEntrant struct {
	ChainReport
	Backend       string `json:"backend"`
	Winner        bool   `json:"winner,omitempty"`
	ThresholdIter int    `json:"thresholdIter"`
	Iterations    int    `json:"iterations"`
	Unplaced      int    `json:"unplaced,omitempty"`
}

// CostPoint mirrors macroflow.CostPoint.
type CostPoint struct {
	Iter int     `json:"iter"`
	Cost float64 `json:"cost"`
}

// ChainReport mirrors macroflow.ChainReport.
type ChainReport struct {
	Chain        int         `json:"chain"`
	InitTemp     float64     `json:"initTemp"`
	Moves        int         `json:"moves"`
	Accepts      int         `json:"accepts"`
	IllegalMoves int         `json:"illegalMoves"`
	Exchanges    int         `json:"exchanges,omitempty"`
	FinalCost    float64     `json:"finalCost"`
	Trace        []CostPoint `json:"trace,omitempty"`
}

// VerifySummary is the oracle cross-check outcome.
type VerifySummary struct {
	Checks     int         `json:"checks"`
	Violations []Violation `json:"violations,omitempty"`
}

// Violation mirrors one broken contract found by the oracle.
type Violation struct {
	Checker string `json:"checker"`
	Subject string `json:"subject"`
	Detail  string `json:"detail"`
}

// Event is one entry of a job's streaming progress feed (JSONL over
// GET /v1/jobs/{id}/events). Seq is dense per job, so a reconnecting
// client resumes with ?from=<lastSeq+1>.
type Event struct {
	Seq int `json:"seq"`
	// Type is "state" (job state change), "span" (one finished obs
	// span, the span→event bridge) or "progress" (a stitcher progress
	// sample).
	Type string `json:"type"`
	// Name is the state, span name, or "stitch" for progress samples.
	Name string `json:"name"`
	// AtMs is the event's wall-clock Unix milliseconds.
	AtMs int64 `json:"atMs,omitempty"`
	// DurUs is the span's duration in microseconds (spans only).
	DurUs int64 `json:"durUs,omitempty"`
	// Chain/Iter/Cost carry stitcher progress samples.
	Chain int     `json:"chain,omitempty"`
	Iter  int     `json:"iter,omitempty"`
	Cost  float64 `json:"cost,omitempty"`
	// Attrs carries span attributes (spans only).
	Attrs map[string]any `json:"attrs,omitempty"`
}

// ServerStats is the GET /v1/stats payload.
type ServerStats struct {
	Version  string `json:"version"`
	Device   string `json:"device"`
	Workers  int    `json:"workers"`
	Draining bool   `json:"draining"`

	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Rejected  int64 `json:"rejected"`
	QueueLen  int   `json:"queueLen"`
	Running   int   `json:"running"`

	// Cache is the shared block cache's process-lifetime counters;
	// Persistent* are the disk layer's cross-process lifetime counters.
	Cache               CacheStats `json:"cache"`
	PersistentHits      uint64     `json:"persistentHits,omitempty"`
	PersistentMisses    uint64     `json:"persistentMisses,omitempty"`
	PersistentStores    uint64     `json:"persistentStores,omitempty"`
	PersistentNegatives uint64     `json:"persistentNegatives,omitempty"`

	// Audit summarizes the continuous background oracle audits.
	Audit AuditStats `json:"audit"`

	// Telemetry is the service-telemetry snapshot (queue depth, worker
	// utilization, latency quantiles, flight recorder state).
	Telemetry *TelemetryStats `json:"telemetry,omitempty"`
}

// LatencySummary condenses one latency histogram: sample count, the
// interpolated p50/p95/p99 quantiles and the observed maximum, all in
// milliseconds.
type LatencySummary struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// TelemetryStats is the service-telemetry section of GET /v1/stats —
// the same data GET /metrics exposes in Prometheus text, condensed for
// JSON consumers. Added within v1 (omitempty on the parent), so old
// clients are unaffected.
type TelemetryStats struct {
	// UptimeMs is the server's age in milliseconds.
	UptimeMs int64 `json:"uptimeMs"`
	// QueueDepth / QueueDepthPeak are the current and high-water queued
	// job counts.
	QueueDepth     int `json:"queueDepth"`
	QueueDepthPeak int `json:"queueDepthPeak"`
	// WorkersBusy is the number of workers currently running a job.
	WorkersBusy int `json:"workersBusy"`
	// SLOMs echoes the configured per-job latency objective (0 = none);
	// SLOBreaches counts jobs that missed it or finished with oracle
	// violations.
	SLOMs       int64 `json:"sloMs,omitempty"`
	SLOBreaches int64 `json:"sloBreaches"`
	// FlightSpans is the number of spans currently buffered in the
	// flight recorder ring; FlightDumps counts anomaly trace dumps
	// written so far.
	FlightSpans int   `json:"flightSpans"`
	FlightDumps int64 `json:"flightDumps"`
	// JobLatency summarizes submit→finish latency across finished jobs;
	// Stages breaks compile time down by flow stage (synth, place,
	// mincf, stitch, oracle).
	JobLatency LatencySummary            `json:"jobLatency"`
	Stages     map[string]LatencySummary `json:"stages,omitempty"`
}

// AuditStats summarizes the daemon's background -check sampled audits.
type AuditStats struct {
	Runs       int64 `json:"runs"`
	Checks     int64 `json:"checks"`
	Violations int64 `json:"violations"`
	LastMs     int64 `json:"lastMs,omitempty"`
}

// Health is the GET /v1/healthz payload.
type Health struct {
	Status  string `json:"status"` // "ok" or "draining"
	Version string `json:"version"`
}

// DecodeRequest strictly decodes a CompileRequest: unknown fields are
// rejected (a typo'd option must fail loudly, not silently compile
// with defaults), as is trailing garbage after the JSON value.
func DecodeRequest(r io.Reader) (*CompileRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req CompileRequest
	if err := dec.Decode(&req); err != nil {
		return nil, &Error{Code: ErrBadRequest, Message: err.Error()}
	}
	// A second Decode must hit EOF: two JSON values in one body is a
	// malformed request, not a second job.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, &Error{Code: ErrBadRequest, Message: "trailing data after request body"}
	}
	return &req, nil
}
