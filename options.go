package macroflow

import (
	"fmt"
	"runtime"

	"macroflow/internal/pblock"
	"macroflow/internal/stitch"
)

// AnnealOptions tunes the parallel-tempering annealer (backends
// "anneal" and "hybrid"; the hybrid's annealing phase reads the same
// knobs).
type AnnealOptions struct {
	// Chains runs K parallel-tempering replicas with a geometric
	// temperature ladder and fixed replica-exchange barriers, returning
	// the best chain's result. 0 or 1 keeps the single serial chain,
	// bit-identical to previous releases. Results are bit-reproducible
	// for a given (Seed, Chains) pair regardless of GOMAXPROCS.
	Chains int
	// Iterations is the total SA move budget (default 200,000), divided
	// evenly across chains when Chains > 1. It also bounds the evo
	// backend's total mutation moves and every portfolio entrant's
	// budget — it is the cross-backend budget knob.
	Iterations int
	// TempLadder is the temperature multiplier between adjacent chains
	// (0 selects the calibrated default of 3.0; values >= 1 otherwise).
	TempLadder float64
}

// AnalyticOptions tunes the gradient-descent global placer (backends
// "analytic" and "hybrid").
type AnalyticOptions struct {
	// GDIterations is the gradient-descent budget (default 256).
	GDIterations int
}

// EvoOptions tunes the (μ+λ) evolutionary placer (backend "evo").
type EvoOptions struct {
	// Mu is the survivor count per generation (default 4).
	Mu int
	// Lambda is the offspring count per generation (default 8).
	Lambda int
	// Generations is the generation count (default 16); each offspring
	// mutates for Iterations/(Generations·Lambda) annealer moves.
	Generations int
}

// PortfolioOptions tunes the backend racer (backend "portfolio").
type PortfolioOptions struct {
	// Backends lists the entrants (default anneal, hybrid, evo). Each
	// entrant runs with the full Iterations budget and the same Seed —
	// bit-identical to a solo run of that backend. "portfolio" cannot
	// nest.
	Backends []string
	// Threshold, when > 0, selects first-to-threshold racing: the
	// entrant whose cost trace (total cost, unplaced penalties
	// included) first dips to Threshold wins. 0 selects best final
	// cost at budget.
	Threshold float64
}

// StitchOptions is the single stitch-tuning surface shared by RunCNV
// and Compile (CompileOptions.Stitch). Per-backend parameters live in
// the Anneal/Analytic/Evo/Portfolio sub-structs.
type StitchOptions struct {
	// Seed drives every backend's random streams (chain seeds, the
	// replica-exchange schedule, the analytic scatter, the evolutionary
	// per-offspring seeds).
	Seed int64
	// Anneal tunes the parallel-tempering annealer.
	Anneal AnnealOptions
	// Analytic tunes the gradient-descent global placer.
	Analytic AnalyticOptions
	// Evo tunes the (μ+λ) evolutionary placer.
	Evo EvoOptions
	// Portfolio tunes the backend racer.
	Portfolio PortfolioOptions
	// AdaptiveStop lets the annealer terminate once a cost plateau is
	// reached, making Anneal.Iterations a convergence-speed measurement. With
	// chains the plateau detection applies per chain.
	AdaptiveStop bool
	// TraceEvery is the sampling interval, in iterations, of the
	// StitchReport cost traces (Trace and per-chain Chains[i].Trace).
	// Values < 1 select the validated default of 256; the interval
	// actually used is echoed in StitchReport.TraceEvery, so IterToReach
	// consumers are never tied to a magic constant. The serial chain's
	// Progress callbacks fire on the same grid.
	TraceEvery int
	// Progress, when non-nil, receives (chain, iteration, cost)
	// samples: every TraceEvery iterations from a serial run, and at
	// every exchange barrier per chain from a multi-chain run. It is
	// always invoked from the calling goroutine.
	Progress func(chain, iter int, cost float64)
	// Obs, when non-nil, records stitching spans and metrics
	// (stitch.chains/chain/segment/exchange spans, stitch.moves,
	// stitch.accept_rate, per-chain exchange counters). Nil disables
	// all recording. Recording never affects results.
	Obs *Recorder
	// Check cross-checks the stitched design against the brute-force
	// oracle (internal/oracle): legality recounted tile-by-tile and the
	// final cost recomputed from scratch. CheckOff (the zero value)
	// disables verification; violations land in the result's Verify
	// report and the oracle.violations counters. Verification never
	// changes results.
	Check CheckLevel
	// Backend selects the stitching algorithm: BackendAnneal ("" or
	// "anneal", the default — byte-identical to previous releases),
	// BackendAnalytic ("analytic", gradient-descent global placement
	// plus snap-to-legal, no annealing), BackendHybrid ("hybrid", the
	// analytic placement seeds the annealer's cold chain), BackendEvo
	// ("evo", the (μ+λ) evolutionary placer) or BackendPortfolio
	// ("portfolio", racing Portfolio.Backends under one budget). Unknown
	// spellings fail RunCNV/Compile before any work is done. All
	// backends are bit-reproducible from (Seed, Anneal.Chains, Backend) — the
	// portfolio from (Seed, Portfolio.Backends) — regardless of
	// GOMAXPROCS.
	Backend string
}

// Backend spellings accepted by StitchOptions.Backend (and the cmds'
// -stitch-backend flags); re-exported so callers need not import
// internal/stitch.
const (
	BackendAnneal    = string(stitch.BackendAnneal)
	BackendAnalytic  = string(stitch.BackendAnalytic)
	BackendHybrid    = string(stitch.BackendHybrid)
	BackendEvo       = string(stitch.BackendEvo)
	BackendPortfolio = string(stitch.BackendPortfolio)
)

// Validate rejects option combinations the stitcher would refuse: an
// unknown Backend spelling, negative budgets or an out-of-range check
// level. RunCNV, Compile and the macroflowd request decoder all call
// it, so the CLI and the HTTP service reject bad options with the same
// messages — and a typo fails in microseconds, not after the
// implementation phase.
func (o StitchOptions) Validate() error {
	if o.Anneal.Iterations < 0 {
		return fmt.Errorf("macroflow: StitchOptions.Anneal.Iterations must be >= 0 (got %d)", o.Anneal.Iterations)
	}
	if o.Anneal.Chains < 0 {
		return fmt.Errorf("macroflow: StitchOptions.Anneal.Chains must be >= 0 (got %d)", o.Anneal.Chains)
	}
	if o.Anneal.TempLadder != 0 && o.Anneal.TempLadder < 1 {
		return fmt.Errorf("macroflow: StitchOptions.Anneal.TempLadder must be 0 (default) or >= 1 (got %g)", o.Anneal.TempLadder)
	}
	if o.Analytic.GDIterations < 0 {
		return fmt.Errorf("macroflow: StitchOptions.Analytic.GDIterations must be >= 0 (got %d)", o.Analytic.GDIterations)
	}
	if o.Evo.Mu < 0 {
		return fmt.Errorf("macroflow: StitchOptions.Evo.Mu must be >= 0 (got %d)", o.Evo.Mu)
	}
	if o.Evo.Lambda < 0 {
		return fmt.Errorf("macroflow: StitchOptions.Evo.Lambda must be >= 0 (got %d)", o.Evo.Lambda)
	}
	if o.Evo.Generations < 0 {
		return fmt.Errorf("macroflow: StitchOptions.Evo.Generations must be >= 0 (got %d)", o.Evo.Generations)
	}
	if o.Portfolio.Threshold < 0 {
		return fmt.Errorf("macroflow: StitchOptions.Portfolio.Threshold must be >= 0 (got %g)", o.Portfolio.Threshold)
	}
	for i, b := range o.Portfolio.Backends {
		if b == "" {
			return fmt.Errorf("macroflow: StitchOptions.Portfolio.Backends[%d] is empty (want anneal, analytic, hybrid or evo)", i)
		}
		be, err := stitch.ParseBackend(b)
		if err != nil {
			return err
		}
		if be == stitch.BackendPortfolio {
			return fmt.Errorf("macroflow: StitchOptions.Portfolio.Backends[%d] must not nest %q", i, b)
		}
	}
	if err := o.Check.Validate(); err != nil {
		return err
	}
	_, err := stitch.ParseBackend(o.Backend)
	return err
}

// SearchChoice selects a per-call minimal-CF search strategy override.
type SearchChoice int

const (
	// SearchFlowDefault keeps the strategy configured on the Flow
	// (SetSearchStrategy; the linear sweep unless changed).
	SearchFlowDefault SearchChoice = iota
	// SearchForceLinear forces the paper's exhaustive sweep.
	SearchForceLinear
	// SearchForceBisect forces the O(log) bisection search.
	SearchForceBisect
)

// ImplementOptions are the block-implementation knobs shared by RunCNV
// and Compile (CompileOptions.Implement).
type ImplementOptions struct {
	// Workers bounds block-level implementation parallelism (default
	// GOMAXPROCS). When the flow's search probes speculatively, the
	// block pool is divided by the probe width to keep total
	// parallelism bounded.
	Workers int
	// Cache, when non-nil, reuses pre-implemented blocks across calls
	// (and across processes when the cache has a persistent layer).
	Cache *BlockCache
	// Strategy overrides the flow's minimal-CF search strategy for this
	// call; SearchFlowDefault (the zero value) keeps the flow's
	// setting. Both strategies return identical CFs.
	Strategy SearchChoice
	// ProbeWorkers overrides the flow's speculative probe parallelism
	// for this call (0 keeps the flow's setting).
	ProbeWorkers int
	// Obs, when non-nil, records block-implementation spans and metrics
	// (flow/implement.block/search.mincf/oracle.probe spans,
	// mincf.oracle_runs, implcache and blockcache counters). Nil
	// disables all recording. Recording never affects results.
	Obs *Recorder
	// Check cross-checks every implemented block against the brute-force
	// oracle (internal/oracle): placement legality recounted from first
	// principles, minimal-CF claims re-probed linearly, and cache-served
	// blocks re-implemented from scratch for byte-equivalence. CheckOff
	// (the zero value) disables verification; CheckSampled audits a
	// deterministic sample; CheckFull audits everything. Violations land
	// in the result's Verify report and the oracle.violations counters.
	// Verification never changes results.
	Check CheckLevel
}

// Validate rejects implementation options the flow would refuse:
// negative parallelism and out-of-range Strategy or Check selectors.
// RunCNV, Compile and the macroflowd request decoder all call it, so
// the CLI and the HTTP service reject bad options with the same
// messages.
func (o ImplementOptions) Validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("macroflow: ImplementOptions.Workers must be >= 0 (got %d)", o.Workers)
	}
	if o.ProbeWorkers < 0 {
		return fmt.Errorf("macroflow: ImplementOptions.ProbeWorkers must be >= 0 (got %d)", o.ProbeWorkers)
	}
	switch o.Strategy {
	case SearchFlowDefault, SearchForceLinear, SearchForceBisect:
	default:
		return fmt.Errorf("macroflow: unknown search strategy %d (want SearchFlowDefault, SearchForceLinear or SearchForceBisect)", o.Strategy)
	}
	return o.Check.Validate()
}

// searchFor resolves the effective search configuration of one call
// from the flow's configuration plus the per-call overrides.
func (f *Flow) searchFor(im ImplementOptions) pblock.SearchConfig {
	s := f.search
	switch im.Strategy {
	case SearchForceLinear:
		s.Strategy = pblock.StrategyLinear
	case SearchForceBisect:
		s.Strategy = pblock.StrategyBisect
	}
	if im.ProbeWorkers > 0 {
		s.Workers = im.ProbeWorkers
	}
	s.Obs = im.Obs
	return s
}

// blockWorkers resolves the block-level worker pool width: the
// requested width (default GOMAXPROCS), divided by the probe width when
// the searches themselves run speculative parallel probes.
func blockWorkers(requested, probeWorkers int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if probeWorkers > 1 {
		w = (w + probeWorkers - 1) / probeWorkers
		if w < 1 {
			w = 1
		}
	}
	return w
}

// stitchConfig maps the public options onto the annealer configuration.
func stitchConfig(o StitchOptions) stitch.Config {
	scfg := stitch.DefaultConfig()
	scfg.Seed = o.Seed
	if o.Anneal.Iterations > 0 {
		scfg.Iterations = o.Anneal.Iterations
	}
	scfg.Chains = o.Anneal.Chains
	scfg.TempLadder = o.Anneal.TempLadder
	if o.AdaptiveStop {
		scfg.StopWindow = scfg.Iterations / 16
	}
	scfg.TraceEvery = o.TraceEvery
	scfg.Progress = o.Progress
	scfg.Obs = o.Obs
	// Backend is validated by RunCNV/Compile before any work starts;
	// ParseBackend here only normalizes "" to the anneal default.
	scfg.Backend, _ = stitch.ParseBackend(o.Backend)
	scfg.GDIterations = o.Analytic.GDIterations
	scfg.Mu = o.Evo.Mu
	scfg.Lambda = o.Evo.Lambda
	scfg.Generations = o.Evo.Generations
	for _, b := range o.Portfolio.Backends {
		be, _ := stitch.ParseBackend(b)
		scfg.Backends = append(scfg.Backends, be)
	}
	scfg.Threshold = o.Portfolio.Threshold
	return scfg
}

// stitchDesign runs the annealer on a prepared problem and assembles
// the public report — the one stitching path behind RunCNV and Compile.
// parent, when non-nil, is the flow span the stitching spans nest under.
// vr, when non-nil and o.Check is on, accumulates the oracle's
// cross-check of the stitched result.
func (f *Flow) stitchDesign(prob *stitch.Problem, o StitchOptions, parent *Span, vr *VerifyReport) StitchReport {
	scfg := stitchConfig(o)
	scfg.Span = parent
	sres := stitch.Run(prob, scfg)
	verifyStitch(o.Check, prob, sres, vr, o.Obs, parent)
	rep := StitchReport{
		Backend:         string(scfg.Backend),
		GDIters:         sres.GDIters,
		Placed:          sres.Placed,
		Unplaced:        sres.Unplaced,
		FinalCost:       sres.FinalCost,
		ConvergenceIter: sres.ConvergenceIter,
		IllegalMoves:    sres.IllegalMoves,
		Iterations:      sres.Iterations,
		Exchanges:       sres.Exchanges,
		FreeTiles:       sres.FreeTiles,
		LargestFreeRect: sres.LargestFreeRect,
		TraceEvery:      sres.TraceEvery,
		Map:             renderStitchMap(f.dev, prob, sres.Origins),
	}
	for _, p := range sres.CostTrace {
		rep.Trace = append(rep.Trace, CostPoint{Iter: p.Iter, Cost: p.Cost})
	}
	// The annealer's trace samples its total cost, unplaced penalties
	// included; the headline FinalCost excludes them. Pin the final
	// sample (always present) to FinalCost so IterToReach(FinalCost)
	// resolves even when the design overflows the device.
	if n := len(rep.Trace); n > 0 {
		rep.Trace[n-1].Cost = rep.FinalCost
	}
	for _, cs := range sres.Chains {
		rep.Chains = append(rep.Chains, chainReport(cs))
	}
	if len(sres.Portfolio) > 0 {
		pr := &PortfolioReport{Threshold: o.Portfolio.Threshold}
		for ei, e := range sres.Portfolio {
			if e.Winner {
				pr.Winner = ei
			}
			pr.Entrants = append(pr.Entrants, PortfolioEntrant{
				ChainReport:   chainReport(e.ChainStats),
				Backend:       string(e.Backend),
				Winner:        e.Winner,
				ThresholdIter: e.ThresholdIter,
				Iterations:    e.Iterations,
				Unplaced:      e.Unplaced,
			})
		}
		rep.Portfolio = pr
	}
	return rep
}

// chainReport converts one chain's (or portfolio pseudo-chain's)
// telemetry to the public report shape.
func chainReport(cs stitch.ChainStats) ChainReport {
	cr := ChainReport{
		Chain:        cs.Chain,
		InitTemp:     cs.InitTemp,
		Moves:        cs.Moves,
		Accepts:      cs.Accepts,
		IllegalMoves: cs.IllegalMoves,
		Exchanges:    cs.Exchanges,
		FinalCost:    cs.FinalCost,
	}
	for _, p := range cs.Trace {
		cr.Trace = append(cr.Trace, CostPoint{Iter: p.Iter, Cost: p.Cost})
	}
	return cr
}
