package apiv1

import (
	"fmt"

	"macroflow"
)

// BuiltinCNVW1A1 is the one builtin design spelling DesignSpec.Builtin
// accepts.
const BuiltinCNVW1A1 = "cnvW1A1"

// Validate checks the request's wire-level invariants (exactly one
// design source, known mode/component spellings, index ranges). Option
// semantics — backend spellings, negative budgets — are validated by
// the flow's own StitchOptions.Validate / ImplementOptions.Validate
// after conversion, so HTTP and CLI reject them with identical
// messages.
func (r *CompileRequest) Validate() error {
	switch r.Device {
	case "", "xc7z020", "xc7z045":
	default:
		return &Error{Code: ErrInvalidOptions,
			Message: fmt.Sprintf("unknown device %q (xc7z020, xc7z045)", r.Device)}
	}
	if err := r.Design.validate(); err != nil {
		return err
	}
	switch r.Mode.Kind {
	case "", "minsweep", "constant", "estimator":
	default:
		return &Error{Code: ErrInvalidOptions,
			Message: fmt.Sprintf("unknown cf mode %q (minsweep, constant, estimator)", r.Mode.Kind)}
	}
	if r.Mode.Kind == "constant" && r.Mode.CF <= 0 {
		return &Error{Code: ErrInvalidOptions,
			Message: fmt.Sprintf("constant mode needs cf > 0 (got %g)", r.Mode.CF)}
	}
	if s := r.Search; s != nil && (s.Start <= 0 || s.Step <= 0 || s.Max < s.Start) {
		return &Error{Code: ErrInvalidOptions,
			Message: fmt.Sprintf("bad search window start=%g step=%g max=%g", s.Start, s.Step, s.Max)}
	}
	return nil
}

func (d *DesignSpec) validate() error {
	if d.Builtin != "" {
		if d.Builtin != BuiltinCNVW1A1 {
			return &Error{Code: ErrInvalidOptions,
				Message: fmt.Sprintf("unknown builtin design %q (only %q)", d.Builtin, BuiltinCNVW1A1)}
		}
		if len(d.Blocks) > 0 || len(d.Instances) > 0 || len(d.Nets) > 0 {
			return &Error{Code: ErrInvalidOptions,
				Message: "a builtin design cannot also carry blocks/instances/nets"}
		}
		return nil
	}
	if len(d.Blocks) == 0 {
		return &Error{Code: ErrInvalidOptions, Message: "design needs a builtin name or at least one block"}
	}
	if len(d.Instances) == 0 {
		return &Error{Code: ErrInvalidOptions, Message: "design needs at least one instance"}
	}
	for i, b := range d.Blocks {
		if b.Name == "" {
			return &Error{Code: ErrInvalidOptions, Message: fmt.Sprintf("block %d has no name", i)}
		}
		if len(b.Components) == 0 {
			return &Error{Code: ErrInvalidOptions, Message: fmt.Sprintf("block %q has no components", b.Name)}
		}
		for _, c := range b.Components {
			switch c.Kind {
			case CompShiftRegs, CompSRLs, CompMemory, CompDistributedMemory,
				CompSumOfSquares, CompLFSRs, CompLogic:
			default:
				return &Error{Code: ErrInvalidOptions,
					Message: fmt.Sprintf("block %q: unknown component kind %q", b.Name, c.Kind)}
			}
		}
	}
	for i, in := range d.Instances {
		if in.Block < 0 || in.Block >= len(d.Blocks) {
			return &Error{Code: ErrInvalidOptions,
				Message: fmt.Sprintf("instance %d references block %d of %d", i, in.Block, len(d.Blocks))}
		}
	}
	for i, n := range d.Nets {
		if n.From < 0 || n.From >= len(d.Instances) || n.To < 0 || n.To >= len(d.Instances) {
			return &Error{Code: ErrInvalidOptions,
				Message: fmt.Sprintf("net %d endpoints (%d, %d) out of range", i, n.From, n.To)}
		}
	}
	return nil
}

// BuildDesign converts a custom DesignSpec into a macroflow.Design.
// Callers handle Builtin themselves (the builtin designs run through
// their dedicated flow entry points).
func (d *DesignSpec) BuildDesign() (*macroflow.Design, error) {
	if err := d.validate(); err != nil {
		return nil, err
	}
	if d.Builtin != "" {
		return nil, &Error{Code: ErrInvalidOptions, Message: "builtin designs are not built client-side"}
	}
	out := macroflow.NewDesign()
	for _, b := range d.Blocks {
		spec := macroflow.NewSpec(b.Name)
		for _, c := range b.Components {
			switch c.Kind {
			case CompShiftRegs:
				spec.ShiftRegs(c.Count, c.Length, c.ControlSets, c.Fanin)
			case CompSRLs:
				spec.SRLs(c.Count, c.Length, c.ControlSets)
			case CompMemory:
				spec.Memory(c.Width, c.Depth)
			case CompDistributedMemory:
				spec.DistributedMemory(c.Width, c.Depth)
			case CompSumOfSquares:
				spec.SumOfSquares(c.Width, c.Terms)
			case CompLFSRs:
				spec.LFSRs(c.Count, c.Width, c.UseCarry, c.UseSRL)
			case CompLogic:
				spec.Logic(c.LUTs, c.Fanin, c.Depth)
			}
		}
		out.AddBlockType(spec)
	}
	for _, in := range d.Instances {
		if _, err := out.AddInstance(in.Block, in.Name); err != nil {
			return nil, &Error{Code: ErrInvalidOptions, Message: err.Error()}
		}
	}
	for _, n := range d.Nets {
		if err := out.Connect(n.From, n.To, n.Width); err != nil {
			return nil, &Error{Code: ErrInvalidOptions, Message: err.Error()}
		}
	}
	return out, nil
}

// InstanceCounts tallies how many instances use each block type of a
// custom design (nil for builtin designs — their flow reports its own).
func (d *DesignSpec) InstanceCounts() []int {
	if d.Builtin != "" || len(d.Blocks) == 0 {
		return nil
	}
	counts := make([]int, len(d.Blocks))
	for _, in := range d.Instances {
		if in.Block >= 0 && in.Block < len(counts) {
			counts[in.Block]++
		}
	}
	return counts
}

// Options converts the wire params into the structured
// macroflow.StitchOptions. The flat iterations/chains/gdIterations wire
// fields predate the per-backend sub-objects and fill the same Anneal
// and Analytic fields; a non-zero sub-object field wins over its flat
// counterpart. The caller attaches recorder and progress callback;
// semantic validation is the flow's StitchOptions.Validate.
func (p StitchParams) Options() (macroflow.StitchOptions, error) {
	check, err := macroflow.ParseCheckLevel(p.Check)
	if err != nil {
		return macroflow.StitchOptions{}, &Error{Code: ErrInvalidOptions, Message: err.Error()}
	}
	// A winning sub-object field would hide a bad flat value from the
	// library's Validate, so the flat budgets are checked here.
	if p.Iterations < 0 || p.Chains < 0 || p.GDIterations < 0 {
		return macroflow.StitchOptions{}, &Error{Code: ErrInvalidOptions, Message: fmt.Sprintf(
			"stitch iterations, chains and gdIterations must be >= 0 (got %d, %d, %d)",
			p.Iterations, p.Chains, p.GDIterations)}
	}
	o := macroflow.StitchOptions{
		Seed:         p.Seed,
		AdaptiveStop: p.AdaptiveStop,
		TraceEvery:   p.TraceEvery,
		Backend:      p.Backend,
		Check:        check,
		Anneal:       macroflow.AnnealOptions{Iterations: p.Iterations, Chains: p.Chains},
		Analytic:     macroflow.AnalyticOptions{GDIterations: p.GDIterations},
	}
	if a := p.Anneal; a != nil {
		o.Anneal.Iterations = orFlat(a.Iterations, p.Iterations)
		o.Anneal.Chains = orFlat(a.Chains, p.Chains)
		o.Anneal.TempLadder = a.TempLadder
	}
	if p.Analytic != nil {
		o.Analytic.GDIterations = orFlat(p.Analytic.GDIterations, p.GDIterations)
	}
	if p.Evo != nil {
		o.Evo = macroflow.EvoOptions{
			Mu:          p.Evo.Mu,
			Lambda:      p.Evo.Lambda,
			Generations: p.Evo.Generations,
		}
	}
	if p.Portfolio != nil {
		o.Portfolio = macroflow.PortfolioOptions{
			Backends:  append([]string(nil), p.Portfolio.Backends...),
			Threshold: p.Portfolio.Threshold,
		}
	}
	return o, nil
}

// orFlat resolves one sub-object wire field against its flat
// counterpart: the sub-object's value unless it is zero (unset).
func orFlat(sub, flat int) int {
	if sub != 0 {
		return sub
	}
	return flat
}

// Options converts the wire params into macroflow.PartitionOptions.
// A nil receiver (partition absent from the request) converts to the
// zero value, which disables partitioning. Semantic validation is the
// flow's PartitionOptions.Validate.
func (p *PartitionParams) Options() macroflow.PartitionOptions {
	if p == nil {
		return macroflow.PartitionOptions{}
	}
	return macroflow.PartitionOptions{
		Shards:      p.Shards,
		Backend:     p.Backend,
		CutPenalty:  p.CutPenalty,
		Refinements: p.Refinements,
	}
}

// Options converts the wire params into the structured
// macroflow.ImplementOptions. The caller attaches the shared cache and
// recorder.
func (p ImplementParams) Options() (macroflow.ImplementOptions, error) {
	check, err := macroflow.ParseCheckLevel(p.Check)
	if err != nil {
		return macroflow.ImplementOptions{}, &Error{Code: ErrInvalidOptions, Message: err.Error()}
	}
	var strategy macroflow.SearchChoice
	switch p.Strategy {
	case "", "default":
		strategy = macroflow.SearchFlowDefault
	case "linear":
		strategy = macroflow.SearchForceLinear
	case "bisect":
		strategy = macroflow.SearchForceBisect
	default:
		return macroflow.ImplementOptions{}, &Error{Code: ErrInvalidOptions,
			Message: fmt.Sprintf("unknown search strategy %q (default, linear, bisect)", p.Strategy)}
	}
	return macroflow.ImplementOptions{
		Workers:      p.Workers,
		Strategy:     strategy,
		ProbeWorkers: p.ProbeWorkers,
		Check:        check,
	}, nil
}

// ResultFromCompile maps a macroflow.CompileResult onto the wire form.
func ResultFromCompile(res *macroflow.CompileResult, skipStitch bool) *CompileResult {
	out := &CompileResult{
		Blocks:    blockResults(res.Blocks),
		ToolRuns:  res.ToolRuns,
		CacheHits: res.CacheHits,
		Cache:     cacheStats(res.Cache),
		Verify:    verifySummary(res.Verify),
	}
	if !skipStitch {
		out.Stitch = stitchSummary(&res.Stitch)
	}
	out.Partition = partitionSummary(res.Partition)
	return out
}

// ResultFromCNV maps a macroflow.CNVResult onto the wire form.
func ResultFromCNV(res *macroflow.CNVResult, skipStitch bool) *CompileResult {
	out := &CompileResult{
		Blocks:       blockResults(res.Blocks),
		Instances:    append([]int(nil), res.Instances...),
		ToolRuns:     res.TotalToolRuns,
		FirstRunRate: res.FirstRunRate,
		CacheHits:    res.CacheHits,
		Cache:        cacheStats(res.Cache),
		Verify:       verifySummary(res.Verify),
	}
	if !skipStitch {
		out.Stitch = stitchSummary(&res.Stitch)
	}
	out.Partition = partitionSummary(res.Partition)
	return out
}

func partitionSummary(pr *macroflow.PartitionReport) *PartitionSummary {
	if pr == nil {
		return nil
	}
	out := &PartitionSummary{
		Backend:    pr.Backend,
		CutNets:    pr.CutNets,
		CutWeight:  pr.CutWeight,
		CutPenalty: pr.CutPenalty,
		CutCost:    pr.CutCost,
		TotalCost:  pr.TotalCost,
	}
	for i := range pr.Members {
		m := &pr.Members[i]
		out.Members = append(out.Members, MemberSummary{
			Name:        m.Name,
			Instances:   m.Instances,
			UsedSlices:  m.UsedSlices,
			CapSlices:   m.CapSlices,
			Utilization: m.Utilization,
			Stitch:      stitchSummary(&m.Stitch),
		})
	}
	return out
}

func blockResults(blocks []macroflow.ModuleResult) []BlockResult {
	out := make([]BlockResult, len(blocks))
	for i, b := range blocks {
		out[i] = BlockResult{
			Name:          b.Name,
			CF:            b.CF,
			ToolRuns:      b.ToolRuns,
			EstSlices:     b.EstSlices,
			UsedSlices:    b.UsedSlices,
			PBlock:        b.PBlock,
			LongestPathNS: b.LongestPathNS,
			Irregularity:  b.Irregularity,
			MaxFanout:     b.MaxFanout,
			ControlSets:   b.ControlSets,
			CarryChains:   b.CarryChains,
		}
	}
	return out
}

func cacheStats(s macroflow.CacheStats) CacheStats {
	return CacheStats{
		MemHits:          s.MemHits,
		DiskHits:         s.DiskHits,
		SingleflightHits: s.SingleflightHits,
		Misses:           s.Misses,
		Stores:           s.Stores,
		Negatives:        s.Negatives,
	}
}

func stitchSummary(r *macroflow.StitchReport) *StitchSummary {
	out := &StitchSummary{
		Backend:         r.Backend,
		GDIters:         r.GDIters,
		Placed:          r.Placed,
		Unplaced:        r.Unplaced,
		FinalCost:       r.FinalCost,
		ConvergenceIter: r.ConvergenceIter,
		IllegalMoves:    r.IllegalMoves,
		Iterations:      r.Iterations,
		Exchanges:       r.Exchanges,
		FreeTiles:       r.FreeTiles,
		LargestFreeRect: r.LargestFreeRect,
		TraceEvery:      r.TraceEvery,
		Map:             r.Map,
		Trace:           costPoints(r.Trace),
	}
	for _, ch := range r.Chains {
		out.Chains = append(out.Chains, chainReport(ch))
	}
	if r.Portfolio != nil {
		wp := &PortfolioReport{
			Winner:    r.Portfolio.Winner,
			Threshold: r.Portfolio.Threshold,
		}
		for _, e := range r.Portfolio.Entrants {
			wp.Entrants = append(wp.Entrants, PortfolioEntrant{
				ChainReport:   chainReport(e.ChainReport),
				Backend:       e.Backend,
				Winner:        e.Winner,
				ThresholdIter: e.ThresholdIter,
				Iterations:    e.Iterations,
				Unplaced:      e.Unplaced,
			})
		}
		out.Portfolio = wp
	}
	return out
}

func chainReport(ch macroflow.ChainReport) ChainReport {
	return ChainReport{
		Chain:        ch.Chain,
		InitTemp:     ch.InitTemp,
		Moves:        ch.Moves,
		Accepts:      ch.Accepts,
		IllegalMoves: ch.IllegalMoves,
		Exchanges:    ch.Exchanges,
		FinalCost:    ch.FinalCost,
		Trace:        costPoints(ch.Trace),
	}
}

func costPoints(trace []macroflow.CostPoint) []CostPoint {
	out := make([]CostPoint, len(trace))
	for i, p := range trace {
		out[i] = CostPoint{Iter: p.Iter, Cost: p.Cost}
	}
	return out
}

func verifySummary(vr *macroflow.VerifyReport) *VerifySummary {
	if vr == nil {
		return nil
	}
	out := &VerifySummary{Checks: vr.Checks}
	for _, v := range vr.Violations {
		out.Violations = append(out.Violations, Violation{
			Checker: v.Checker, Subject: v.Subject, Detail: v.Detail,
		})
	}
	return out
}
