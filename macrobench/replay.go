package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"macroflow/internal/fabric"
	"macroflow/internal/implcache"
	"macroflow/internal/ml"
	"macroflow/internal/netlist"
	"macroflow/internal/oracle"
	"macroflow/internal/pblock"
	"macroflow/internal/place"
	"macroflow/internal/route"
	"macroflow/internal/rtlgen"
	"macroflow/internal/stitch"
	"macroflow/internal/synth"
)

// The traced run replays a workload single-threaded, calling each
// layer's public functions itself in the order the flow does: synth
// elaborate/optimize, quick place, the module content hash, the block
// cache lookup, the min-CF search as a walk over the CF grid
// (pblock.Build, place.Place, route.Route per probe), the stitcher and
// the oracle. Timing and allocation counting happen here, around those
// calls; the program itself carries no spans for this.

// layerClock accumulates per-layer busy time and allocation counts. A
// nil *layerClock runs the calls untimed, which is the untraced pass
// the tracing overhead is measured against.
type layerClock struct {
	secs   map[string]float64
	allocs map[string]float64
	ms     runtime.MemStats
}

func newLayerClock() *layerClock {
	return &layerClock{secs: make(map[string]float64), allocs: make(map[string]float64)}
}

// time adds f's wall time to the layer.
func (c *layerClock) time(layer string, f func()) {
	if c == nil {
		f()
		return
	}
	t := time.Now()
	f()
	c.secs[layer] += time.Since(t).Seconds()
}

// timeAllocs adds f's wall time and heap allocation count (a
// runtime.MemStats Mallocs delta, which does not depend on the machine)
// to the layer. The replay is single-threaded, so the delta is f's own.
func (c *layerClock) timeAllocs(layer string, f func()) {
	if c == nil {
		f()
		return
	}
	runtime.ReadMemStats(&c.ms)
	m0 := c.ms.Mallocs
	t := time.Now()
	f()
	d := time.Since(t)
	runtime.ReadMemStats(&c.ms)
	c.secs[layer] += d.Seconds()
	c.allocs[layer] += float64(c.ms.Mallocs - m0)
}

// replayType is one block type of a replayed compile.
type replayType struct {
	name string
	spec rtlgen.Spec
	// estimator selects the estimator-seeded search (the daemon-mix
	// estimator jobs); otherwise the linear min-CF sweep.
	estimator bool
}

// replayUnit is one compile the replay re-executes layer by layer.
type replayUnit struct {
	dev       *fabric.Device
	types     []replayType
	instances []stitch.Instance
	nets      []stitch.Net
	stitch    stitch.Config
}

// estimatorModel is the estimator file's model, loaded through the ml
// layer so its predictions can be timed.
type estimatorModel struct {
	model ml.Model
	fs    ml.FeatureSet
}

func loadEstimatorModel(path string) (*estimatorModel, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file struct {
		FeatureSet string          `json:"featureSet"`
		Model      json.RawMessage `json:"model"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	model, err := ml.LoadModel(bytes.NewReader(file.Model))
	if err != nil {
		return nil, err
	}
	for _, fs := range []ml.FeatureSet{ml.Classical, ml.ClassicalPlacement, ml.Additional, ml.All, ml.LinRegSet} {
		if fs.String() == file.FeatureSet {
			return &estimatorModel{model: model, fs: fs}, nil
		}
	}
	return nil, fmt.Errorf("%s: unknown feature set %q", path, file.FeatureSet)
}

func (m *estimatorModel) predict(rep place.ShapeReport) float64 {
	return m.model.Predict(m.fs.Vector(ml.Extract(rep)))
}

// smallBlockSlices mirrors the flow's estimator rule: blocks estimated
// below this many slices skip the estimator and sweep (§VIII).
const smallBlockSlices = 6

// search is one block search the replay performed, kept for the
// cross-check against pblock.MinCF / pblock.FromEstimate.
type search struct {
	dev *fabric.Device
	m   *netlist.Module
	rep place.ShapeReport
	// estimator marks an estimator-seeded search from est.
	estimator bool
	est       float64
	cf        float64
	runs      int
	err       error
}

// replayCounts are the counters of one replay pass.
type replayCounts struct {
	cells                             int
	probes, estProbes                 int // min-CF search probes of the workload; estimator-path probes
	placeFail, routeFail              int
	memHits, diskHits, misses, stores int
	estimated, firstRun               int
	moves, illegal, accepts           int
	critical                          float64 // longest single block search, seconds
}

// replayer executes replay units. Each pass gets a fresh one; the disk
// layer may be shared between passes (the warm workload reads what an
// earlier pass stored).
type replayer struct {
	clock  *layerClock
	search pblock.SearchConfig
	cfg    pblock.Config
	est    *estimatorModel
	// side runs the estimator path on every block of a minsweep
	// compile as well (the cnv workloads have no estimator jobs of
	// their own; this is the paper's §VIII first-run experiment on the
	// same blocks).
	side bool
	// bySpec mirrors Flow.Compile's first cache layer: a block whose
	// component configuration was implemented before (under any CF
	// mode) is served without elaboration. RunCNV has no such layer;
	// bySpec is nil for the cnv workloads.
	bySpec   map[string]pblock.SearchResult
	mem      map[string]pblock.SearchResult
	disk     *implcache.Cache
	report   oracle.Report
	n        replayCounts
	searches []search
}

// minCFAuditEvery samples the oracle's CheckMinCF re-probe over the
// replay's searches.
const minCFAuditEvery = 8

// newReplayer prepares one pass. runCNV replays Flow.RunCNV (the cnv
// workloads: no configuration-keyed cache layer, plus the estimator
// side replay); otherwise Flow.Compile (daemon-mix).
func newReplayer(traced bool, diskDir string, est *estimatorModel, runCNV bool) (*replayer, error) {
	disk, err := implcache.Open(diskDir)
	if err != nil {
		return nil, err
	}
	p := &replayer{
		search: pblock.SearchConfig{Start: searchStart, Step: searchStep, Max: searchMax},
		cfg:    pblock.DefaultConfig(),
		est:    est,
		side:   runCNV,
		mem:    make(map[string]pblock.SearchResult),
		disk:   disk,
	}
	if !runCNV {
		p.bySpec = make(map[string]pblock.SearchResult)
	}
	if traced {
		p.clock = newLayerClock()
	}
	return p, nil
}

// roundCF snaps a CF to the 0.02 search grid, as the search does.
func roundCF(cf float64) float64 { return math.Round(cf*50) / 50 }

var errRoute = errors.New("route infeasible")

// probe is one place-and-route attempt at cf.
func (p *replayer) probe(dev *fabric.Device, m *netlist.Module, rep place.ShapeReport, cf float64) (*pblock.Implementation, error) {
	var pb pblock.PBlock
	var err error
	p.clock.time("pblock.build", func() { pb, err = pblock.Build(dev, rep, cf, p.cfg) })
	if err != nil {
		return nil, err
	}
	var pl *place.Placement
	p.clock.timeAllocs("place.detail", func() { pl, err = place.Place(dev, m, rep, pb.Rect, p.cfg.Place) })
	if err != nil {
		p.n.placeFail++
		return nil, err
	}
	var rr route.Result
	p.clock.timeAllocs("route.route", func() { rr = route.Route(pl, p.cfg.Route) })
	if !rr.Feasible {
		p.n.routeFail++
		return nil, errRoute
	}
	return &pblock.Implementation{PBlock: pb, Placement: pl, Route: rr}, nil
}

// walk is the linear min-CF sweep: every grid CF from the window start
// until the first feasible implementation.
func (p *replayer) walk(dev *fabric.Device, m *netlist.Module, rep place.ShapeReport) (pblock.SearchResult, error) {
	runs := 0
	for i := 0; ; i++ {
		cf := roundCF(p.search.Start + float64(i)*p.search.Step)
		if cf > p.search.Max+1e-9 {
			return pblock.SearchResult{ToolRuns: runs}, fmt.Errorf("no feasible CF for %s", m.Name)
		}
		runs++
		impl, err := p.probe(dev, m, rep, cf)
		if err == nil {
			return pblock.SearchResult{CF: cf, Impl: impl, ToolRuns: runs}, nil
		}
		if errors.Is(err, pblock.ErrNoFit) {
			return pblock.SearchResult{ToolRuns: runs}, err
		}
	}
}

// estimate is the §VIII estimator-seeded search: probe the estimate,
// climb in 0.1 steps while infeasible, then scan the last interval at
// the grid resolution.
func (p *replayer) estimate(dev *fabric.Device, m *netlist.Module, rep place.ShapeReport, est float64) (pblock.SearchResult, error) {
	runs := 0
	try := func(cf float64) (*pblock.Implementation, bool) {
		runs++
		impl, err := p.probe(dev, m, rep, cf)
		return impl, err == nil
	}
	cf := roundCF(est)
	if cf < p.search.Step {
		cf = p.search.Step
	}
	impl, ok := try(cf)
	if ok {
		return pblock.SearchResult{CF: cf, Impl: impl, ToolRuns: runs}, nil
	}
	base, lo := cf, cf
	for j := 1; ; j++ {
		cf = roundCF(base + float64(j)*0.1)
		if cf > p.search.Max {
			return pblock.SearchResult{ToolRuns: runs}, fmt.Errorf("estimator refinement exceeded CF %.2f for %s", p.search.Max, m.Name)
		}
		if impl, ok = try(cf); ok {
			break
		}
		lo = cf
	}
	for i := 1; ; i++ {
		f := roundCF(lo + float64(i)*p.search.Step)
		if f >= cf-1e-9 {
			break
		}
		if fine, ok := try(f); ok {
			return pblock.SearchResult{CF: f, Impl: fine, ToolRuns: runs}, nil
		}
	}
	return pblock.SearchResult{CF: cf, Impl: impl, ToolRuns: runs}, nil
}

// runSearch times one fresh block search and keeps it for the
// cross-check. Estimator searches count into estProbes and the
// first-run tally; the others into probes. side searches are not part
// of the workload's tool runs.
func (p *replayer) runSearch(dev *fabric.Device, m *netlist.Module, rep place.ShapeReport, estimator, side bool, est float64) (pblock.SearchResult, error) {
	t := time.Now()
	var sr pblock.SearchResult
	var err error
	if estimator {
		sr, err = p.estimate(dev, m, rep, est)
		p.n.estProbes += sr.ToolRuns
		p.n.estimated++
		if sr.ToolRuns == 1 {
			p.n.firstRun++
		}
		if !side {
			p.n.probes += sr.ToolRuns
		}
	} else {
		sr, err = p.walk(dev, m, rep)
		p.n.probes += sr.ToolRuns
	}
	if d := time.Since(t).Seconds(); d > p.n.critical {
		p.n.critical = d
	}
	p.searches = append(p.searches, search{dev: dev, m: m, rep: rep, estimator: estimator, est: est, cf: sr.CF, runs: sr.ToolRuns, err: err})
	if err == nil {
		p.clock.time("oracle.check", func() {
			oracle.CheckImplementation(dev, sr.Impl, &p.report)
			if !estimator && len(p.searches)%minCFAuditEvery == 1 {
				oracle.CheckMinCF(dev, m, rep, sr.CF, 1, p.search, p.cfg, &p.report)
			}
		})
	}
	return sr, err
}

// implement resolves one block type the way the flow's block cache
// does: the configuration-keyed layer (Compile only), then elaborate,
// the content-addressed memory layer, the persistent layer, and only
// then a fresh search whose outcome is stored.
func (p *replayer) implement(dev *fabric.Device, t replayType) (pblock.SearchResult, error) {
	specKey := fmt.Sprintf("%s|%#v", dev.Name, t.spec.Components)
	if sr, ok := p.bySpec[specKey]; ok {
		p.n.memHits++
		return sr, nil
	}
	sr, err := p.resolve(dev, t)
	if err == nil && p.bySpec != nil {
		p.bySpec[specKey] = sr
	}
	return sr, err
}

// resolve elaborates a block and resolves it through the
// content-addressed layers.
func (p *replayer) resolve(dev *fabric.Device, t replayType) (pblock.SearchResult, error) {
	var m *netlist.Module
	var err error
	p.clock.timeAllocs("synth.elaborate", func() { m, err = synth.Elaborate(t.spec) })
	if err != nil {
		return pblock.SearchResult{}, err
	}
	p.clock.time("synth.optimize", func() { _, err = synth.Optimize(m) })
	if err != nil {
		return pblock.SearchResult{}, err
	}
	p.n.cells += len(m.Cells)
	var rep place.ShapeReport
	p.clock.time("place.quick", func() { rep = place.QuickPlace(m) })
	var hash string
	p.clock.time("implcache.hash", func() { hash = implcache.ModuleHash(m) })

	estimator := t.estimator && rep.EstSlices >= smallBlockSlices
	mode, est := "minsweep", 0.0
	if estimator || (p.side && rep.EstSlices >= smallBlockSlices) {
		p.clock.time("ml.predict", func() { est = p.est.predict(rep) })
	}
	if estimator {
		mode = fmt.Sprintf("estimator:%.6f", est)
	} else if p.side && rep.EstSlices >= smallBlockSlices {
		if _, err := p.runSearch(dev, m, rep, true, true, est); err != nil {
			return pblock.SearchResult{}, err
		}
	}
	key := implcache.Key("macrobench", dev.Name, hash, mode,
		pblock.SearchFingerprint(p.search), pblock.ConfigFingerprint(p.cfg))
	if sr, ok := p.mem[key]; ok {
		p.n.memHits++
		return sr, nil
	}
	var rec pblock.ImplRecord
	var hit, ok bool
	var sr pblock.SearchResult
	p.clock.time("blockcache.read", func() {
		if hit = p.disk.Get(key, &rec); hit {
			sr, err, ok = rec.Rebuild(dev, m, rep, p.search, p.cfg)
		}
	})
	if hit && ok && err == nil {
		p.n.diskHits++
		p.mem[key] = sr
		return sr, nil
	}
	p.n.misses++
	sr, err = p.runSearch(dev, m, rep, estimator, false, est)
	if err != nil {
		return sr, err
	}
	if rec, ok := pblock.RecordSearch(sr, nil); ok && p.disk.Put(key, rec) == nil {
		p.n.stores++
	}
	p.mem[key] = sr
	return sr, nil
}

// compile replays one unit: every block type, then the stitcher and the
// oracle's audit of the stitched design.
func (p *replayer) compile(u *replayUnit) (*stitch.Result, error) {
	prob := &stitch.Problem{Dev: u.dev, Instances: u.instances, Nets: u.nets}
	for _, t := range u.types {
		sr, err := p.implement(u.dev, t)
		if err != nil {
			return nil, fmt.Errorf("block %s: %w", t.name, err)
		}
		prob.Blocks = append(prob.Blocks, stitch.NewBlock(t.name, sr.Impl.Placement))
	}
	var res *stitch.Result
	p.clock.timeAllocs("stitch.run", func() { res = stitch.Run(prob, u.stitch) })
	p.n.moves += res.Iterations
	p.n.illegal += res.IllegalMoves
	for _, ch := range res.Chains {
		p.n.accepts += ch.Accepts
	}
	p.clock.time("oracle.check", func() {
		oracle.CheckPlacement(prob, res.Origins, &p.report)
		oracle.CheckCost(prob, res.Origins, res.FinalCost, res.Placed, res.Unplaced, &p.report)
	})
	return res, nil
}

// pass is one complete replay of a workload's units.
type pass struct {
	*replayer
	wall    float64
	results []*stitch.Result
}

// replay runs the units through a fresh replayer.
func replay(units []*replayUnit, traced bool, diskDir string, est *estimatorModel, runCNV bool) (*pass, error) {
	p, err := newReplayer(traced, diskDir, est, runCNV)
	if err != nil {
		return nil, err
	}
	out := &pass{replayer: p}
	sw := startStopwatch()
	for _, u := range units {
		res, err := p.compile(u)
		if err != nil {
			return nil, err
		}
		out.results = append(out.results, res)
	}
	out.wall = sw.seconds()
	return out, nil
}

// replayPasses is how many untraced and traced passes measureReplay
// alternates; the overhead compares the fastest of each.
const replayPasses = 2

// measureReplay runs untraced and traced passes alternately, ending on
// a traced one, and returns the last pass and the tracing overhead: the fastest traced
// pass's wall time minus the fastest untraced one's. dir supplies each
// pass's persistent cache directory.
func measureReplay(units []*replayUnit, dir func() (string, error), est *estimatorModel, runCNV bool) (*pass, float64, error) {
	best := [2]float64{math.Inf(1), math.Inf(1)}
	var p *pass
	for i := 0; i < 2*replayPasses; i++ {
		d, err := dir()
		if err != nil {
			return nil, 0, err
		}
		// Every pass starts from the same heap: the previous pass is
		// garbage and collected, so no pass inherits another's GC pacing.
		p = nil
		runtime.GC()
		if p, err = replay(units, i%2 == 1, d, est, runCNV); err != nil {
			return nil, 0, err
		}
		best[i%2] = math.Min(best[i%2], p.wall)
	}
	return p, best[1] - best[0], nil
}

// crossCheck re-runs every fresh search of the pass through the search
// layer's own entry points (pblock.MinCF, pblock.FromEstimate) and
// returns every disagreement in CF or probe count, plus any oracle
// violation the pass found.
func (p *pass) crossCheck() []string {
	var bad []string
	for _, s := range p.searches {
		var sr pblock.SearchResult
		var err error
		if s.estimator {
			sr, err = pblock.FromEstimate(s.dev, s.m, s.rep, s.est, p.search, p.cfg)
		} else {
			sr, err = pblock.MinCF(s.dev, s.m, s.rep, p.search, p.cfg)
		}
		if (err == nil) != (s.err == nil) || sr.CF != s.cf || sr.ToolRuns != s.runs {
			bad = append(bad, fmt.Sprintf("%s: replay cf=%.2f runs=%d err=%v, pblock cf=%.2f runs=%d err=%v",
				s.m.Name, s.cf, s.runs, s.err, sr.CF, sr.ToolRuns, err))
		}
	}
	if !p.report.Ok() {
		bad = append(bad, p.report.String())
	}
	if p.report.Checks == 0 {
		bad = append(bad, "the replay's oracle audit checked nothing")
	}
	return bad
}

// setLayerMetrics reports the traced pass's per-layer metrics per unit
// of work (one compile, or one daemon job) and the tracing overhead.
func (p *pass) setLayerMetrics(r *run, units int, overhead float64) {
	u := float64(units)
	c := p.clock
	for layer, metric := range map[string]string{
		"synth.elaborate": "synth.elaborate_s",
		"synth.optimize":  "synth.optimize_s",
		"place.quick":     "place.quick_s",
		"pblock.build":    "pblock.build_s",
		"place.detail":    "place.detail_s",
		"route.route":     "route.route_s",
		"stitch.run":      "stitch.run_s",
		"implcache.hash":  "implcache.hash_s",
		"blockcache.read": "blockcache.read_s",
		"ml.predict":      "ml.predict_s",
		"oracle.check":    "oracle.check_s",
	} {
		r.set(metric, c.secs[layer]/u)
	}
	for layer, metric := range map[string]string{
		"synth.elaborate": "synth.elaborate_allocs",
		"place.detail":    "place.detail_allocs",
		"route.route":     "route.route_allocs",
		"stitch.run":      "stitch.run_allocs",
	} {
		r.set(metric, c.allocs[layer]/u)
	}
	n := p.n
	r.set("synth.cells", float64(n.cells)/u)
	r.set("place.detail_fail", float64(n.placeFail)/u)
	r.set("route.fail", float64(n.routeFail)/u)
	r.set("pblock.probes", float64(n.probes)/u)
	r.set("pblock.estimate_probes", float64(n.estProbes)/u)
	r.set("pblock.feasible_ratio", ratio(float64(len(p.searches)), float64(n.probes+n.estProbes)))
	r.set("pblock.search_critical_s", n.critical)
	r.set("stitch.moves_per_s", ratio(float64(n.moves), c.secs["stitch.run"]))
	r.set("stitch.illegal_ratio", ratio(float64(n.illegal), float64(n.moves)))
	r.set("stitch.accept_ratio", ratio(float64(n.accepts), float64(n.moves)))
	r.set("ml.first_run_frac", ratio(float64(n.firstRun), float64(n.estimated)))
	r.set("trace.overhead_s", overhead/u)
}
