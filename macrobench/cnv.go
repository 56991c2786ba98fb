package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"macroflow"
	apiv1 "macroflow/api/v1"
	"macroflow/internal/cnv"
	"macroflow/internal/fabric"
	"macroflow/internal/stitch"
)

// The CF search window of every workload: the linear sweep rwflow and
// the builtin cnvW1A1 flow use.
const (
	searchStart = 0.5
	searchStep  = 0.02
	searchMax   = 3.0
)

const (
	// stitchUniverse is the number of stitch seeds the references
	// cover; a workload seed selects seedsPerRun consecutive ones, and
	// every one is compiled at least once per run.
	stitchUniverse = 64
	seedsPerRun    = 16
	// setupRepeats is how often set-up runs; setup_s is the median.
	setupRepeats = 3
	// servicePassJobs is the burst the traced cnv runs send through
	// macroflowd: more jobs than workers, so some wait in the queue.
	servicePassJobs = 4
)

// cnvWorkload is one of the two cnvW1A1 workloads.
type cnvWorkload struct {
	name   string
	device string
	// warm reads every block from a persistent cache set-up filled;
	// otherwise each compile gets a fresh, empty one.
	warm       bool
	backend    string
	iterations int
	chains     int
}

var (
	coldCNV = cnvWorkload{name: "cnv-z020-cold", device: "xc7z020", iterations: 200000}
	warmCNV = cnvWorkload{name: "cnv-z045-warm", device: "xc7z045", warm: true,
		backend: "hybrid", iterations: 1000000, chains: 2}
)

// stitchSeeds derives n stitch seeds from the workload seed: consecutive
// seeds of 1..stitchUniverse, starting at the workload seed (so workload
// seed 1 stitches with seed 1 first, the golden fig5(c) configuration).
func (e *env) stitchSeeds(n int) []int64 {
	base := ((e.seed-1)%stitchUniverse + stitchUniverse) % stitchUniverse
	out := make([]int64, n)
	for k := range out {
		out[k] = 1 + (base+int64(k))%stitchUniverse
	}
	return out
}

func (w cnvWorkload) stitchOptions(seed int64) macroflow.StitchOptions {
	return macroflow.StitchOptions{Seed: seed, Backend: w.backend,
		Anneal: macroflow.AnnealOptions{Iterations: w.iterations, Chains: w.chains}}
}

// compile runs one RunCNV on a new Flow with a persistent block cache
// rooted at dir.
func (w cnvWorkload) compile(dir string, seed int64, check macroflow.CheckLevel, skipStitch bool) (*macroflow.CNVResult, error) {
	flow, err := macroflow.NewFlow(w.device)
	if err != nil {
		return nil, err
	}
	flow.SetSearch(searchStart, searchStep, searchMax)
	cache, err := macroflow.NewPersistentBlockCache(dir)
	if err != nil {
		return nil, err
	}
	so := w.stitchOptions(seed)
	so.Check = check
	return flow.RunCNV(macroflow.MinSweepCF(), macroflow.CNVOptions{
		Implement:  macroflow.ImplementOptions{Cache: cache, Check: check},
		Stitch:     so,
		SkipStitch: skipStitch,
	})
}

// cacheDir is the persistent cache a compile uses: the one set-up
// filled for the warm workload, a fresh empty one for the cold one.
func (w cnvWorkload) cacheDir(e *env, warmDir string) (string, error) {
	if w.warm {
		return warmDir, nil
	}
	return e.freshDir("cache-")
}

// setup loads the reference and prepares the measured compiles. The
// cold workload runs one discarded compile, so lazy initialisation and
// heap growth finish before timing; the warm workload fills the
// persistent cache its compiles then read. It returns the reference and
// the warm cache directory.
func (w cnvWorkload) setup(e *env) (*reference, string, error) {
	ref, err := loadReference(e.refPath(w.name + ".json"))
	if err != nil {
		return nil, "", err
	}
	dir, err := e.freshDir("cache-")
	if err != nil {
		return nil, "", err
	}
	res, err := w.compile(dir, e.stitchSeeds(1)[0], macroflow.CheckOff, w.warm)
	if err != nil {
		return nil, "", err
	}
	if bad := ref.checkBlocks(res.Blocks); len(bad) > 0 {
		return nil, "", fmt.Errorf("set-up compile: %v", bad)
	}
	if !w.warm {
		os.RemoveAll(dir)
		dir = ""
	}
	return ref, dir, nil
}

// setupTimed runs set-up setupRepeats times and returns the last
// set-up's state and every set-up's time.
func (w cnvWorkload) setupTimed(e *env, r *run) (*reference, string, []float64, bool) {
	var times []float64
	var ref *reference
	var dir string
	for i := 0; i < setupRepeats; i++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		sw := startStopwatch()
		var err error
		ref, dir, err = w.setup(e)
		times = append(times, sw.seconds())
		if err != nil {
			r.fail("set-up: %v", err)
			return nil, "", nil, false
		}
	}
	return ref, dir, times, true
}

// measure times back-to-back compiles for the run's duration, cycling
// through the run's stitch seeds (each at least once).
func (w cnvWorkload) measure(e *env, r *run) {
	ref, warmDir, setups, ok := w.setupTimed(e, r)
	if !ok {
		return
	}
	seeds := e.stitchSeeds(e.seedsPerRun)
	var host hostSpeed
	host.sample(3)
	runtime.GC()
	var lat, cpu, alloc []float64
	outcomes := make(map[int64]refStitch)
	var ms runtime.MemStats
	// The run ends on wall time, steal included, so its length is
	// bounded whatever the host does.
	start := time.Now()
	for i := 0; i < len(seeds) || time.Since(start).Seconds() < e.seconds; i++ {
		seed := seeds[i%len(seeds)]
		dir, err := w.cacheDir(e, warmDir)
		if err != nil {
			r.fail("%v", err)
			return
		}
		host.sample(1)
		runtime.ReadMemStats(&ms)
		a0, c0 := ms.TotalAlloc, selfCPU()
		sw := startStopwatch()
		res, err := w.compile(dir, seed, macroflow.CheckOff, false)
		d := sw.seconds()
		c1 := selfCPU()
		runtime.ReadMemStats(&ms)
		r.attempted++
		if !w.warm {
			os.RemoveAll(dir)
		}
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "macrobench: compile %d failed: %v\n", i, err)
			continue
		}
		lat = append(lat, d)
		cpu = append(cpu, c1-c0)
		alloc = append(alloc, float64(ms.TotalAlloc-a0)/1e6)
		for _, p := range ref.check(res, seed) {
			r.fail("compile %d (stitch seed %d): %s", i, seed, p)
		}
		outcomes[seed] = refStitch{Placed: res.Stitch.Placed, Unplaced: res.Stitch.Unplaced, Cost: res.Stitch.FinalCost}
	}
	var costs, placed []float64
	for _, o := range outcomes {
		costs = append(costs, o.Cost)
		placed = append(placed, float64(o.Placed)/float64(o.Placed+o.Unplaced))
	}
	f := host.scale()
	r.set("setup_s", median(setups)*f)
	r.set("latency_p50_s", median(lat)*f)
	r.set("latency_p90_s", quantile(lat, 0.9)*f)
	r.set("compiles_per_s", float64(len(lat))/sum(lat)/f)
	r.set("cpu_s", mean(cpu)*f)
	r.set("alloc_mb", mean(alloc))
	r.set("stitch_cost", mean(costs))
	r.set("placed_frac", mean(placed))
	r.set("success_rate", ratio(float64(r.attempted-r.failed), float64(r.attempted)))
	rss, err := peakRSSMB(0)
	if err != nil {
		r.fail("peak RSS: %v", err)
	}
	r.set("peak_rss_mb", rss)
	fmt.Fprintf(os.Stderr, "macrobench: reference kernel %.4f s (median of %d), time metrics scaled by %.3f\n",
		median(host.samples), len(host.samples), f)
	w.audit(e, ref, warmDir, r)
}

// audit is the run's oracle audit, outside the timed region: one more
// compile with stitch seed 1 under the flow's sampled oracle checks
// (CheckImplementation and a CheckMinCF re-probe on sampled blocks,
// CheckPlacement and CheckCost on the stitched design), which must find
// no violation and match the reference. On the xc7z020 the outcome must
// also match the golden fig5(c) line of experiments_output.txt.
func (w cnvWorkload) audit(e *env, ref *reference, warmDir string, r *run) {
	dir, err := w.cacheDir(e, warmDir)
	if err != nil {
		r.fail("%v", err)
		return
	}
	res, err := w.compile(dir, 1, macroflow.CheckSampled, false)
	if err != nil {
		r.fail("audit compile: %v", err)
		return
	}
	switch {
	case res.Verify == nil || res.Verify.Checks == 0:
		r.fail("audit: the oracle checked nothing")
	case !res.Verify.Ok():
		r.fail("audit: %s", res.Verify.String())
	}
	for _, p := range ref.check(res, 1) {
		r.fail("audit compile: %s", p)
	}
	if w.warm {
		return
	}
	placed, unplaced, err := goldenMinCF(e.root)
	if err != nil {
		r.fail("golden: %v", err)
		return
	}
	if res.Stitch.Placed != placed || res.Stitch.Unplaced != unplaced {
		r.fail("golden fig5(c): %d placed, %d unplaced; experiments_output.txt says %d, %d",
			res.Stitch.Placed, res.Stitch.Unplaced, placed, unplaced)
	}
}

// replayUnit builds the replay of one compile with the given stitch
// seed.
func (w cnvWorkload) replayUnit(seed int64) *replayUnit {
	d := cnv.CNVW1A1()
	dev := fabric.XC7Z020()
	if w.device == "xc7z045" {
		dev = fabric.XC7Z045()
	}
	u := &replayUnit{dev: dev, stitch: stitchConfig(seed, w.backend, w.iterations, w.chains)}
	for i := range d.Types {
		u.types = append(u.types, replayType{name: d.Types[i].Name, spec: d.Types[i].Spec})
	}
	for _, in := range d.Instances {
		u.instances = append(u.instances, stitch.Instance{Name: in.Name, Block: in.Type})
	}
	for _, n := range d.Nets {
		u.nets = append(u.nets, stitch.Net{From: n.From, To: n.To, Weight: float64(n.Width) / 16})
	}
	return u
}

// stitchConfig is the stitcher configuration the flow derives from the
// workload's StitchOptions.
func stitchConfig(seed int64, backend string, iterations, chains int) stitch.Config {
	cfg := stitch.DefaultConfig()
	cfg.Seed = seed
	cfg.Iterations = iterations
	cfg.Chains = chains
	cfg.Backend, _ = stitch.ParseBackend(backend)
	return cfg
}

// request is the api/v1 form of one compile of the workload.
func (w cnvWorkload) request(seed int64) *apiv1.CompileRequest {
	req := &apiv1.CompileRequest{
		Device: w.device,
		Design: apiv1.DesignSpec{Builtin: apiv1.BuiltinCNVW1A1},
		Search: &apiv1.SearchWindow{Start: searchStart, Step: searchStep, Max: searchMax},
		Stitch: apiv1.StitchParams{Seed: seed, Backend: w.backend,
			Anneal: &apiv1.AnnealParams{Iterations: w.iterations, Chains: w.chains}},
	}
	return req
}

// trace is the traced run: one untraced compile for the counts the
// replay must reproduce, alternating untraced and traced replays of the
// same compile (their wall-time difference is the tracing overhead), the
// cross-checks, and a burst of the workload's requests through
// macroflowd for the service-layer metrics.
func (w cnvWorkload) trace(e *env, r *run) {
	ref, warmDir, err := w.setup(e)
	if err != nil {
		r.fail("set-up: %v", err)
		return
	}
	seed := e.stitchSeeds(1)[0]
	dir, err := w.cacheDir(e, warmDir)
	if err != nil {
		r.fail("%v", err)
		return
	}
	res, err := w.compile(dir, seed, macroflow.CheckOff, false)
	r.attempted++
	if err != nil {
		r.failed++
		r.fail("compile: %v", err)
		return
	}
	for _, p := range ref.check(res, seed) {
		r.fail("compile: %s", p)
	}
	r.set("blockcache.mem_hits", float64(res.Cache.MemHits))
	r.set("blockcache.singleflight_hits", float64(res.Cache.SingleflightHits))
	r.set("blockcache.disk_hits", float64(res.Cache.DiskHits))
	r.set("blockcache.misses", float64(res.Cache.Misses))
	r.set("blockcache.stores", float64(res.Cache.Stores))

	est, err := loadEstimatorModel(e.refPath(estimatorFile))
	if err != nil {
		r.fail("%v", err)
		return
	}
	units := []*replayUnit{w.replayUnit(seed)}
	replayDirs := func() (string, error) { return e.freshDir("replay-") }
	// The warm replay reads what a first, uncounted pass stored, as the
	// warm compiles read what set-up stored.
	var first *pass
	if w.warm {
		replayDir, err := replayDirs()
		if err == nil {
			first, err = replay(units, false, replayDir, est, true)
		}
		if err != nil {
			r.fail("replay: %v", err)
			return
		}
		replayDirs = func() (string, error) { return replayDir, nil }
	}
	traced, overhead, err := measureReplay(units, replayDirs, est, true)
	if err != nil {
		r.fail("replay: %v", err)
		return
	}
	traced.setLayerMetrics(r, 1, overhead)

	// Cross-checks: the replay's fresh searches agree with the search
	// layer, its probe count is the untraced compile's tool runs, its
	// cache outcomes are the flow's, and its stitch is the reference's.
	for _, p := range []*pass{first, traced} {
		if p == nil {
			continue
		}
		for _, bad := range p.crossCheck() {
			r.fail("replay: %s", bad)
		}
	}
	if traced.n.probes != res.TotalToolRuns {
		r.fail("replay probes %d != untraced tool runs %d", traced.n.probes, res.TotalToolRuns)
	}
	c := traced.n
	if got := (refCache{MemOrFlight: c.memHits, DiskHits: c.diskHits, Misses: c.misses, Stores: c.stores}); got != cacheOf(res.Cache) {
		r.fail("replay cache outcomes %+v != flow %+v", got, cacheOf(res.Cache))
	}
	sres := traced.results[0]
	for _, p := range ref.checkStitch(seed, refStitch{Placed: sres.Placed, Unplaced: sres.Unplaced, Cost: sres.FinalCost}) {
		r.fail("replay: %s", p)
	}
	w.servicePass(e, ref, warmDir, r)
}

// servicePass sends a burst of the workload's compiles through a fresh
// macroflowd (sharing the warm cache for the warm workload) and checks
// every result against the reference.
func (w cnvWorkload) servicePass(e *env, ref *reference, warmDir string, r *run) {
	cacheDir, err := w.cacheDir(e, warmDir)
	if err != nil {
		r.fail("%v", err)
		return
	}
	d, err := startDaemon(e, cacheDir)
	if err != nil {
		r.fail("%v", err)
		return
	}
	defer d.stop()
	seeds := e.stitchSeeds(servicePassJobs)
	var reqs []*apiv1.CompileRequest
	for _, s := range seeds {
		reqs = append(reqs, w.request(s))
	}
	jobs := burst(d, reqs)
	toolRuns := 0
	for i, j := range jobs {
		r.attempted++
		if j.err != nil {
			r.failed++
			r.fail("macroflowd job %d: %v", i, j.err)
			continue
		}
		toolRuns += j.res.ToolRuns
		for _, p := range ref.checkWire(j.res, seeds[i]) {
			r.fail("macroflowd job %d: %s", i, p)
		}
	}
	// The shared cache implements each block once whatever the job
	// order, so the burst's tool runs are one cold compile's.
	if toolRuns != ref.ToolRuns {
		r.fail("macroflowd burst tool runs %d, reference %d", toolRuns, ref.ToolRuns)
	}
	setServiceMetrics(r, d, reqs, jobs)
}

// buildReference computes the workload's reference: one compile with
// stitch seed 1 for the block outcomes, tool runs and cache counts, and
// the stitch outcome of every seed in the universe.
func (w cnvWorkload) buildReference(e *env) (*reference, error) {
	dir, err := e.freshDir("ref-")
	if err != nil {
		return nil, err
	}
	if w.warm {
		if _, err := w.compile(dir, 1, macroflow.CheckOff, true); err != nil {
			return nil, err
		}
	}
	res, err := w.compile(dir, 1, macroflow.CheckOff, false)
	if err != nil {
		return nil, err
	}
	ref := &reference{
		Workload: w.name, Device: w.device,
		ToolRuns: res.TotalToolRuns, Cache: cacheOf(res.Cache),
		Stitch: make(map[string]refStitch),
	}
	for _, b := range res.Blocks {
		ref.Blocks = append(ref.Blocks, refBlock{Name: b.Name, CF: b.CF, ToolRuns: b.ToolRuns})
	}
	flow, err := macroflow.NewFlow(w.device)
	if err != nil {
		return nil, err
	}
	flow.SetSearch(searchStart, searchStep, searchMax)
	blocks := macroflow.NewBlockCache()
	for s := int64(1); s <= stitchUniverse; s++ {
		res, err := flow.RunCNV(macroflow.MinSweepCF(), macroflow.CNVOptions{
			Implement: macroflow.ImplementOptions{Cache: blocks},
			Stitch:    w.stitchOptions(s),
		})
		if err != nil {
			return nil, err
		}
		ref.Stitch[strconv.FormatInt(s, 10)] = refStitch{Placed: res.Stitch.Placed, Unplaced: res.Stitch.Unplaced, Cost: res.Stitch.FinalCost}
	}
	return ref, nil
}
