package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"macroflow"
	apiv1 "macroflow/api/v1"
	"macroflow/internal/fabric"
	"macroflow/internal/implcache"
	"macroflow/internal/netlist"
	"macroflow/internal/place"
	"macroflow/internal/rtlgen"
	"macroflow/internal/stitch"
	"macroflow/internal/synth"
)

// The daemon-mix stream: streamJobs custom designs per round, each with
// 4–6 block types drawn from a fixed pool of rtlgen.GenerateMix blocks.
// Every pool block is referenced exactly twice per round, so half of the
// block references repeat an earlier one and every round implements the
// same set of blocks; the workload seed decides which blocks share a
// job, the job order, the instances, nets and stitch seeds.
const (
	mixDevice      = "xc7z020"
	estimatorFile  = "estimator.json"
	poolFile       = "daemon-mix-pool.json"
	streamJobs     = 100
	minJobBlocks   = 4
	maxJobBlocks   = 6
	mixIterations  = 20000
	estimatorEvery = 4 // every 4th job uses estimator mode
	// The pool is drawn once, from poolSeed, and kept to the blocks
	// listed in reference/daemon-mix-pool.json: -regen keeps poolSize
	// blocks of at most maxEstSlices estimated slices that both CF
	// modes implement. Larger template blocks can be infeasible on the
	// search window and take seconds each; a job that fails, or a tail
	// latency set by a handful of blocks, would make the workload
	// unsteady.
	poolSeed     = 1
	poolDraw     = 360
	poolSize     = 280
	maxEstSlices = 300
)

// poolBlock is one block of the pool: the api/v1 form the daemon
// receives and the rtlgen spec the replay elaborates, which describe
// the same module.
type poolBlock struct {
	spec rtlgen.Spec
	wire apiv1.BlockSpec
	ref  poolRef
}

// poolRef is a pool block's reference outcome under each CF mode: a
// job's block must match one of them (the shared cache may serve the
// other mode's implementation).
type poolRef struct {
	Name        string  `json:"name"`
	CF          float64 `json:"cf"`
	ToolRuns    int     `json:"toolRuns"`
	EstCF       float64 `json:"estCF"`
	EstToolRuns int     `json:"estToolRuns"`
}

// mixStream is one round's jobs.
type mixStream struct {
	pool []poolBlock
	reqs []*apiv1.CompileRequest
	// source is the whole pool the stream was drawn from.
	source []poolBlock
	// picks[j] are job j's pool indices, one per block type.
	picks [][]int
	// warmup is a job over warmupBlocks pool blocks outside the round.
	warmup *apiv1.CompileRequest
}

// warmupBlocks is the size of the warm-up job.
const warmupBlocks = 5

// drawPool generates the pool's candidate blocks in their api/v1 form.
func drawPool() ([]poolBlock, error) {
	var out []poolBlock
	for _, spec := range rtlgen.GenerateMix(rand.New(rand.NewSource(poolSeed)), poolDraw) {
		b, err := wireForm(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// loadPool draws the pool and keeps the blocks the reference lists, in
// its order.
func loadPool(path string) ([]poolBlock, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var refs []poolRef
	if err := json.Unmarshal(data, &refs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	drawn, err := drawPool()
	if err != nil {
		return nil, err
	}
	byName := make(map[string]poolBlock, len(drawn))
	for _, b := range drawn {
		byName[b.spec.Name] = b
	}
	pool := make([]poolBlock, len(refs))
	for i, ref := range refs {
		b, ok := byName[ref.Name]
		if !ok {
			return nil, fmt.Errorf("%s: block %s is not in the generated pool", path, ref.Name)
		}
		b.ref = ref
		pool[i] = b
	}
	return pool, nil
}

// newMixStream generates a round of jobs from seed over the first
// jobs·5/2 pool blocks, each referenced twice.
func newMixStream(pool []poolBlock, seed int64, jobs int) (*mixStream, error) {
	blocks := jobs * (minJobBlocks + maxJobBlocks) / 4
	if jobs%2 != 0 || blocks+warmupBlocks > len(pool) {
		return nil, fmt.Errorf("a round of %d jobs needs an even job count and %d pool blocks (have %d)",
			jobs, blocks+warmupBlocks, len(pool))
	}
	rng := rand.New(rand.NewSource(seed))
	s := &mixStream{source: pool, pool: pool[:blocks], warmup: &apiv1.CompileRequest{Device: mixDevice,
		Search: &apiv1.SearchWindow{Start: searchStart, Step: searchStep, Max: searchMax}}}
	for i, b := range pool[blocks : blocks+warmupBlocks] {
		s.warmup.Design.Blocks = append(s.warmup.Design.Blocks, b.wire)
		s.warmup.Design.Instances = append(s.warmup.Design.Instances, apiv1.InstanceSpec{Name: b.wire.Name, Block: i})
	}
	// Job sizes start at 5 and move pairwise within 4..6, keeping the
	// total at two references per block.
	sizes := make([]int, jobs)
	for j := range sizes {
		sizes[j] = (minJobBlocks + maxJobBlocks) / 2
	}
	for i := 0; i < 2*jobs; i++ {
		a, b := rng.Intn(jobs), rng.Intn(jobs)
		if a != b && sizes[a] < maxJobBlocks && sizes[b] > minJobBlocks {
			sizes[a]++
			sizes[b]--
		}
	}
	picks, err := assignBlocks(sizes, blocks, rng)
	if err != nil {
		return nil, err
	}
	for j, pick := range picks {
		req := &apiv1.CompileRequest{
			Device: mixDevice,
			Search: &apiv1.SearchWindow{Start: searchStart, Step: searchStep, Max: searchMax},
			Stitch: apiv1.StitchParams{Seed: 1 + rng.Int63n(stitchUniverse), Backend: "hybrid",
				Anneal: &apiv1.AnnealParams{Iterations: mixIterations}},
		}
		if estimatorJob(j) {
			req.Mode = apiv1.ModeSpec{Kind: "estimator"}
		}
		for bi, pi := range pick {
			req.Design.Blocks = append(req.Design.Blocks, s.pool[pi].wire)
			for c, n := 0, 1+rng.Intn(2); c < n; c++ {
				req.Design.Instances = append(req.Design.Instances,
					apiv1.InstanceSpec{Name: fmt.Sprintf("b%d_%d", bi, c), Block: bi})
			}
		}
		n := len(req.Design.Instances)
		for i := 1; i < n; i++ {
			req.Design.Nets = append(req.Design.Nets, apiv1.NetSpec{From: i - 1, To: i, Width: 8 << rng.Intn(3)})
		}
		if from, to := rng.Intn(n), rng.Intn(n); from != to {
			req.Design.Nets = append(req.Design.Nets, apiv1.NetSpec{From: from, To: to, Width: 8})
		}
		s.reqs = append(s.reqs, req)
		s.picks = append(s.picks, pick)
	}
	return s, nil
}

// estimatorJob reports whether job j of a round uses estimator mode.
func estimatorJob(j int) bool { return j%estimatorEvery == estimatorEvery-1 }

// assignBlocks fills the jobs' block slots so that every block is
// referenced twice, in two different jobs. A block's first reference
// comes from the pool's fixed split into estimator-first blocks (the
// lowest indices) and minsweep-first ones, and lands in a job of that
// mode: the shared cache serves a repeated block whichever mode first
// implemented it, so fixing which mode implements each block keeps the
// round's search work the same for every seed. First references thin
// out over the first 80% of the round (cache warm-up); the remaining
// slots repeat blocks introduced by earlier jobs, drawn at random.
func assignBlocks(sizes []int, blocks int, rng *rand.Rand) ([][]int, error) {
	jobs := len(sizes)
	// intro[j] first references in job j follow the profile
	// clamp(a − 1.6·j/jobs, 0, 1) of the job's slots, with a chosen so
	// that they sum to one per block (a ≈ 1.3 for a long round), rounded
	// by largest remainder. The first job introduces only new blocks.
	profile := func(a float64) ([]float64, float64) {
		want := make([]float64, jobs)
		sum := 0.0
		for j, size := range sizes {
			want[j] = math.Max(0, math.Min(1, a-1.6*float64(j)/float64(jobs))) * float64(size)
			sum += want[j]
		}
		return want, sum
	}
	lo, hi := 1.0, 3.0
	for i := 0; i < 60; i++ {
		if _, sum := profile((lo + hi) / 2); sum < float64(blocks) {
			lo = (lo + hi) / 2
		} else {
			hi = (lo + hi) / 2
		}
	}
	want, _ := profile(hi)
	intro := make([]int, jobs)
	total := 0
	for j := range want {
		intro[j] = int(want[j])
		total += intro[j]
	}
	order := rng.Perm(jobs)
	sort.SliceStable(order, func(a, b int) bool {
		return want[order[a]]-float64(intro[order[a]]) > want[order[b]]-float64(intro[order[b]])
	})
	for _, j := range order {
		if total < blocks && intro[j] < sizes[j] && want[j] > float64(intro[j]) {
			intro[j]++
			total++
		}
	}
	if total != blocks {
		return nil, fmt.Errorf("cannot place %d first references in %d jobs", blocks, jobs)
	}
	estFirst := 0
	for j := range sizes {
		if estimatorJob(j) {
			estFirst += intro[j]
		}
	}
	var queues [2][]int // minsweep-first, estimator-first
	for _, b := range rng.Perm(blocks) {
		q := 0
		if b < estFirst {
			q = 1
		}
		queues[q] = append(queues[q], b)
	}
	picks := make([][]int, jobs)
	var avail []int
	for j, size := range sizes {
		q := 0
		if estimatorJob(j) {
			q = 1
		}
		firsts := queues[q][:intro[j]]
		queues[q] = queues[q][intro[j]:]
		pick := append([]int(nil), firsts...)
		for len(pick) < size {
			if len(avail) == 0 {
				return nil, fmt.Errorf("job %d: no block left to repeat", j)
			}
			k := rng.Intn(len(avail))
			pick = append(pick, avail[k])
			avail[k] = avail[len(avail)-1]
			avail = avail[:len(avail)-1]
		}
		rng.Shuffle(len(pick), func(a, b int) { pick[a], pick[b] = pick[b], pick[a] })
		picks[j] = pick
		avail = append(avail, firsts...)
	}
	if len(avail) != 0 || len(queues[0])+len(queues[1]) != 0 {
		return nil, fmt.Errorf("%d blocks left unrepeated", len(avail)+len(queues[0])+len(queues[1]))
	}
	return picks, nil
}

// checkWireForms checks that each pool block's api/v1 form, as the
// library builds and synthesizes it, is the module the replay
// elaborates from its spec (same content hash). The traced run needs
// it; the daemon only ever sees the api/v1 form.
func (s *mixStream) checkWireForms() error {
	flow, err := macroflow.NewFlow(mixDevice)
	if err != nil {
		return err
	}
	for _, b := range s.pool {
		var buf bytes.Buffer
		if err := flow.DumpNetlist(&buf, wireSpec(b.wire)); err != nil {
			return err
		}
		lib, err := netlist.ReadText(&buf)
		if err != nil {
			return err
		}
		m, err := synth.Elaborate(b.spec)
		if err == nil {
			_, err = synth.Optimize(m)
		}
		if err != nil {
			return err
		}
		if implcache.ModuleHash(m) != implcache.ModuleHash(lib) {
			return fmt.Errorf("block %s: the api/v1 form elaborates to a different module than the generated spec", b.spec.Name)
		}
	}
	return nil
}

// wireSpec builds the macroflow.Spec an api/v1 block describes.
func wireSpec(b apiv1.BlockSpec) *macroflow.Spec {
	spec := macroflow.NewSpec(b.Name)
	for _, c := range b.Components {
		switch c.Kind {
		case apiv1.CompShiftRegs:
			spec.ShiftRegs(c.Count, c.Length, c.ControlSets, c.Fanin)
		case apiv1.CompSRLs:
			spec.SRLs(c.Count, c.Length, c.ControlSets)
		case apiv1.CompMemory:
			spec.Memory(c.Width, c.Depth)
		case apiv1.CompDistributedMemory:
			spec.DistributedMemory(c.Width, c.Depth)
		case apiv1.CompSumOfSquares:
			spec.SumOfSquares(c.Width, c.Terms)
		case apiv1.CompLFSRs:
			spec.LFSRs(c.Count, c.Width, c.UseCarry, c.UseSRL)
		case apiv1.CompLogic:
			spec.Logic(c.LUTs, c.Fanin, c.Depth)
		}
	}
	return spec
}

// checkJob compares a job's blocks with the pool reference: each must
// carry the minsweep or the estimator outcome of its block.
func (s *mixStream) checkJob(j int, res *apiv1.CompileResult) []string {
	if len(res.Blocks) != len(s.picks[j]) {
		return []string{fmt.Sprintf("%d blocks, request has %d", len(res.Blocks), len(s.picks[j]))}
	}
	var bad []string
	for i, b := range res.Blocks {
		ref := s.pool[s.picks[j][i]].ref
		if (b.CF != ref.CF || b.ToolRuns != ref.ToolRuns) && (b.CF != ref.EstCF || b.ToolRuns != ref.EstToolRuns) {
			bad = append(bad, fmt.Sprintf("block %s: cf=%.2f runs=%d, reference minsweep %.2f/%d, estimator %.2f/%d",
				ref.Name, b.CF, b.ToolRuns, ref.CF, ref.ToolRuns, ref.EstCF, ref.EstToolRuns))
		}
	}
	return bad
}

// buildPoolReference draws the pool, keeps the blocks of at most
// maxEstSlices estimated slices that both CF modes implement, and
// records poolSize of them, in a seeded order, with their outcomes.
func buildPoolReference(e *env) ([]poolRef, error) {
	drawn, err := drawPool()
	if err != nil {
		return nil, err
	}
	est, err := loadEstimator(e.refPath(estimatorFile))
	if err != nil {
		return nil, err
	}
	var refs []poolRef
	for _, b := range drawn {
		m, err := synth.Elaborate(b.spec)
		if err != nil {
			return nil, err
		}
		if _, err := synth.Optimize(m); err != nil {
			return nil, err
		}
		if place.QuickPlace(m).EstSlices > maxEstSlices {
			continue
		}
		one := &apiv1.CompileRequest{Device: mixDevice, SkipStitch: true,
			Search: &apiv1.SearchWindow{Start: searchStart, Step: searchStep, Max: searchMax},
			Design: apiv1.DesignSpec{Blocks: []apiv1.BlockSpec{b.wire},
				Instances: []apiv1.InstanceSpec{{Name: "x", Block: 0}}}}
		sweep, _, err1 := compileRequest(one, "minsweep", est, nil, macroflow.CheckOff)
		byEst, _, err2 := compileRequest(one, "estimator", est, nil, macroflow.CheckOff)
		if err1 != nil || err2 != nil {
			continue
		}
		refs = append(refs, poolRef{Name: b.spec.Name,
			CF: sweep.Blocks[0].CF, ToolRuns: sweep.Blocks[0].ToolRuns,
			EstCF: byEst.Blocks[0].CF, EstToolRuns: byEst.Blocks[0].ToolRuns})
	}
	rng := rand.New(rand.NewSource(poolSeed))
	rng.Shuffle(len(refs), func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
	if len(refs) < poolSize {
		return nil, fmt.Errorf("only %d usable pool blocks, want %d", len(refs), poolSize)
	}
	return refs[:poolSize], nil
}

// wireForm converts a generated spec into the api/v1 component list
// and normalizes the spec to what that list elaborates to: SRL banks
// take fanin 1 and logic clouds the wiring seed the library derives
// from the block name.
func wireForm(spec rtlgen.Spec) (poolBlock, error) {
	b := poolBlock{spec: rtlgen.Spec{Name: spec.Name}, wire: apiv1.BlockSpec{Name: spec.Name}}
	for k, c := range spec.Components {
		var w apiv1.ComponentSpec
		switch t := c.(type) {
		case rtlgen.ShiftRegs:
			if t.NoSRL {
				w = apiv1.ComponentSpec{Kind: apiv1.CompShiftRegs, Count: t.Count, Length: t.Length, ControlSets: t.ControlSets, Fanin: t.Fanin}
			} else {
				t.Fanin = 1
				c = t
				w = apiv1.ComponentSpec{Kind: apiv1.CompSRLs, Count: t.Count, Length: t.Length, ControlSets: t.ControlSets}
			}
		case rtlgen.LUTMemory:
			w = apiv1.ComponentSpec{Kind: apiv1.CompMemory, Width: t.Width, Depth: t.Depth}
			if t.ForceDistributed {
				w.Kind = apiv1.CompDistributedMemory
			}
		case rtlgen.SumOfSquares:
			w = apiv1.ComponentSpec{Kind: apiv1.CompSumOfSquares, Width: t.Width, Terms: t.Terms}
		case rtlgen.LFSRBank:
			w = apiv1.ComponentSpec{Kind: apiv1.CompLFSRs, Count: t.Count, Width: t.Width, UseCarry: t.UseCarry, UseSRL: t.UseSRL}
		case rtlgen.RandomLogic:
			t.Seed = logicSeed(spec.Name, k)
			c = t
			w = apiv1.ComponentSpec{Kind: apiv1.CompLogic, LUTs: t.LUTs, Fanin: t.Fanin, Depth: t.Depth}
		default:
			return poolBlock{}, fmt.Errorf("block %s: no api/v1 form for component %T", spec.Name, c)
		}
		b.spec.Components = append(b.spec.Components, c)
		b.wire.Components = append(b.wire.Components, w)
	}
	return b, nil
}

// logicSeed is the wiring seed macroflow.Spec.Logic gives the k-th
// component of a block: FNV-64a of the name and the component index.
// The replay cross-check fails if the two ever disagree.
func logicSeed(name string, k int) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{byte(k)})
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// replayUnits is the stream as the replay executes it, in job order.
func (s *mixStream) replayUnits() []*replayUnit {
	dev := fabric.XC7Z020()
	units := make([]*replayUnit, len(s.reqs))
	for j, req := range s.reqs {
		u := &replayUnit{dev: dev, stitch: stitchConfig(req.Stitch.Seed, req.Stitch.Backend, mixIterations, 0)}
		for bi, pi := range s.picks[j] {
			u.types = append(u.types, replayType{
				name: req.Design.Blocks[bi].Name, spec: s.pool[pi].spec,
				estimator: req.Mode.Kind == "estimator",
			})
		}
		for _, in := range req.Design.Instances {
			u.instances = append(u.instances, stitch.Instance{Name: in.Name, Block: in.Block})
		}
		for _, n := range req.Design.Nets {
			u.nets = append(u.nets, stitch.Net{From: n.From, To: n.To, Weight: float64(n.Width) / 16})
		}
		units[j] = u
	}
	return units
}

// mixSetup generates the stream, loads the estimator and starts a
// warmed-up macroflowd with a fresh cache.
func mixSetup(e *env) (*mixStream, *macroflow.Estimator, *daemon, error) {
	pool, err := loadPool(e.refPath(poolFile))
	if err != nil {
		return nil, nil, nil, err
	}
	s, err := newMixStream(pool, roundSeed(e.seed, 0), e.streamJobs)
	if err != nil {
		return nil, nil, nil, err
	}
	est, err := loadEstimator(e.refPath(estimatorFile))
	if err != nil {
		return nil, nil, nil, err
	}
	d, err := s.startDaemon(e)
	if err != nil {
		return nil, nil, nil, err
	}
	return s, est, d, nil
}

// startDaemon starts a macroflowd with a fresh cache and runs the
// warm-up job through it, so the round does not pay the daemon's lazy
// start-up (connections, worker goroutines, heap growth). The warm-up
// blocks are pool blocks the round never uses.
func (s *mixStream) startDaemon(e *env) (*daemon, error) {
	dir, err := e.freshDir("daemon-")
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(e, dir)
	if err != nil {
		return nil, err
	}
	if jobs, _ := closedLoop(d, []*apiv1.CompileRequest{s.warmup}); jobs[0].err != nil {
		d.stop()
		return nil, fmt.Errorf("warm-up job: %w", jobs[0].err)
	}
	return d, nil
}

func loadEstimator(path string) (*macroflow.Estimator, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return macroflow.LoadEstimator(f)
}

// qualityRounds is how many rounds every run completes; stitch_cost and
// placed_frac average over their jobs, so the quality metrics do not
// depend on how many rounds fit in the run.
const qualityRounds = 3

// roundSeed is the stream seed of a round: every round of a run draws
// its own stream, so a run's figures average over several groupings of
// the same pool blocks.
func roundSeed(seed int64, round int) int64 { return seed*1000 + int64(round) }

// measureMix runs rounds, each a stream of its own on a freshly started
// daemon with an empty cache, until the run's duration has passed, and
// at least qualityRounds times. Every round implements
// the same pool blocks.
func measureMix(e *env, r *run) {
	var stream *mixStream
	var est *macroflow.Estimator
	var d *daemon
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.stop()
		}
		sw := startStopwatch()
		var err error
		stream, est, d, err = mixSetup(e)
		times = append(times, sw.seconds())
		if err != nil {
			r.fail("set-up: %v", err)
			return
		}
	}
	first := stream
	var host hostSpeed
	// Set-up left garbage in this process; collect it now rather than
	// while the daemon is measured.
	runtime.GC()

	var lat, cpu, alloc, rss, costs []float64
	var firstJobs []jobResult
	placed, instances := 0, 0
	measured := 0.0 // less steal; the run itself ends on wall time
	start := time.Now()
	for round := 0; round < qualityRounds || time.Since(start).Seconds() < e.seconds; round++ {
		if round > 0 {
			var err error
			if stream, err = newMixStream(stream.source, roundSeed(e.seed, round), e.streamJobs); err != nil {
				r.fail("%v", err)
				return
			}
			if d, err = stream.startDaemon(e); err != nil {
				r.fail("%v", err)
				return
			}
		}
		host.sample(3) // the daemon is up and idle
		cpu0, err1 := procCPU(d.pid())
		alloc0, err2 := d.totalAllocMB()
		jobs, wall := closedLoop(d, stream.reqs)
		cpu1, err3 := procCPU(d.pid())
		alloc1, err4 := d.totalAllocMB()
		hwm, err5 := peakRSSMB(d.pid())
		d.stop()
		for _, err := range []error{err1, err2, err3, err4, err5} {
			if err != nil {
				r.fail("daemon resource usage: %v", err)
			}
		}
		measured += wall
		for i, j := range jobs {
			r.attempted++
			if j.err != nil {
				r.failed++
				fmt.Fprintf(os.Stderr, "macrobench: job %d failed: %v\n", i, j.err)
				continue
			}
			lat = append(lat, j.latency)
			for _, p := range stream.checkJob(i, j.res) {
				r.fail("round %d job %d: %s", round, i, p)
			}
			if st := j.res.Stitch; st != nil && round < qualityRounds {
				costs = append(costs, st.FinalCost)
				placed += st.Placed
				instances += st.Placed + st.Unplaced
			}
		}
		cpu = append(cpu, (cpu1-cpu0)/float64(len(jobs)))
		alloc = append(alloc, (alloc1-alloc0)/float64(len(jobs)))
		rss = append(rss, hwm)
		fmt.Fprintf(os.Stderr, "macrobench: round %d: %d jobs in %.2f s less steal, daemon cpu %.4f s/job, alloc %.3f MB/job\n",
			round, len(jobs), wall, cpu[round], alloc[round])
		if round == 0 {
			firstJobs = jobs
		}
	}
	f := host.scale()
	fmt.Fprintf(os.Stderr, "macrobench: reference kernel %.4f s (median of %d), time metrics scaled by %.3f\n",
		median(host.samples), len(host.samples), f)
	r.set("setup_s", median(times)*f)
	r.set("latency_p50_s", median(lat)*f)
	r.set("latency_p90_s", quantile(lat, 0.9)*f)
	r.set("compiles_per_s", float64(len(lat))/measured/f)
	r.set("cpu_s", median(cpu)*f)
	r.set("alloc_mb", median(alloc))
	r.set("peak_rss_mb", median(rss))
	r.set("stitch_cost", mean(costs))
	r.set("placed_frac", ratio(float64(placed), float64(instances)))
	r.set("success_rate", ratio(float64(r.attempted-r.failed), float64(r.attempted)))
	checkSamples(first, est, firstJobs, r)
}

// checkSamples compares sampled daemon results with in-process Compile
// runs of the same requests, outside the timed region; the first sample
// runs under the flow's sampled oracle checks (the run's oracle audit).
func checkSamples(s *mixStream, est *macroflow.Estimator, jobs []jobResult, r *run) {
	samples := []int{0, estimatorEvery - 1, len(jobs) - 1}
	for n, i := range samples {
		if i < 0 || i >= len(jobs) || jobs[i].res == nil {
			continue
		}
		check := macroflow.CheckOff
		if n == 0 {
			check = macroflow.CheckSampled
		}
		for _, p := range matchInProcess(s.reqs[i], jobs[i].res, est, check) {
			r.fail("job %d: %s", i, p)
		}
	}
}

// compileRequest runs a request in-process through Flow.Compile, as
// macroflowd does, under the given CF mode kind and block cache.
func compileRequest(req *apiv1.CompileRequest, kind string, est *macroflow.Estimator, cache *macroflow.BlockCache, check macroflow.CheckLevel) (*apiv1.CompileResult, *macroflow.VerifyReport, error) {
	flow, err := macroflow.NewFlow(req.Device)
	if err != nil {
		return nil, nil, err
	}
	if w := req.Search; w != nil {
		flow.SetSearch(w.Start, w.Step, w.Max)
	}
	d, err := req.Design.BuildDesign()
	if err != nil {
		return nil, nil, err
	}
	mode := macroflow.MinSweepCF()
	if kind == "estimator" {
		mode = macroflow.EstimatorCF(est)
	}
	so, err := req.Stitch.Options()
	if err != nil {
		return nil, nil, err
	}
	so.Check = check
	res, err := flow.Compile(d, mode, macroflow.CompileOptions{
		Stitch:     so,
		Implement:  macroflow.ImplementOptions{Cache: cache, Check: check},
		SkipStitch: req.SkipStitch,
	})
	if err != nil {
		return nil, nil, err
	}
	return apiv1.ResultFromCompile(res, req.SkipStitch), res.Verify, nil
}

// matchInProcess checks one daemon result against in-process compiles
// of the same request. The daemon's shared block cache serves a block by
// its configuration whichever CF mode first implemented it, so a block
// of an estimator job may carry the minsweep implementation and the
// other way round. Each block must therefore equal the fresh in-process
// outcome of one of the two modes; the request is then compiled again
// with those block implementations cached and must equal the daemon's
// result in every block and in the stitch.
func matchInProcess(req *apiv1.CompileRequest, got *apiv1.CompileResult, est *macroflow.Estimator, check macroflow.CheckLevel) []string {
	own, other := "minsweep", "estimator"
	if req.Mode.Kind == "estimator" {
		own, other = other, own
	}
	byMode := make(map[string]*apiv1.CompileResult)
	for _, kind := range []string{own, other} {
		res, vr, err := compileRequest(req, kind, est, nil, check)
		if err != nil {
			return []string{fmt.Sprintf("in-process %s compile: %v", kind, err)}
		}
		if vr != nil && (vr.Checks == 0 || !vr.Ok()) {
			return []string{"in-process oracle audit: " + vr.String()}
		}
		byMode[kind] = res
	}
	if len(got.Blocks) != len(req.Design.Blocks) {
		return []string{fmt.Sprintf("%d blocks in the result, %d in the request", len(got.Blocks), len(req.Design.Blocks))}
	}
	cache := macroflow.NewBlockCache()
	for i, b := range got.Blocks {
		kind := ""
		for _, k := range []string{own, other} {
			if sameBlock(b, byMode[k].Blocks[i]) {
				kind = k
				break
			}
		}
		if kind == "" {
			return []string{fmt.Sprintf("block %s: %+v matches no in-process compile (%+v / %+v)",
				b.Name, b, byMode[own].Blocks[i], byMode[other].Blocks[i])}
		}
		one := &apiv1.CompileRequest{Device: req.Device, Search: req.Search, SkipStitch: true,
			Design: apiv1.DesignSpec{Blocks: req.Design.Blocks[i : i+1],
				Instances: []apiv1.InstanceSpec{{Name: "x", Block: 0}}}}
		if _, _, err := compileRequest(one, kind, est, cache, macroflow.CheckOff); err != nil {
			return []string{fmt.Sprintf("block %s: %v", b.Name, err)}
		}
	}
	want, _, err := compileRequest(req, own, est, cache, macroflow.CheckOff)
	if err != nil {
		return []string{fmt.Sprintf("in-process compile: %v", err)}
	}
	var bad []string
	for i := range got.Blocks {
		if !sameBlock(got.Blocks[i], want.Blocks[i]) {
			bad = append(bad, fmt.Sprintf("block %d: daemon %+v, in-process %+v", i, got.Blocks[i], want.Blocks[i]))
		}
	}
	if !sameStitch(got.Stitch, want.Stitch) {
		bad = append(bad, fmt.Sprintf("stitch: daemon %+v, in-process %+v", got.Stitch, want.Stitch))
	}
	return bad
}

// sameBlock compares everything about a block implementation except its
// name (the cache serves content-identical blocks under the name they
// were first implemented with).
func sameBlock(a, b apiv1.BlockResult) bool {
	a.Name, b.Name = "", ""
	return a == b
}

func sameStitch(a, b *apiv1.StitchSummary) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Placed == b.Placed && a.Unplaced == b.Unplaced && a.FinalCost == b.FinalCost &&
		a.Iterations == b.Iterations && a.IllegalMoves == b.IllegalMoves
}

// traceMix is the daemon-mix traced run: one round through a fresh
// daemon for the service-layer and cache metrics, the same stream
// compiled in-process in job order for the tool runs the replay must
// reproduce, and alternating untraced and traced single-threaded
// replays.
func traceMix(e *env, r *run) {
	s, est, d, err := mixSetup(e)
	if err != nil {
		r.fail("set-up: %v", err)
		return
	}
	if err := s.checkWireForms(); err != nil {
		d.stop()
		r.fail("%v", err)
		return
	}
	// The round's cache counts are the daemon's counters after it minus
	// those after the warm-up job.
	before, err := d.client.Stats(context.Background())
	if err != nil {
		d.stop()
		r.fail("stats: %v", err)
		return
	}
	jobs, _ := closedLoop(d, s.reqs)
	after, err := d.client.Stats(context.Background())
	if err != nil {
		d.stop()
		r.fail("stats: %v", err)
		return
	}
	setServiceMetrics(r, d, s.reqs, jobs)
	d.stop()
	for i, j := range jobs {
		r.attempted++
		if j.err != nil {
			r.failed++
			r.fail("job %d: %v", i, j.err)
			continue
		}
		for _, p := range s.checkJob(i, j.res) {
			r.fail("job %d: %s", i, p)
		}
	}
	n := float64(len(s.reqs))
	c0, c1 := before.Cache, after.Cache
	r.set("blockcache.mem_hits", float64(c1.MemHits-c0.MemHits)/n)
	r.set("blockcache.singleflight_hits", float64(c1.SingleflightHits-c0.SingleflightHits)/n)
	r.set("blockcache.disk_hits", float64(c1.DiskHits-c0.DiskHits)/n)
	r.set("blockcache.misses", float64(c1.Misses-c0.Misses)/n)
	r.set("blockcache.stores", float64(c1.Stores-c0.Stores)/n)

	// The untraced tool runs: the stream compiled in job order with one
	// shared cache, as one submitter would see it.
	cache := macroflow.NewBlockCache()
	var inproc []*apiv1.CompileResult
	toolRuns := 0
	for i, req := range s.reqs {
		res, _, err := compileRequest(req, req.Mode.Kind, est, cache, macroflow.CheckOff)
		if err != nil {
			r.fail("in-process job %d: %v", i, err)
			return
		}
		toolRuns += res.ToolRuns
		inproc = append(inproc, res)
	}

	model, err := loadEstimatorModel(e.refPath(estimatorFile))
	if err != nil {
		r.fail("%v", err)
		return
	}
	traced, overhead, err := measureReplay(s.replayUnits(),
		func() (string, error) { return e.freshDir("replay-") }, model, false)
	if err != nil {
		r.fail("replay: %v", err)
		return
	}
	traced.setLayerMetrics(r, len(s.reqs), overhead)
	for _, bad := range traced.crossCheck() {
		r.fail("replay: %s", bad)
	}
	if traced.n.probes != toolRuns {
		r.fail("replay probes %d != untraced tool runs %d", traced.n.probes, toolRuns)
	}
	cs := cache.Stats()
	if traced.n.misses != cs.Misses || traced.n.memHits != cs.MemHits+cs.SingleflightHits {
		r.fail("replay cache outcomes (misses %d, memory %d) != flow %+v", traced.n.misses, traced.n.memHits, cs)
	}
	for i, res := range traced.results {
		if st := inproc[i].Stitch; st == nil || st.Placed != res.Placed || st.Unplaced != res.Unplaced || st.FinalCost != res.FinalCost {
			r.fail("job %d: replay stitch %d/%d/%g != in-process %+v", i, res.Placed, res.Unplaced, res.FinalCost, st)
		}
	}
}
