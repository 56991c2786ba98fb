package macroflow

import (
	"fmt"
	"sync"

	"macroflow/internal/implcache"
	"macroflow/internal/netlist"
	"macroflow/internal/obs"
	"macroflow/internal/pblock"
	"macroflow/internal/place"
	"macroflow/internal/stitch"
)

// Design is a user-defined block design: unique block types, the
// instances that replicate them, and the streams connecting instances.
// It is the generic counterpart of the built-in cnvW1A1 case study —
// the input a RapidWright-style flow expects.
type Design struct {
	types     []*Spec
	names     []string
	instances []designInst
	nets      []designNet
}

type designInst struct {
	name string
	typ  int
}

type designNet struct {
	from, to int
	width    int
}

// NewDesign returns an empty block design.
func NewDesign() *Design { return &Design{} }

// AddBlockType registers a unique block configuration and returns its
// type index. Each type is synthesized and implemented once, no matter
// how many instances use it.
func (d *Design) AddBlockType(spec *Spec) int {
	d.types = append(d.types, spec)
	d.names = append(d.names, spec.Name())
	return len(d.types) - 1
}

// AddInstance adds one occurrence of the given block type and returns
// its instance index.
func (d *Design) AddInstance(typeIdx int, name string) (int, error) {
	if typeIdx < 0 || typeIdx >= len(d.types) {
		return 0, fmt.Errorf("macroflow: block type %d out of range", typeIdx)
	}
	d.instances = append(d.instances, designInst{name: name, typ: typeIdx})
	return len(d.instances) - 1, nil
}

// Connect adds a width-bit stream between two instances; the stitcher
// minimizes the weighted wirelength of these connections.
func (d *Design) Connect(from, to, width int) error {
	if from < 0 || from >= len(d.instances) || to < 0 || to >= len(d.instances) {
		return fmt.Errorf("macroflow: connect endpoints out of range")
	}
	if width <= 0 {
		width = 1
	}
	d.nets = append(d.nets, designNet{from: from, to: to, width: width})
	return nil
}

// NumTypes returns the number of unique block types.
func (d *Design) NumTypes() int { return len(d.types) }

// NumInstances returns the number of block instances.
func (d *Design) NumInstances() int { return len(d.instances) }

// BlockCache stores pre-implemented blocks keyed by device and block
// configuration — the premise of the whole flow: when one block of a
// design changes, every other block's placed-and-routed result is reused
// verbatim (the paper's Introduction scenario). An in-memory map serves
// repeat compiles within one process; an optional persistent layer (see
// NewPersistentBlockCache) carries implementations across processes.
type BlockCache struct {
	mu sync.Mutex
	// m maps device plus spec configuration (key) to a finished block;
	// Compile consults it before elaborating.
	m map[string]cacheEntry
	// byModule caches search results keyed by elaborated module content
	// (blockDiskKey), serving RunCNV (which skips m) and spec-keyed
	// misses whose content is unchanged.
	byModule map[string]pblock.SearchResult
	// inflight dedupes concurrent identical searches (singleflight):
	// while one goroutine — possibly serving another job in a
	// shared-cache daemon — implements a block, later callers with the
	// same content-addressed key wait for its result instead of
	// repeating the search.
	inflight map[string]*inflightSearch
	disk     *implcache.Cache
	stats    CacheStats
}

// inflightSearch is one in-progress block implementation other callers
// can wait on. sr/err are written exactly once, before done is closed.
type inflightSearch struct {
	done chan struct{}
	sr   pblock.SearchResult
	err  error
}

type cacheEntry struct {
	impl   *pblock.Implementation
	result ModuleResult
}

// CacheStats are a BlockCache's lifetime counters, split by layer.
type CacheStats struct {
	// MemHits counts blocks served from the in-process map.
	MemHits int
	// DiskHits counts blocks rebuilt from the persistent layer.
	DiskHits int
	// SingleflightHits counts blocks whose search was deduplicated
	// against an identical in-flight implementation: another goroutine
	// (possibly another job sharing the cache in a daemon) was already
	// computing the same content-addressed record, so this call waited
	// and shared its result instead of repeating the search.
	SingleflightHits int
	// Misses counts blocks that had to be implemented from scratch.
	Misses int
	// Stores counts records written to the persistent layer.
	Stores int
	// Negatives counts persistent-layer records that replayed a cached
	// infeasibility verdict (the search is skipped, but no
	// implementation is produced).
	Negatives int
}

// NewBlockCache returns an empty in-memory cache.
func NewBlockCache() *BlockCache {
	return &BlockCache{
		m:        make(map[string]cacheEntry),
		byModule: make(map[string]pblock.SearchResult),
	}
}

// NewPersistentBlockCache returns a cache backed by a content-addressed
// on-disk store rooted at dir, so implementations survive process exits:
// a fresh process compiling the same design performs zero place-and-route
// runs for unchanged blocks. Records are keyed by device, module content
// hash, CF mode and oracle configuration; a record whose placement no
// longer verifies is ignored, never served.
func NewPersistentBlockCache(dir string) (*BlockCache, error) {
	disk, err := implcache.Open(dir)
	if err != nil {
		return nil, err
	}
	return &BlockCache{
		m:        make(map[string]cacheEntry),
		byModule: make(map[string]pblock.SearchResult),
		disk:     disk,
	}, nil
}

// Len returns the number of block implementations held in memory.
func (c *BlockCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats returns a snapshot of the cache's hit/miss/store counters.
func (c *BlockCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// FlushStats persists the persistent layer's lifetime counters to its
// stats sidecar now (a no-op for a memory-only cache). Long-running
// processes — macroflowd in particular — call it on drain, so counters
// accumulated by a daemon session survive the process the same way CLI
// exits do.
func (c *BlockCache) FlushStats() error {
	if c.disk == nil {
		return nil
	}
	return c.disk.FlushStats()
}

// PersistentStats reports the persistent layer's lifetime counters
// (hits, misses, stores and negative verdicts across every process
// that ever used the cache directory, this one included). All zeros
// for a memory-only cache.
func (c *BlockCache) PersistentStats() (hits, misses, stores, negatives uint64) {
	if c.disk == nil {
		return 0, 0, 0, 0
	}
	s := c.disk.LifetimeStats()
	return s.Hits, s.Misses, s.Stores, s.Negatives
}

// key derives the cache key from the device and the full component
// configuration of the spec (name excluded: renaming a block must not
// fake a change, but any parameter change must).
func (c *BlockCache) key(device string, s *Spec) string {
	return fmt.Sprintf("%s|%#v", device, s.inner.Components)
}

// CompileOptions tunes Flow.Compile and Flow.RunCNV.
type CompileOptions struct {
	// Stitch tunes the SA stitcher.
	Stitch StitchOptions
	// Implement tunes block implementation.
	Implement ImplementOptions
	// Partition enables multi-region compilation (the zero value keeps
	// the single-device stitch, byte-identical to previous releases).
	Partition PartitionOptions
	// SkipStitch implements the blocks only.
	SkipStitch bool
}

// CompileResult is the outcome of compiling a generic design.
type CompileResult struct {
	// Blocks holds one result per unique type.
	Blocks []ModuleResult
	// ToolRuns sums the place-and-route attempts of this call (cache
	// hits contribute zero).
	ToolRuns int
	// CacheHits counts block types served from the cache rather than a
	// fresh search (CacheHits == Cache.MemHits + Cache.DiskHits +
	// Cache.SingleflightHits for this call).
	CacheHits int
	// Cache breaks the hits down by layer for this call: in-memory hits,
	// persistent-layer rebuilds, in-flight singleflight joins, misses
	// and new persistent stores.
	Cache CacheStats
	// Stitch is the assembled design (zero value when SkipStitch). For a
	// partitioned run it is the aggregate over all shards.
	Stitch StitchReport
	// Partition is the per-member breakdown of a partitioned run — nil
	// unless Partition.Shards was set.
	Partition *PartitionReport
	// Verify is the oracle cross-check report — nil unless a CheckLevel
	// was requested on Implement.Check or Stitch.Check.
	Verify *VerifyReport
}

// Compile implements every unique block of the design under the CF mode
// (reusing cached implementations when a cache is supplied) and stitches
// all instances onto the flow's device.
func (f *Flow) Compile(d *Design, mode CFMode, opts CompileOptions) (*CompileResult, error) {
	r, err := f.compileDesign(d, mode, opts, "flow.compile", true)
	if err != nil {
		return nil, err
	}
	return &CompileResult{
		Blocks:    r.Blocks,
		ToolRuns:  r.TotalToolRuns,
		CacheHits: r.CacheHits,
		Cache:     r.Cache,
		Stitch:    r.Stitch,
		Partition: r.Partition,
		Verify:    r.Verify,
	}, nil
}

// compileDesign is the one flow pipeline behind Compile and RunCNV:
// validate the options, implement every unique block on one worker
// pool, tally cache outcomes and tool runs, audit the blocks, then
// stitch all instances (sharded when partitioning is on). span names
// the root trace span; bySpec selects whether the spec-keyed cache
// layer is consulted (see compileBlock).
func (f *Flow) compileDesign(d *Design, mode CFMode, opts CompileOptions, span string, bySpec bool) (*CNVResult, error) {
	if len(d.types) == 0 {
		return nil, fmt.Errorf("macroflow: empty design")
	}
	im, so := opts.Implement, opts.Stitch
	if err := so.Validate(); err != nil {
		return nil, err
	}
	if err := im.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Partition.Validate(); err != nil {
		return nil, err
	}
	res := &CNVResult{
		Blocks:    make([]ModuleResult, len(d.types)),
		Instances: make([]int, len(d.types)),
	}
	impls := make([]*pblock.Implementation, len(d.types))
	hits := make([]blockHit, len(d.types))
	errs := make([]error, len(d.types))
	search := f.searchFor(im)
	rec := im.Obs
	root := rec.Start(span,
		obs.String("cf_mode", mode.kind),
		obs.Int("types", len(d.types)),
		obs.Int("instances", len(d.instances)))
	// When the searches themselves probe speculatively, split the budget
	// between block-level and probe-level parallelism.
	workers := blockWorkers(im.Workers, search.Workers)
	var wg sync.WaitGroup
	// Lane pool: each slot doubles as a trace lane so concurrent block
	// implementations render as parallel worker tracks.
	lanes := make(chan int, workers)
	for l := 0; l < workers; l++ {
		lanes <- l
		rec.LaneLabel(l+1, fmt.Sprintf("implement worker %d", l))
	}
	for ti := range d.types {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			lane := <-lanes
			defer func() { lanes <- lane }()
			sp := root.Child("implement.block",
				obs.String("block", d.names[ti])).WithLane(lane + 1)
			impls[ti], res.Blocks[ti], hits[ti], errs[ti] = f.compileBlock(d.types[ti], mode, search, im.Cache, bySpec, sp)
			if errs[ti] == nil {
				sp.Set(obs.Float("cf", res.Blocks[ti].CF),
					obs.Int("tool_runs", res.Blocks[ti].ToolRuns),
					obs.String("cache", hitName(hits[ti].kind)))
			}
			sp.End()
		}(ti)
	}
	wg.Wait()
	for _, in := range d.instances {
		res.Instances[in.typ]++
	}
	firstRun, estimated := 0, 0
	for ti := range d.types {
		if errs[ti] != nil {
			return nil, fmt.Errorf("macroflow: block %s: %w", d.names[ti], errs[ti])
		}
		if hits[ti].kind == hitMiss {
			res.TotalToolRuns += res.Blocks[ti].ToolRuns
		}
		tallyHit(hits[ti], &res.CacheHits, &res.Cache)
		if mode.kind == "estimator" && res.Blocks[ti].EstSlices >= 6 {
			estimated++
			if res.Blocks[ti].ToolRuns == 1 {
				firstRun++
			}
		}
	}
	if estimated > 0 {
		res.FirstRunRate = float64(firstRun) / float64(estimated)
	}
	rec.Add("flow.tool_runs", int64(res.TotalToolRuns))
	root.Set(obs.Int("tool_runs", res.TotalToolRuns),
		obs.Int("cache_hits", res.CacheHits))
	if im.Check != CheckOff || so.Check != CheckOff {
		res.Verify = &VerifyReport{}
	}
	f.verifyBlocks(im.Check, mode, search, impls, res.Blocks, hits, res.Verify, rec, root)
	if opts.SkipStitch {
		root.End()
		return res, nil
	}

	prob := &stitch.Problem{Dev: f.dev}
	for ti := range d.types {
		prob.Blocks = append(prob.Blocks, stitch.NewBlock(d.names[ti], impls[ti].Placement))
	}
	for _, in := range d.instances {
		prob.Instances = append(prob.Instances, stitch.Instance{Name: in.name, Block: in.typ})
	}
	for _, n := range d.nets {
		prob.Nets = append(prob.Nets, stitch.Net{From: n.from, To: n.to, Weight: float64(n.width) / 16})
	}
	if opts.Partition.enabled() {
		st, pr, err := f.stitchPartitioned(prob, so, opts.Partition, root, res.Verify)
		if err != nil {
			root.End()
			return nil, err
		}
		res.Stitch, res.Partition = st, pr
	} else {
		res.Stitch = f.stitchDesign(prob, so, root, res.Verify)
	}
	root.Set(obs.Float("final_cost", res.Stitch.FinalCost),
		obs.Int("placed", res.Stitch.Placed),
		obs.Int("unplaced", res.Stitch.Unplaced))
	root.End()
	return res, nil
}

// blockHit reports how one block's implementation was obtained.
type blockHit struct {
	kind   int // hitMiss, hitMem or hitDisk
	stored bool
}

const (
	hitMiss = iota
	hitMem
	hitDisk
	hitFlight
)

// hitName renders a blockHit kind for trace attributes.
func hitName(kind int) string {
	switch kind {
	case hitMem:
		return "mem"
	case hitDisk:
		return "disk"
	case hitFlight:
		return "singleflight"
	default:
		return "miss"
	}
}

// tallyHit folds one block's cache outcome into per-call counters;
// cached blocks contribute no tool runs (the caller skips them).
func tallyHit(h blockHit, cacheHits *int, stats *CacheStats) {
	switch h.kind {
	case hitMem:
		*cacheHits++
		stats.MemHits++
	case hitDisk:
		*cacheHits++
		stats.DiskHits++
	case hitFlight:
		*cacheHits++
		stats.SingleflightHits++
	default:
		stats.Misses++
		if h.stored {
			stats.Stores++
		}
	}
}

// compileBlock implements one block type. With bySpec, the spec-keyed
// in-process map answers without elaborating at all; otherwise (and on
// a map miss) the block is elaborated and handed to cachedImplement
// (module-keyed memory, then the persistent store, then a fresh
// search). The spec-keyed map ignores the CF mode, so the builtin cnv
// path skips it. sp, when non-nil, is the block's trace span.
func (f *Flow) compileBlock(spec *Spec, mode CFMode, search pblock.SearchConfig, cache *BlockCache, bySpec bool, sp *obs.Span) (*pblock.Implementation, ModuleResult, blockHit, error) {
	bySpec = bySpec && cache != nil
	var key string
	if bySpec {
		key = cache.key(f.dev.Name, spec)
		cache.mu.Lock()
		if e, ok := cache.m[key]; ok {
			cache.stats.MemHits++
			cache.mu.Unlock()
			search.Obs.Add("blockcache.mem_hit", 1)
			// The key excludes the name: the entry may have been stored
			// by a spec-identical block of another name.
			result := e.result
			result.Name = spec.Name()
			return e.impl, result, blockHit{kind: hitMem}, nil
		}
		cache.mu.Unlock()
	}
	m, rep, err := f.compile(spec, sp)
	if err != nil {
		return nil, ModuleResult{}, blockHit{}, err
	}
	search.Span = sp
	sr, hit, err := f.cachedImplement(m, rep, mode, search, cache)
	if err != nil {
		return nil, ModuleResult{}, hit, err
	}
	result := f.moduleResult(m, rep, sr)
	if bySpec {
		cache.mu.Lock()
		cache.m[key] = cacheEntry{impl: sr.Impl, result: result}
		cache.mu.Unlock()
	}
	return sr.Impl, result, hit, nil
}

// cachedImplement implements an elaborated module under the CF mode,
// consulting the cache layers in order: the module-keyed in-process map,
// then the in-flight singleflight registry (an identical search already
// running — in this job or a concurrent one sharing the cache — is
// joined, not repeated), then the persistent store (a disk record
// rebuilds the placement via a Verify-audited warm start), and only
// then a fresh search, whose outcome is written back to both layers.
func (f *Flow) cachedImplement(m *netlist.Module, rep place.ShapeReport, mode CFMode, search pblock.SearchConfig, cache *BlockCache) (pblock.SearchResult, blockHit, error) {
	if cache == nil {
		sr, err := f.implementModule(m, rep, mode, search)
		return sr, blockHit{}, err
	}
	key := f.blockDiskKey(m, rep, mode, search)
	cache.mu.Lock()
	if cache.byModule == nil {
		cache.byModule = make(map[string]pblock.SearchResult)
	}
	if sr, ok := cache.byModule[key]; ok {
		cache.stats.MemHits++
		cache.mu.Unlock()
		search.Obs.Add("blockcache.mem_hit", 1)
		return sr, blockHit{kind: hitMem}, nil
	}
	if fl, ok := cache.inflight[key]; ok {
		cache.mu.Unlock()
		<-fl.done
		search.Obs.Add("blockcache.singleflight_hit", 1)
		cache.mu.Lock()
		cache.stats.SingleflightHits++
		cache.mu.Unlock()
		// A failed leader does not poison followers beyond its own
		// error: the next cachedImplement call for this key elects a
		// fresh leader (negative verdicts persist via the disk layer).
		if fl.err != nil {
			return pblock.SearchResult{}, blockHit{}, fl.err
		}
		return fl.sr, blockHit{kind: hitFlight}, nil
	}
	fl := &inflightSearch{done: make(chan struct{})}
	if cache.inflight == nil {
		cache.inflight = make(map[string]*inflightSearch)
	}
	cache.inflight[key] = fl
	cache.mu.Unlock()
	sr, hit, err := f.missImplement(key, m, rep, mode, search, cache)
	// Publish before unregistering: byModule is already populated (on
	// success), so a caller arriving in between gets a memory hit.
	fl.sr, fl.err = sr, err
	cache.mu.Lock()
	delete(cache.inflight, key)
	cache.mu.Unlock()
	close(fl.done)
	return sr, hit, err
}

// missImplement resolves a block implementation the in-process map does
// not hold: the persistent store first, then a fresh search. Callers
// hold the key's singleflight slot.
func (f *Flow) missImplement(key string, m *netlist.Module, rep place.ShapeReport, mode CFMode, search pblock.SearchConfig, cache *BlockCache) (pblock.SearchResult, blockHit, error) {
	if cache.disk != nil {
		var rec pblock.ImplRecord
		if cache.disk.Get(key, &rec) {
			rsp := obs.StartChild(search.Obs, search.Span, "cache.rebuild")
			sr, rerr, ok := rec.Rebuild(f.dev, m, rep, search, f.cfg)
			if ok {
				if rerr != nil {
					// Negative verdict replayed from disk: the cached
					// record proves the block infeasible, no search runs.
					rsp.Set(obs.String("verdict", "negative"))
					rsp.End()
					search.Obs.Add("blockcache.negative", 1)
					cache.disk.NoteNegative()
					cache.mu.Lock()
					cache.stats.Negatives++
					cache.mu.Unlock()
					return pblock.SearchResult{}, blockHit{}, rerr
				}
				rsp.Set(obs.String("verdict", "warm"))
				rsp.End()
				search.Obs.Add("blockcache.disk_hit", 1)
				cache.mu.Lock()
				cache.byModule[key] = sr
				cache.stats.DiskHits++
				cache.mu.Unlock()
				return sr, blockHit{kind: hitDisk}, nil
			}
			rsp.Set(obs.String("verdict", "stale"))
			rsp.End()
		}
	}
	search.Obs.Add("blockcache.miss", 1)
	sr, err := f.implementModule(m, rep, mode, search)
	stored := false
	if cache.disk != nil {
		if rec, ok := pblock.RecordSearch(sr, err); ok {
			// Best effort: a failed store degrades to a future miss.
			if cache.disk.Put(key, rec) == nil {
				stored = true
			}
		}
	}
	cache.mu.Lock()
	cache.stats.Misses++
	if err == nil {
		cache.byModule[key] = sr
		if stored {
			cache.stats.Stores++
			search.Obs.Add("blockcache.store", 1)
		}
	}
	cache.mu.Unlock()
	if err != nil {
		return pblock.SearchResult{}, blockHit{stored: stored}, err
	}
	return sr, blockHit{stored: stored}, nil
}

// blockDiskKey addresses a block's persistent record by everything that
// can change its implementation: device, optimized module content, CF
// policy, the effective search and the oracle configuration. The
// estimator mode folds the predicted CF into the key — a retrained
// estimator addresses different records rather than being served stale
// ones.
func (f *Flow) blockDiskKey(m *netlist.Module, rep place.ShapeReport, mode CFMode, search pblock.SearchConfig) string {
	modeFP := mode.kind
	switch mode.kind {
	case "constant":
		modeFP = fmt.Sprintf("constant:%.4f", mode.constant)
	case "estimator":
		if rep.EstSlices < 6 {
			modeFP = "minsweep"
		} else {
			modeFP = fmt.Sprintf("estimator:%.6f", mode.estimator.predict(rep))
		}
	}
	return implcache.Key(
		"block",
		f.dev.Name,
		implcache.ModuleHash(m),
		modeFP,
		pblock.SearchFingerprint(search),
		pblock.ConfigFingerprint(f.cfg),
	)
}

// constantImplement is the escalating constant-CF policy shared with the
// cnv flow.
func (f *Flow) constantImplement(m *netlist.Module, rep place.ShapeReport, cf float64, search pblock.SearchConfig) (pblock.SearchResult, error) {
	ssp := obs.StartChild(search.Obs, search.Span, "search.constant",
		obs.String("module", m.Name), obs.Float("cf0", cf))
	oracle := search.Obs.Counter("mincf.oracle_runs")
	runs := 0
	for {
		runs++
		oracle.Add(1)
		psp := ssp.Child("oracle.probe", obs.Float("cf", cf))
		impl, err := pblock.Implement(f.dev, m, rep, cf, f.cfg)
		if err == nil {
			psp.Set(obs.String("verdict", "feasible"))
			psp.End()
			ssp.Set(obs.Float("cf", cf), obs.Int("tool_runs", runs))
			ssp.End()
			return pblock.SearchResult{CF: cf, Impl: impl, ToolRuns: runs}, nil
		}
		psp.Set(obs.String("verdict", "infeasible"))
		psp.End()
		cf += 0.1
		if cf > search.Max {
			ssp.Set(obs.Int("tool_runs", runs))
			ssp.End()
			return pblock.SearchResult{}, err
		}
	}
}
