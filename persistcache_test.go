package macroflow

import (
	"testing"
)

// TestPersistentBlockCacheCrossProcess exercises the persistent layer
// end to end: a compile populates the on-disk cache, and a second flow
// with a fresh cache instance over the same directory (modeling a new
// process) serves every block from disk — zero tool runs, identical
// per-block results.
func TestPersistentBlockCacheCrossProcess(t *testing.T) {
	dir := t.TempDir()

	flow, err := NewFlow("xc7z020")
	if err != nil {
		t.Fatal(err)
	}
	flow.SetSearch(0.9, 0.02, 3.0)
	cold, err := NewPersistentBlockCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := flow.Compile(smallDesign(120), MinSweepCF(), CompileOptions{Implement: ImplementOptions{Cache: cold}, SkipStitch: true})
	if err != nil {
		t.Fatal(err)
	}
	if first.ToolRuns == 0 {
		t.Fatal("cold compile must run the tools")
	}
	if first.Cache.Stores != len(first.Blocks) {
		t.Errorf("stores = %d, want one per block type (%d)", first.Cache.Stores, len(first.Blocks))
	}
	if first.Cache.DiskHits != 0 || first.CacheHits != 0 {
		t.Errorf("cold compile reported hits: %+v", first.Cache)
	}

	// New process: fresh flow, fresh cache instance, same directory.
	flow2, err := NewFlow("xc7z020")
	if err != nil {
		t.Fatal(err)
	}
	flow2.SetSearch(0.9, 0.02, 3.0)
	warm, err := NewPersistentBlockCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	second, err := flow2.Compile(smallDesign(120), MinSweepCF(), CompileOptions{Implement: ImplementOptions{Cache: warm}, SkipStitch: true})
	if err != nil {
		t.Fatal(err)
	}
	if second.ToolRuns != 0 {
		t.Errorf("warm compile ran %d tools, want 0", second.ToolRuns)
	}
	if second.Cache.DiskHits != len(second.Blocks) {
		t.Errorf("disk hits = %d, want %d", second.Cache.DiskHits, len(second.Blocks))
	}
	if len(second.Blocks) != len(first.Blocks) {
		t.Fatalf("block count changed: %d vs %d", len(second.Blocks), len(first.Blocks))
	}
	for i := range second.Blocks {
		a, b := first.Blocks[i], second.Blocks[i]
		if a.Name != b.Name || a.CF != b.CF || a.PBlock != b.PBlock || a.UsedSlices != b.UsedSlices {
			t.Errorf("block %s rebuilt differently: %+v vs %+v", a.Name, a, b)
		}
	}

	// Third compile in the same "process": the in-memory layer serves it.
	third, err := flow2.Compile(smallDesign(120), MinSweepCF(), CompileOptions{Implement: ImplementOptions{Cache: warm}, SkipStitch: true})
	if err != nil {
		t.Fatal(err)
	}
	if third.Cache.MemHits != len(third.Blocks) || third.ToolRuns != 0 {
		t.Errorf("mem-layer compile: %+v, runs=%d", third.Cache, third.ToolRuns)
	}
}

// TestPersistentCacheServesBisectFlow asserts the strategy-agnostic
// cache key: records stored by a linear-search flow are served to a
// flow configured for the bisect strategy, because both return the same
// minimal CFs.
func TestPersistentCacheServesBisectFlow(t *testing.T) {
	dir := t.TempDir()

	lin, err := NewFlow("xc7z020")
	if err != nil {
		t.Fatal(err)
	}
	lin.SetSearch(0.9, 0.02, 3.0)
	c1, err := NewPersistentBlockCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := lin.Compile(smallDesign(120), MinSweepCF(), CompileOptions{Implement: ImplementOptions{Cache: c1}, SkipStitch: true})
	if err != nil {
		t.Fatal(err)
	}

	bis, err := NewFlow("xc7z020")
	if err != nil {
		t.Fatal(err)
	}
	bis.SetSearch(0.9, 0.02, 3.0)
	bis.SetSearchStrategy(SearchBisect)
	bis.SetProbeWorkers(4)
	c2, err := NewPersistentBlockCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	second, err := bis.Compile(smallDesign(120), MinSweepCF(), CompileOptions{Implement: ImplementOptions{Cache: c2}, SkipStitch: true})
	if err != nil {
		t.Fatal(err)
	}
	if second.ToolRuns != 0 || second.Cache.DiskHits != len(second.Blocks) {
		t.Errorf("bisect flow must be served from the linear flow's records: %+v, runs=%d",
			second.Cache, second.ToolRuns)
	}
	for i := range second.Blocks {
		if second.Blocks[i].CF != first.Blocks[i].CF {
			t.Errorf("block %s: CF %.2f vs %.2f", second.Blocks[i].Name, second.Blocks[i].CF, first.Blocks[i].CF)
		}
	}
}
