package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"

	"macroflow"
	apiv1 "macroflow/api/v1"
)

// reference is the expected outcome of one cnv workload's compile, kept
// under reference/ and regenerated with -regen. Every measured compile
// must match it exactly.
type reference struct {
	Workload string `json:"workload"`
	Device   string `json:"device"`
	// ToolRuns is the compile's place-and-route attempt count.
	ToolRuns int `json:"toolRuns"`
	// Cache is the compile's BlockCache breakdown. Memory and
	// singleflight hits are summed: which of the two serves a duplicate
	// block depends on worker timing.
	Cache  refCache   `json:"cache"`
	Blocks []refBlock `json:"blocks"`
	// Stitch maps every stitch seed of the universe (1..stitchUniverse)
	// to its outcome.
	Stitch map[string]refStitch `json:"stitch"`
}

type refCache struct {
	MemOrFlight int `json:"memOrFlight"`
	DiskHits    int `json:"diskHits"`
	Misses      int `json:"misses"`
	Stores      int `json:"stores"`
}

type refBlock struct {
	Name     string  `json:"name"`
	CF       float64 `json:"cf"`
	ToolRuns int     `json:"toolRuns"`
}

type refStitch struct {
	Placed   int     `json:"placed"`
	Unplaced int     `json:"unplaced"`
	Cost     float64 `json:"cost"`
}

func cacheOf(s macroflow.CacheStats) refCache {
	return refCache{
		MemOrFlight: s.MemHits + s.SingleflightHits,
		DiskHits:    s.DiskHits,
		Misses:      s.Misses,
		Stores:      s.Stores,
	}
}

func loadReference(path string) (*reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(ref.Blocks) == 0 || len(ref.Stitch) != stitchUniverse {
		return nil, fmt.Errorf("%s: incomplete reference (%d blocks, %d stitch seeds)", path, len(ref.Blocks), len(ref.Stitch))
	}
	return &ref, nil
}

// check compares one compile against the reference and returns every
// mismatch.
func (ref *reference) check(res *macroflow.CNVResult, seed int64) []string {
	bad := ref.checkBlocks(res.Blocks)
	if res.TotalToolRuns != ref.ToolRuns {
		bad = append(bad, fmt.Sprintf("tool runs %d, reference %d", res.TotalToolRuns, ref.ToolRuns))
	}
	if got := cacheOf(res.Cache); got != ref.Cache {
		bad = append(bad, fmt.Sprintf("cache %+v, reference %+v", got, ref.Cache))
	}
	return append(bad, ref.checkStitch(seed, refStitch{Placed: res.Stitch.Placed, Unplaced: res.Stitch.Unplaced, Cost: res.Stitch.FinalCost})...)
}

// checkWire compares a macroflowd result of the workload's request with
// the reference (block outcomes and the stitch; the job's own tool runs
// and cache counts depend on what the shared cache already held).
func (ref *reference) checkWire(res *apiv1.CompileResult, seed int64) []string {
	blocks := make([]macroflow.ModuleResult, len(res.Blocks))
	for i, b := range res.Blocks {
		blocks[i] = macroflow.ModuleResult{Name: b.Name, CF: b.CF, ToolRuns: b.ToolRuns}
	}
	bad := ref.checkBlocks(blocks)
	if res.Stitch == nil {
		return append(bad, "no stitch result")
	}
	return append(bad, ref.checkStitch(seed, refStitch{Placed: res.Stitch.Placed, Unplaced: res.Stitch.Unplaced, Cost: res.Stitch.FinalCost})...)
}

// checkBlocks compares per-block CFs and search tool runs.
func (ref *reference) checkBlocks(blocks []macroflow.ModuleResult) []string {
	if len(blocks) != len(ref.Blocks) {
		return []string{fmt.Sprintf("%d blocks, reference %d", len(blocks), len(ref.Blocks))}
	}
	var bad []string
	for i, b := range blocks {
		want := ref.Blocks[i]
		if b.Name != want.Name || b.CF != want.CF || b.ToolRuns != want.ToolRuns {
			bad = append(bad, fmt.Sprintf("block %d: %s cf=%.2f runs=%d, reference %s cf=%.2f runs=%d",
				i, b.Name, b.CF, b.ToolRuns, want.Name, want.CF, want.ToolRuns))
		}
	}
	return bad
}

// checkStitch compares one stitch outcome with the reference's entry
// for its seed.
func (ref *reference) checkStitch(seed int64, got refStitch) []string {
	want, ok := ref.Stitch[strconv.FormatInt(seed, 10)]
	switch {
	case !ok:
		return []string{fmt.Sprintf("stitch seed %d is not in the reference", seed)}
	case got != want:
		return []string{fmt.Sprintf("stitch seed %d: %+v, reference %+v", seed, got, want)}
	}
	return nil
}

// goldenMinCF reads the fig5(c) line of the committed experiments
// golden output: the placed/unplaced counts of the minimal-CF cnvW1A1
// stitch on the xc7z020 with stitch seed 1.
func goldenMinCF(root string) (placed, unplaced int, err error) {
	data, err := os.ReadFile(filepath.Join(root, "experiments_output.txt"))
	if err != nil {
		return 0, 0, err
	}
	m := regexp.MustCompile(`(?m)^c\) RW, minimal CF: +(\d+) placed, (\d+) unplaced`).FindSubmatch(data)
	if m == nil {
		return 0, 0, fmt.Errorf("experiments_output.txt has no fig5(c) line")
	}
	placed, _ = strconv.Atoi(string(m[1]))
	unplaced, _ = strconv.Atoi(string(m[2]))
	return placed, unplaced, nil
}

// regenerate rewrites reference/: the two cnv references, the
// estimator the daemon-mix estimator jobs use, and the daemon-mix pool.
func regenerate(e *env) error {
	if err := os.MkdirAll(filepath.Join(e.dir, "reference"), 0o755); err != nil {
		return err
	}
	for _, w := range []cnvWorkload{coldCNV, warmCNV} {
		ref, err := w.buildReference(e)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := writeJSON(e.refPath(w.name+".json"), ref); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", e.refPath(w.name+".json"))
	}
	if err := trainEstimator(e.refPath(estimatorFile)); err != nil {
		return err
	}
	pool, err := buildPoolReference(e)
	if err != nil {
		return err
	}
	return writeJSON(e.refPath(poolFile), pool)
}

// trainEstimator trains the decision-tree CF estimator of the
// daemon-mix estimator jobs on the workload's device and search window.
func trainEstimator(path string) error {
	flow, err := macroflow.NewFlow(mixDevice)
	if err != nil {
		return err
	}
	flow.SetSearch(searchStart, searchStep, searchMax)
	est, rep, err := flow.TrainEstimator(macroflow.DecisionTree, macroflow.FeaturesAll,
		macroflow.TrainOptions{Modules: 400, Seed: 1})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "estimator: %d labeled, mean rel error %.3f\n", rep.Labeled, rep.MeanRelError)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := macroflow.SaveEstimator(f, est); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
