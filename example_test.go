package macroflow_test

import (
	"fmt"

	"macroflow"
)

// The basic flow: describe a block, measure its minimal correction
// factor with the placement/routing oracle, and inspect the result.
func ExampleFlow_MinCF() {
	flow, err := macroflow.NewFlow("xc7z020")
	if err != nil {
		panic(err)
	}
	flow.SetSearch(0.9, 0.02, 3.0)

	spec := macroflow.NewSpec("doc_block").
		ShiftRegs(4, 8, 2, 2).
		Logic(160, 4, 3)

	res, err := flow.MinCF(spec)
	if err != nil {
		panic(err)
	}
	fmt.Printf("cf=%.2f feasible=%v\n", res.CF, res.UsedSlices > 0)
	// Output: cf=0.98 feasible=true
}

// Device models expose their capacities and clock regions.
func ExampleFlow_Device() {
	flow, _ := macroflow.NewFlow("xc7z045")
	d := flow.Device()
	fmt.Println(d.Name, d.ClockRegions)
	// Output: xc7z045 7
}

// Designs assemble block types, instances and streams; compilation
// reports per-block results and the stitched placement.
func ExampleFlow_Compile() {
	flow, _ := macroflow.NewFlow("xc7z020")
	flow.SetSearch(0.9, 0.02, 3.0)

	d := macroflow.NewDesign()
	blk := d.AddBlockType(macroflow.NewSpec("stage").Logic(100, 4, 2))
	prev := -1
	for i := 0; i < 3; i++ {
		inst, _ := d.AddInstance(blk, fmt.Sprintf("stage_%d", i))
		if prev >= 0 {
			_ = d.Connect(prev, inst, 16)
		}
		prev = inst
	}
	res, err := flow.Compile(d, macroflow.MinSweepCF(),
		macroflow.CompileOptions{Stitch: macroflow.StitchOptions{Seed: 1, Anneal: macroflow.AnnealOptions{Iterations: 5000}}})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d/%d placed\n", res.Stitch.Placed, d.NumInstances())
	// Output: 3/3 placed
}

// Compilation can run fully audited: CheckFull cross-checks every block
// placement, minimal-CF claim and the stitched design against the
// brute-force oracle, reporting violations in the Verify report without
// perturbing results.
func ExampleFlow_Compile_checked() {
	flow, _ := macroflow.NewFlow("xc7z020")
	flow.SetSearch(0.9, 0.02, 3.0)

	d := macroflow.NewDesign()
	blk := d.AddBlockType(macroflow.NewSpec("stage").Logic(100, 4, 2))
	a, _ := d.AddInstance(blk, "stage_a")
	b, _ := d.AddInstance(blk, "stage_b")
	_ = d.Connect(a, b, 16)

	res, err := flow.Compile(d, macroflow.MinSweepCF(), macroflow.CompileOptions{
		Stitch:    macroflow.StitchOptions{Seed: 1, Anneal: macroflow.AnnealOptions{Iterations: 5000}, Check: macroflow.CheckFull},
		Implement: macroflow.ImplementOptions{Check: macroflow.CheckFull},
	})
	if err != nil {
		panic(err)
	}
	if err := res.Verify.Err(); err != nil {
		panic(err) // a fast path broke a contract
	}
	fmt.Printf("%d/%d placed, %d checks, violations: %d\n",
		res.Stitch.Placed, d.NumInstances(), res.Verify.Checks, len(res.Verify.Violations))
	// Output: 2/2 placed, 4 checks, violations: 0
}
