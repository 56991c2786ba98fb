package macroflow

import (
	"strings"
	"testing"
)

// TestStitchBackendValidation: an unknown backend spelling must fail
// RunCNV and Compile before any block is implemented.
func TestStitchBackendValidation(t *testing.T) {
	f := verifyFlow(t)
	bad := StitchOptions{Backend: "gradient"}
	if err := bad.Validate(); err == nil {
		t.Fatal("validate accepted an unknown backend")
	}
	if _, err := f.Compile(verifySmallDesign(t), MinSweepCF(), CompileOptions{
		Stitch: bad,
	}); err == nil || !strings.Contains(err.Error(), "backend") {
		t.Errorf("Compile with a bad backend: err = %v, want backend error", err)
	}
	if _, err := f.RunCNV(MinSweepCF(), CNVOptions{Stitch: bad}); err == nil ||
		!strings.Contains(err.Error(), "backend") {
		t.Errorf("RunCNV with a bad backend: err = %v, want backend error", err)
	}
	for _, ok := range []string{"", BackendAnneal, BackendAnalytic, BackendHybrid, BackendEvo, BackendPortfolio} {
		if err := (StitchOptions{Backend: ok}).Validate(); err != nil {
			t.Errorf("validate(%q) = %v", ok, err)
		}
	}
}

// TestCompileBackendsAuditClean: every backend, end to end through
// Compile under the full oracle audit, reports zero violations and
// echoes its backend in the report.
func TestCompileBackendsAuditClean(t *testing.T) {
	f := verifyFlow(t)
	d := verifySmallDesign(t)
	for _, be := range []string{BackendAnneal, BackendAnalytic, BackendHybrid, BackendEvo, BackendPortfolio} {
		res, err := f.Compile(d, MinSweepCF(), CompileOptions{
			Stitch:    StitchOptions{Seed: 1, Anneal: AnnealOptions{Iterations: 5000}, Backend: be, Check: CheckFull},
			Implement: ImplementOptions{Check: CheckFull},
		})
		if err != nil {
			t.Fatalf("backend %s: %v", be, err)
		}
		if res.Verify == nil || res.Verify.Checks == 0 {
			t.Fatalf("backend %s: no verification ran", be)
		}
		if !res.Verify.Ok() {
			t.Errorf("backend %s reported violations:\n%s", be, res.Verify.String())
		}
		if res.Stitch.Backend != be {
			t.Errorf("report backend %q, want %q", res.Stitch.Backend, be)
		}
		// Only the analytic-seeded backends carry a gradient-descent
		// budget; the move- and population-based ones must report zero.
		// A portfolio report echoes its winner's, so either is legal there.
		if usesGD := be == BackendAnalytic || be == BackendHybrid; be != BackendPortfolio {
			if usesGD && res.Stitch.GDIters == 0 {
				t.Errorf("backend %s does not echo its GD budget", be)
			}
			if !usesGD && res.Stitch.GDIters != 0 {
				t.Errorf("backend %s reports %d GD iterations", be, res.Stitch.GDIters)
			}
		}
		if be == BackendPortfolio {
			pf := res.Stitch.Portfolio
			if pf == nil || len(pf.Entrants) == 0 {
				t.Fatalf("portfolio backend produced no PortfolioReport")
			}
			if pf.Winner < 0 || pf.Winner >= len(pf.Entrants) || !pf.Entrants[pf.Winner].Winner {
				t.Errorf("portfolio winner index %d inconsistent with entrant flags", pf.Winner)
			}
		} else if res.Stitch.Portfolio != nil {
			t.Errorf("backend %s attached a PortfolioReport", be)
		}
	}
}

// TestRunCNVHybridFullAudit: the cnvW1A1 flow on the hybrid backend
// under the full oracle audit — the analytic seed, the legalization and
// the refined annealing result all recounted from first principles —
// reports zero violations. ci.sh runs this alongside the anneal-backend
// audit.
func TestRunCNVHybridFullAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("cnv flow in -short mode")
	}
	f := verifyFlow(t)
	f.SetSearch(0.5, 0.02, 3.0)
	res, err := f.RunCNV(MinSweepCF(), CNVOptions{
		Stitch:    StitchOptions{Seed: 1, Anneal: AnnealOptions{Iterations: 20000}, Backend: BackendHybrid, Check: CheckFull},
		Implement: ImplementOptions{Check: CheckFull},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verify == nil || res.Verify.Checks == 0 {
		t.Fatal("no verification ran")
	}
	if !res.Verify.Ok() {
		t.Fatalf("hybrid cnv run reported violations:\n%s", res.Verify.String())
	}
	if res.Stitch.Backend != BackendHybrid || res.Stitch.GDIters == 0 {
		t.Errorf("report backend=%q GDIters=%d, want hybrid with a GD budget",
			res.Stitch.Backend, res.Stitch.GDIters)
	}
}

// TestHybridCNVNoRegression: on the real cnvW1A1 problem the hybrid
// backend must not regress the pure annealer on the objective the
// stitcher actually minimizes — wirelength plus unplaced penalties —
// and must place at least as many instances (aggregated over three
// seeds; the SA is stochastic per seed).
func TestHybridCNVNoRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("cnv flow in -short mode")
	}
	fixtures(t)
	const penalty = 2000 // stitch.DefaultConfig().UnplacedPenalty
	var annealTotal, hybridTotal float64
	var annealPlaced, hybridPlaced int
	for seed := int64(0); seed < 3; seed++ {
		f := verifyFlow(t)
		f.SetSearch(0.5, 0.02, 3.0)
		a := stitchCNV(t, f, BackendAnneal, seed)
		h := stitchCNV(t, f, BackendHybrid, seed)
		annealTotal += a.FinalCost + float64(a.Unplaced)*penalty
		hybridTotal += h.FinalCost + float64(h.Unplaced)*penalty
		annealPlaced += a.Placed
		hybridPlaced += h.Placed
	}
	if hybridTotal > annealTotal {
		t.Errorf("hybrid total cost %.0f regressed the annealer's %.0f", hybridTotal/3, annealTotal/3)
	}
	if hybridPlaced < annealPlaced {
		t.Errorf("hybrid placed %d instances vs the annealer's %d", hybridPlaced/3, annealPlaced/3)
	}
}

func stitchCNV(t *testing.T, f *Flow, backend string, seed int64) StitchReport {
	t.Helper()
	so := StitchOptions{Seed: seed, Anneal: AnnealOptions{Iterations: 40000, Chains: 4}, Backend: backend}
	if err := so.Validate(); err != nil {
		t.Fatal(err)
	}
	return f.stitchDesign(fix.stitch20, so, nil, nil)
}
