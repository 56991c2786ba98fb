package place

import (
	"testing"

	"macroflow/internal/implcache"
	"macroflow/internal/netlist"
)

// pinModule is a hand-built module touching every line of the content
// rendering: control sets, combinational, sequential and carry cells, a
// port-driven net, a sinkless net and outputs.
func pinModule() *netlist.Module {
	m := netlist.NewModule("pin")
	cs := m.AddControlSet(netlist.ControlSet{Clk: 0, Rst: 1, En: 2})
	m.AddControlSet(netlist.ControlSet{Clk: 0, Rst: 3, En: -1})
	l := m.AddCell(netlist.CellLUT)
	f := m.AddSeqCell(netlist.CellFF, cs)
	r := m.AddSeqCell(netlist.CellSRL, cs)
	chain := m.AddCarryChain(2)
	m.AddNet(netlist.NoID, l)
	n := m.AddNet(l, f, r, chain[0])
	m.AddNet(chain[0], chain[1])
	out := m.AddNet(f)
	m.MarkOutput(n)
	m.MarkOutput(out)
	m.LogicDepth = 3
	return m
}

// TestContentHashesPinned pins both consumers of the module content
// rendering to their values from before the rendering was shared: the
// implementation cache's on-disk key (ModuleHash) and the placer's
// default jitter seed (contentSeed). A change here moves every
// persistent cache record and every default placement.
func TestContentHashesPinned(t *testing.T) {
	m := pinModule()
	const wantHash = "080e1bad2cfaf9accdf1a0dfed824403a497b55eccf755d9e6c62397fc966d2f"
	const wantSeed = int64(9168109900220530745)
	if got := implcache.ModuleHash(m); got != wantHash {
		t.Errorf("ModuleHash = %s, want %s", got, wantHash)
	}
	if got := contentSeed(m); got != wantSeed {
		t.Errorf("contentSeed = %d, want %d", got, wantSeed)
	}
	m.Name = "renamed"
	if implcache.ModuleHash(m) != wantHash || contentSeed(m) != wantSeed {
		t.Error("content hashes must not depend on the module name")
	}
}
