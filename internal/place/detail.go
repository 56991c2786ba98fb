package place

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"macroflow/internal/fabric"
	"macroflow/internal/netlist"
)

// Coord is a cell's placed tile location.
type Coord struct {
	X, Y int16
}

// RowSpan is the occupied row interval of one footprint column,
// inclusive; Used counts occupied slices in that column.
type RowSpan struct {
	Min, Max int
	Used     int
}

// Empty reports whether the span holds no logic.
func (s RowSpan) Empty() bool { return s.Used == 0 }

// Footprint is the column-wise outline of a placed block, relative to
// the placement rectangle origin. RapidWright-style stitching treats the
// whole interval of each column as consumed, because the block's internal
// routing crosses the gaps — this is what makes irregular placements
// produce "dead spots".
type Footprint struct {
	Width int       // number of tile columns
	Rows  int       // rectangle height
	Cols  []RowSpan // per relative tile column
}

// Area returns the total consumed tile area (sum of column intervals).
func (f *Footprint) Area() int {
	a := 0
	for _, c := range f.Cols {
		if !c.Empty() {
			a += c.Max - c.Min + 1
		}
	}
	return a
}

// Irregularity measures the raggedness of the outline: the standard
// deviation of non-empty column interval lengths divided by their mean.
// A perfect rectangle scores 0.
func (f *Footprint) Irregularity() float64 {
	var lens []float64
	for _, c := range f.Cols {
		if !c.Empty() {
			lens = append(lens, float64(c.Max-c.Min+1))
		}
	}
	if len(lens) < 2 {
		return 0
	}
	mean := 0.0
	for _, l := range lens {
		mean += l
	}
	mean /= float64(len(lens))
	v := 0.0
	for _, l := range lens {
		v += (l - mean) * (l - mean)
	}
	v /= float64(len(lens))
	if mean == 0 {
		return 0
	}
	return math.Sqrt(v) / mean
}

// Placement is a legal assignment of every module cell to a site inside
// the placement rectangle.
type Placement struct {
	Module *netlist.Module
	Rect   fabric.Rect
	// CellAt holds the tile coordinate of each cell (indexed by CellID).
	CellAt []Coord
	// UsedSlices is the number of slices with at least one cell.
	UsedSlices int
	// Footprint is the column-wise outline used by the stitcher.
	Footprint Footprint
	// Spread is the area slack the placer worked with
	// (available slices / estimated slices).
	Spread float64
}

// Options tunes the detailed placer.
type Options struct {
	// Seed perturbs the spread jitter; 0 derives a seed from the
	// module's structural content, so repeated runs are deterministic
	// and renamed-but-identical modules place identically — the
	// implementation caches key on content, never on names, and a
	// cached result must match what a fresh run would produce.
	Seed int64
	// Compact forces spread 1 regardless of slack (area-optimizing mode,
	// like a vendor tool at ~100% utilization).
	Compact bool
	// IgnoreControlSets disables the one-control-set-per-CLB rule
	// (§V-B), for ablation studies of its contribution to the minimal
	// correction factor.
	IgnoreControlSets bool
	// PreOccupy marks this fraction of the rectangle's slices as taken
	// by foreign logic before placement starts, emulating the neighbors
	// a module sees when a monolithic tool implements it in the context
	// of a nearly full device. Pre-occupied slices are not counted in
	// UsedSlices or the footprint.
	PreOccupy float64
	// Warm, when non-nil, is a previous placement of the same module to
	// transplant into the new rectangle instead of re-packing from
	// scratch (used when only the PBlock rectangle changed, e.g. when
	// rebuilding a cached implementation). The transplanted placement is
	// audited with Verify; any illegality falls back to a cold start.
	Warm *Placement
}

// ErrInfeasible is returned (wrapped) when a module cannot be legally
// placed inside the rectangle.
type ErrInfeasible struct {
	Reason string
}

// Error implements the error interface.
func (e *ErrInfeasible) Error() string { return "place: infeasible: " + e.Reason }

// site indexes one slice within the placement region.
type site struct {
	x, y    int16 // tile coordinate
	isM     bool
	lutFree int8
	ffFree  int8
	carry   bool // carry site still free
	mem     bool // slice is used for LUTRAM/SRL
	used    bool
	// lutCap and ffCap are the pass-0 fill limits for this slice; with
	// spread slack they sit below the hardware capacity so loose PBlocks
	// open more, emptier slices (Table I).
	lutCap int8
	ffCap  int8
}

// sliceCol is a vertical run of slices sharing an (x, side) column.
type sliceCol struct {
	x     int
	side  int
	isM   bool
	first int // index of row y0's site in p.sites
	// window is the preferred fill interval [lo, hi) in local rows.
	lo, hi int
}

type placer struct {
	dev    *fabric.Device
	m      *netlist.Module
	rect   fabric.Rect
	rep    ShapeReport
	spread float64
	rng    *rand.Rand

	sites []site
	cols  []sliceCol
	// csOf maps CLB (x,y) -> control set claim (-1 free). Key packs x,y.
	csOf map[int32]int32

	cellAt  []Coord
	fullLUT int8
	fullFF  int8

	// freeM counts still-unused M slices; carry placement must leave at
	// least reserveM of them for the LUTRAM/SRL phase.
	freeM    int
	reserveM int
	// noCS disables the control-set-per-CLB rule (ablation).
	noCS bool
}

// contentSeed derives the default jitter seed from the module's
// structural content — the same rendering (netlist.Module.WriteContent)
// the implementation cache's ModuleHash consumes — never its name. Two
// modules the cache considers identical must place identically, or a
// cache hit could return a different placement than a fresh run.
func contentSeed(m *netlist.Module) int64 {
	h := fnv.New64a()
	m.WriteContent(h)
	return int64(h.Sum64())
}

// Place performs detailed placement of module m inside rect on dev,
// using the shape report rep from QuickPlace.
func Place(dev *fabric.Device, m *netlist.Module, rep ShapeReport, rect fabric.Rect, opts Options) (*Placement, error) {
	p := &placer{dev: dev, m: m, rect: rect, rep: rep}
	seed := opts.Seed
	if seed == 0 {
		seed = contentSeed(m)
	}
	p.rng = rand.New(rand.NewSource(seed))
	p.noCS = opts.IgnoreControlSets
	p.buildSites()
	if opts.PreOccupy > 0 {
		for i := range p.sites {
			if p.rng.Float64() < opts.PreOccupy {
				st := &p.sites[i]
				st.lutFree = 0
				st.ffFree = 0
				st.carry = false
			}
		}
	}
	for i := range p.sites {
		if p.sites[i].isM && p.sites[i].carry {
			p.freeM++
		}
	}
	p.reserveM = rep.EstSlicesM
	if len(p.sites) == 0 {
		return nil, &ErrInfeasible{Reason: "no slices in rectangle"}
	}
	avail := len(p.sites)
	need := rep.EstSlices
	if need < 1 {
		need = 1
	}
	p.spread = float64(avail) / float64(need)
	if p.spread < 1 {
		p.spread = 1
	}
	if opts.Compact {
		p.spread = 1
	}
	if opts.Warm != nil && opts.PreOccupy == 0 {
		// A warm start cannot model foreign pre-occupation, so PreOccupy
		// runs always re-pack from scratch.
		if pl, ok := transplant(p, opts.Warm); ok {
			return pl, nil
		}
	}
	p.setCaps()
	p.planWindows()

	p.cellAt = make([]Coord, len(m.Cells))
	for i := range p.cellAt {
		p.cellAt[i] = Coord{-1, -1}
	}

	if err := p.placeCarry(); err != nil {
		return nil, err
	}
	if err := p.placeMem(); err != nil {
		return nil, err
	}
	if err := p.placeFFs(); err != nil {
		return nil, err
	}
	if err := p.placeLUTs(); err != nil {
		return nil, err
	}
	if err := p.placeBlocks(); err != nil {
		return nil, err
	}

	pl := &Placement{
		Module: m,
		Rect:   rect,
		CellAt: p.cellAt,
		Spread: p.spread,
	}
	for i := range p.sites {
		if p.sites[i].used {
			pl.UsedSlices++
		}
	}
	pl.Footprint = p.footprint()
	return pl, nil
}

// buildSites enumerates the slice sites of the rectangle, two slice
// columns per CLB column (side 0 is the M slice of a CLBM column).
func (p *placer) buildSites() {
	p.csOf = make(map[int32]int32)
	y0 := maxInt(p.rect.Y0, 0)
	y1 := minInt(p.rect.Y1, p.dev.Rows-1)
	if y1 < y0 {
		return
	}
	for x := maxInt(p.rect.X0, 0); x <= minInt(p.rect.X1, p.dev.NumCols()-1); x++ {
		if !p.dev.IsCLBColumn(x) {
			continue
		}
		for side := 0; side < fabric.SlicesPerCLB; side++ {
			isM := p.dev.SliceTypeAt(x, side)
			col := sliceCol{x: x, side: side, isM: isM, first: len(p.sites)}
			for y := y0; y <= y1; y++ {
				p.sites = append(p.sites, site{
					x: int16(x), y: int16(y), isM: isM,
					lutFree: fabric.LUTsPerSlice,
					ffFree:  fabric.FFsPerSlice,
					carry:   true,
				})
			}
			p.cols = append(p.cols, col)
		}
	}
}

// setCaps derives the per-slice fill caps from the spread: with slack the
// placer opens more slices and fills each one less (timing-style
// placement), which is exactly the behavior behind Table I's ~10% higher
// slice counts at looser CFs. Fractional caps are realized by mixing two
// integer caps per slice with the slack-scaled probability.
func (p *placer) setCaps() {
	slack := p.spread - 1
	if slack > 1.2 {
		slack = 1.2
	}
	if slack < 0 {
		slack = 0
	}
	r := 1 + 0.25*slack
	lutF := fabric.LUTsPerSlice / r
	ffF := fabric.FFsPerSlice / r
	p.fullLUT = fabric.LUTsPerSlice
	p.fullFF = fabric.FFsPerSlice
	lutFrac := lutF - math.Floor(lutF)
	ffFrac := ffF - math.Floor(ffF)
	for i := range p.sites {
		s := &p.sites[i]
		s.lutCap = int8(math.Floor(lutF))
		if p.rng.Float64() < lutFrac {
			s.lutCap++
		}
		s.ffCap = int8(math.Floor(ffF))
		if p.rng.Float64() < ffFrac {
			s.ffCap++
		}
		if s.lutCap < 1 {
			s.lutCap = 1
		}
		if s.ffCap < 1 {
			s.ffCap = 1
		}
	}
}

// planWindows assigns each slice column a preferred fill window whose
// length tracks 1/spread with per-column jitter, producing the ragged
// outlines of Fig. 3 when the PBlock is loose. Window offsets follow a
// bounded random walk across adjacent columns so that locality between
// neighbouring columns is preserved while the outline stays irregular.
func (p *placer) planWindows() {
	rows := 0
	if len(p.cols) > 0 {
		rows = p.colRows()
	}
	// Jitter amplitude scales with the slack: placements near the
	// feasibility edge are almost deterministic (stable minimal-CF
	// labels), loose placements are visibly ragged (Fig. 3).
	amp := p.spread - 1
	if amp > 1 {
		amp = 1
	}
	off := 0
	for i := range p.cols {
		frac := 1.0 / p.spread
		if amp > 0.02 {
			frac *= 1 + amp*0.45*(2*p.rng.Float64()-1)
		}
		if frac > 1 {
			frac = 1
		}
		n := int(math.Ceil(frac * float64(rows)))
		if n < 1 {
			n = 1
		}
		maxOff := rows - n
		if amp > 0.02 && maxOff > 0 {
			step := 1 + int(float64(rows)*amp/6)
			off += p.rng.Intn(2*step+1) - step
		}
		if off < 0 {
			off = 0
		}
		if off > maxOff {
			off = maxOff
		}
		p.cols[i].lo = off
		p.cols[i].hi = off + n
	}
}

func (p *placer) colRows() int {
	if len(p.cols) < 2 {
		return len(p.sites)
	}
	return p.cols[1].first - p.cols[0].first
}

func clbKey(x, y int16) int32 { return int32(x)<<16 | int32(y)&0xffff }

// csCompatible checks and, when claim is true, claims the CLB at (x, y)
// for control set cs.
func (p *placer) csCompatible(x, y int16, cs int32, claim bool) bool {
	if p.noCS {
		return true
	}
	k := clbKey(x, y)
	cur, ok := p.csOf[k]
	if ok && cur != cs {
		return false
	}
	if claim && !ok {
		p.csOf[k] = cs
	}
	return true
}

// placeCarry places carry chains, longest first, each needing a vertical
// run of carry-free slices in one slice column.
func (p *placer) placeCarry() error {
	type chain struct {
		id    int32
		cells []netlist.CellID
	}
	byID := map[int32]*chain{}
	var chains []*chain
	for ci := range p.m.Cells {
		c := &p.m.Cells[ci]
		if c.Kind != netlist.CellCarry {
			continue
		}
		ch, ok := byID[c.Chain]
		if !ok {
			ch = &chain{id: c.Chain}
			byID[c.Chain] = ch
			chains = append(chains, ch)
		}
		for int(c.ChainPos) >= len(ch.cells) {
			ch.cells = append(ch.cells, netlist.NoID)
		}
		ch.cells[c.ChainPos] = netlist.CellID(ci)
	}
	sort.Slice(chains, func(i, j int) bool {
		if len(chains[i].cells) != len(chains[j].cells) {
			return len(chains[i].cells) > len(chains[j].cells)
		}
		return chains[i].id < chains[j].id
	})
	rows := p.colRows()
	for _, ch := range chains {
		l := len(ch.cells)
		if l > rows {
			return &ErrInfeasible{Reason: fmt.Sprintf("carry chain of %d slices exceeds PBlock height %d", l, rows)}
		}
		placed := false
		// Pass 1: inside preferred windows; pass 2: anywhere. L-type
		// slice columns are preferred so carry chains don't starve the
		// scarcer M slices that LUTRAM/SRL cells need.
		order := make([]int, 0, len(p.cols))
		for i := range p.cols {
			if !p.cols[i].isM {
				order = append(order, i)
			}
		}
		for i := range p.cols {
			if p.cols[i].isM {
				order = append(order, i)
			}
		}
		for pass := 0; pass < 2 && !placed; pass++ {
			for _, colIdx := range order {
				col := &p.cols[colIdx]
				lo, hi := 0, rows
				if pass == 0 {
					lo, hi = col.lo, col.hi
				}
				if col.isM && p.freeM-l < p.reserveM {
					continue // would starve the LUTRAM/SRL phase
				}
				if run := p.findRun(col, lo, hi, l); run >= 0 {
					for k, cell := range ch.cells {
						s := &p.sites[col.first+run+k]
						s.carry = false
						s.lutFree = 0 // carry consumes the slice's LUTs
						s.used = true
						p.cellAt[cell] = Coord{s.x, s.y}
					}
					if col.isM {
						p.freeM -= l
					}
					placed = true
					break
				}
			}
		}
		if !placed {
			return &ErrInfeasible{Reason: fmt.Sprintf("no vertical run of %d slices for carry chain", l)}
		}
	}
	return nil
}

// findRun locates a vertical run of n carry-free slices in col rows
// [lo, hi); returns the local start row or -1.
func (p *placer) findRun(col *sliceCol, lo, hi, n int) int {
	run := 0
	for r := lo; r < hi; r++ {
		if p.sites[col.first+r].carry {
			run++
			if run == n {
				return r - n + 1
			}
		} else {
			run = 0
		}
	}
	return -1
}

// seqGroups collects sequential cells of one kind set, grouped by control
// set, in control-set creation order. Creation order tracks the module's
// dataflow (and, in flattened multi-block netlists, keeps each block's
// groups adjacent), which matters for wirelength.
func (p *placer) seqGroups(match func(netlist.CellKind) bool) [][]netlist.CellID {
	groups := map[int32][]netlist.CellID{}
	for ci := range p.m.Cells {
		c := &p.m.Cells[ci]
		if match(c.Kind) {
			groups[c.ControlSet] = append(groups[c.ControlSet], netlist.CellID(ci))
		}
	}
	keys := make([]int32, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([][]netlist.CellID, 0, len(keys))
	for _, k := range keys {
		out = append(out, groups[k])
	}
	return out
}

// placeMem packs LUTRAM/SRL cells into M slices, honoring the one
// control set per CLB rule. Each group fills contiguously from a
// jittered start so spread placements scatter groups without wasting
// whole CLBs on fragmented claims.
func (p *placer) placeMem() error {
	for _, group := range p.seqGroups(netlist.CellKind.NeedsMSlice) {
		cs := p.m.Cells[group[0]].ControlSet
		idx := 0
		start := p.groupStart()
		// Memory banks always pack densely: spreading them would waste
		// the scarce M slices other control-set groups need.
		for pass := 0; pass < 2 && idx < len(group); pass++ {
			cap := fabric.LUTRAMPerMSlice
			p.scanCLBs(start, func(s0, s1 *site) bool {
				for _, s := range [2]*site{s0, s1} {
					if !s.isM {
						continue
					}
					if s.mem {
						if s.lutFree == 0 {
							continue // memory slice already full
						}
					} else if !s.carry || s.lutFree < fabric.LUTsPerSlice {
						continue // slice already used by carry or logic
					}
					if !p.csCompatible(s.x, s.y, cs, false) {
						continue
					}
					fill := minInt(cap-(fabric.LUTsPerSlice-int(s.lutFree)), int(s.lutFree))
					if fill <= 0 {
						continue
					}
					for f := 0; f < fill && idx < len(group); f++ {
						p.csCompatible(s.x, s.y, cs, true)
						s.mem = true
						s.used = true
						s.carry = false
						s.ffFree = 0 // memory slices don't host spare FFs
						s.lutFree--
						p.cellAt[group[idx]] = Coord{s.x, s.y}
						idx++
					}
				}
				return idx < len(group)
			})
		}
		if idx < len(group) {
			return &ErrInfeasible{Reason: fmt.Sprintf("M-slice capacity exhausted (%d/%d LUTRAM/SRL placed)", idx, len(group))}
		}
	}
	return nil
}

// groupStart returns the jittered starting CLB column index for a
// sequential group; compact placements always start at 0.
func (p *placer) groupStart() int {
	n := len(p.cols) / fabric.SlicesPerCLB
	if p.spread <= 1.02 || n == 0 {
		return 0
	}
	return p.rng.Intn(n)
}

// scanCLBs visits every CLB, column-major from CLB column start
// (wrapping) in serpentine row order, handing fn the two slice sites of
// each CLB, until fn returns false. Sequential cells fill CLB-major so
// one control set claims as few CLBs as possible; the serpentine keeps
// cells consecutive in fill order physically adjacent across column
// boundaries.
func (p *placer) scanCLBs(start int, fn func(s0, s1 *site) bool) {
	nPairs := len(p.cols) / fabric.SlicesPerCLB
	rows := p.colRows()
	for i := 0; i < nPairs; i++ {
		pair := (start + i) % nPairs
		c0 := &p.cols[pair*fabric.SlicesPerCLB]
		c1 := &p.cols[pair*fabric.SlicesPerCLB+1]
		for rr := 0; rr < rows; rr++ {
			r := rr
			if i%2 == 1 {
				r = rows - 1 - rr
			}
			if !fn(&p.sites[c0.first+r], &p.sites[c1.first+r]) {
				return
			}
		}
	}
}

func (p *placer) windowOf(col *sliceCol, pass int) (int, int) {
	if pass == 0 {
		return col.lo, col.hi
	}
	return 0, p.colRows()
}

// placeFFs packs flip-flops by control set into CLBs, each group filling
// contiguously from a jittered start.
func (p *placer) placeFFs() error {
	for _, group := range p.seqGroups(func(k netlist.CellKind) bool { return k == netlist.CellFF }) {
		cs := p.m.Cells[group[0]].ControlSet
		idx := 0
		start := p.groupStart()
		for pass := 0; pass < 2 && idx < len(group); pass++ {
			p.scanCLBs(start, func(s0, s1 *site) bool {
				for _, s := range [2]*site{s0, s1} {
					if s.ffFree <= 0 || s.mem {
						continue
					}
					if !p.csCompatible(s.x, s.y, cs, false) {
						continue
					}
					cap := int(s.ffCap)
					if pass == 1 {
						cap = int(p.fullFF)
					}
					fill := minInt(cap-(fabric.FFsPerSlice-int(s.ffFree)), int(s.ffFree))
					if fill <= 0 {
						continue
					}
					for f := 0; f < fill && idx < len(group); f++ {
						p.csCompatible(s.x, s.y, cs, true)
						s.ffFree--
						s.used = true
						p.cellAt[group[idx]] = Coord{s.x, s.y}
						idx++
					}
				}
				return idx < len(group)
			})
		}
		if idx < len(group) {
			return &ErrInfeasible{Reason: fmt.Sprintf("control set %d: FF capacity exhausted (%d/%d placed)", cs, idx, len(group))}
		}
	}
	return nil
}

// placeLUTs packs logic LUTs netlist-aware: each LUT is pulled toward
// the centroid of its already-placed input drivers (memory banks, carry
// chains, registers, earlier LUTs), so read multiplexers land next to
// their RAMs and dataflow stays local. LUTs with no placed inputs
// continue from the previous cell's position.
func (p *placer) placeLUTs() error {
	var luts []netlist.CellID
	for ci := range p.m.Cells {
		if p.m.Cells[ci].Kind == netlist.CellLUT {
			luts = append(luts, netlist.CellID(ci))
		}
	}
	if len(luts) == 0 {
		return nil
	}
	// Input drivers per LUT cell.
	drivers := make([][]netlist.CellID, len(p.m.Cells))
	for ni := range p.m.Nets {
		n := &p.m.Nets[ni]
		if n.Driver == netlist.NoID {
			continue
		}
		for _, s := range n.Sinks {
			if p.m.Cells[s].Kind == netlist.CellLUT {
				drivers[s] = append(drivers[s], n.Driver)
			}
		}
	}
	prev := Coord{int16(p.cols[0].x), int16(p.rect.Y0 + p.cols[0].lo)}
	placedCount := 0
	for pass := 0; pass < 2 && placedCount < len(luts); pass++ {
		for _, lut := range luts {
			if p.cellAt[lut].X >= 0 {
				continue
			}
			want := p.centroidOf(drivers[lut], prev)
			s := p.findLUTSlot(want, pass)
			if s == nil {
				continue // retry in the unconstrained pass
			}
			s.lutFree--
			s.used = true
			at := Coord{s.x, s.y}
			p.cellAt[lut] = at
			prev = at
			placedCount++
		}
	}
	if placedCount < len(luts) {
		return &ErrInfeasible{Reason: fmt.Sprintf("LUT capacity exhausted (%d/%d placed)", placedCount, len(luts))}
	}
	return nil
}

// centroidOf averages the positions of already-placed driver cells;
// without any, it continues from the previous placement.
func (p *placer) centroidOf(drv []netlist.CellID, prev Coord) Coord {
	sx, sy, n := 0, 0, 0
	for _, d := range drv {
		at := p.cellAt[d]
		if at.X >= 0 {
			sx += int(at.X)
			sy += int(at.Y)
			n++
		}
	}
	if n == 0 {
		return prev
	}
	return Coord{int16(sx / n), int16(sy / n)}
}

// findLUTSlot locates a free LUT slot near the desired coordinate,
// walking slice columns outward by horizontal distance and rows outward
// from the desired row. Pass 0 honors the spread windows and fill caps;
// pass 1 accepts any capacity.
func (p *placer) findLUTSlot(want Coord, pass int) *site {
	n := len(p.cols)
	// Nearest column index for the desired x (columns are x-sorted, two
	// slice columns per CLB column).
	ci := 0
	for ci < n-1 && p.cols[ci].x < int(want.X) {
		ci++
	}
	maxD := n
	if pass == 0 && maxD > 16 {
		maxD = 16 // pass 0 is a locality search; pass 1 is exhaustive
	}
	for d := 0; d < maxD; d++ {
		for k, colIdx := range [2]int{ci - d, ci + d} {
			if k == 1 && d == 0 {
				break // the center column was just visited
			}
			if colIdx < 0 || colIdx >= n {
				continue
			}
			col := &p.cols[colIdx]
			lo, hi := p.windowOf(col, pass)
			if s := p.slotInColumn(col, lo, hi, int(want.Y)-p.rect.Y0, pass); s != nil {
				return s
			}
		}
	}
	return nil
}

// slotInColumn searches rows [lo, hi) outward from wantRow for a slice
// that can accept one more LUT under the pass's fill cap. Slices that
// already hold logic are preferred within a small radius so the packer
// fills slices before opening new ones (area optimization); a fresh
// slice at the exact spot only wins when no started slice is nearby.
func (p *placer) slotInColumn(col *sliceCol, lo, hi, wantRow, pass int) *site {
	if hi <= lo {
		return nil
	}
	if wantRow < lo {
		wantRow = lo
	}
	if wantRow >= hi {
		wantRow = hi - 1
	}
	maxD := hi - lo
	if pass == 0 && maxD > 24 {
		maxD = 24
	}
	const packRadius = 6
	var fresh *site
	freshD := 0
	for d := 0; d < maxD; d++ {
		for k, r := range [2]int{wantRow - d, wantRow + d} {
			if k == 1 && d == 0 {
				break
			}
			if r < lo || r >= hi {
				continue
			}
			s := &p.sites[col.first+r]
			if s.lutFree <= 0 || s.mem {
				continue
			}
			cap := int(s.lutCap)
			if pass == 1 {
				cap = int(p.fullLUT)
			}
			if fabric.LUTsPerSlice-int(s.lutFree) >= cap {
				continue
			}
			if s.used {
				return s // partially filled: pack here
			}
			if fresh == nil {
				fresh, freshD = s, d
			}
			// A fresh slice is only taken once no started slice shows
			// up within packRadius of it.
			if fresh != nil && d >= freshD+packRadius {
				return fresh
			}
		}
	}
	return fresh
}

// placeBlocks assigns BRAM and DSP cells to block sites inside the rect.
func (p *placer) placeBlocks() error {
	var brams, dsps []netlist.CellID
	for ci := range p.m.Cells {
		switch p.m.Cells[ci].Kind {
		case netlist.CellBRAM:
			brams = append(brams, netlist.CellID(ci))
		case netlist.CellDSP:
			dsps = append(dsps, netlist.CellID(ci))
		}
	}
	if len(brams) == 0 && len(dsps) == 0 {
		return nil
	}
	rc := p.dev.RectResources(p.rect)
	if rc.BRAM < len(brams) {
		return &ErrInfeasible{Reason: fmt.Sprintf("need %d BRAM, rect has %d", len(brams), rc.BRAM)}
	}
	if rc.DSP < len(dsps) {
		return &ErrInfeasible{Reason: fmt.Sprintf("need %d DSP, rect has %d", len(dsps), rc.DSP)}
	}
	bi, di := 0, 0
	for x := maxInt(p.rect.X0, 0); x <= minInt(p.rect.X1, p.dev.NumCols()-1); x++ {
		switch p.dev.KindAt(x) {
		case fabric.ColBRAM:
			for y := alignUp(p.rect.Y0, fabric.BRAMRows); y+fabric.BRAMRows-1 <= p.rect.Y1 && bi < len(brams); y += fabric.BRAMRows {
				p.cellAt[brams[bi]] = Coord{int16(x), int16(y)}
				bi++
			}
		case fabric.ColDSP:
			for y := alignUp(p.rect.Y0, fabric.DSPRows); y+fabric.DSPRows-1 <= p.rect.Y1 && di < len(dsps); y += fabric.DSPRows {
				for k := 0; k < fabric.DSPPerTile && di < len(dsps); k++ {
					p.cellAt[dsps[di]] = Coord{int16(x), int16(y)}
					di++
				}
			}
		}
	}
	if bi < len(brams) || di < len(dsps) {
		return &ErrInfeasible{Reason: "block site assignment failed"}
	}
	return nil
}

func alignUp(v, pitch int) int {
	if v <= 0 {
		return 0
	}
	return ((v + pitch - 1) / pitch) * pitch
}

// footprint computes the column-wise occupied outline.
func (p *placer) footprint() Footprint {
	f := Footprint{
		Width: p.rect.Width(),
		Rows:  p.rect.Height(),
		Cols:  make([]RowSpan, p.rect.Width()),
	}
	for i := range f.Cols {
		f.Cols[i] = RowSpan{Min: math.MaxInt32, Max: -1}
	}
	mark := func(x, y int16) {
		rel := int(x) - p.rect.X0
		if rel < 0 || rel >= f.Width {
			return
		}
		c := &f.Cols[rel]
		c.Used++
		if int(y)-p.rect.Y0 < c.Min {
			c.Min = int(y) - p.rect.Y0
		}
		if int(y)-p.rect.Y0 > c.Max {
			c.Max = int(y) - p.rect.Y0
		}
	}
	for i := range p.sites {
		if p.sites[i].used {
			mark(p.sites[i].x, p.sites[i].y)
		}
	}
	// Block cells (BRAM/DSP) occupy their full tile pitch.
	for ci := range p.m.Cells {
		k := p.m.Cells[ci].Kind
		if k != netlist.CellBRAM && k != netlist.CellDSP {
			continue
		}
		at := p.cellAt[ci]
		if at.X < 0 {
			continue
		}
		pitch := fabric.BRAMRows
		if k == netlist.CellDSP {
			pitch = fabric.DSPRows
		}
		for dy := 0; dy < pitch; dy++ {
			mark(at.X, at.Y+int16(dy))
		}
	}
	return f
}
