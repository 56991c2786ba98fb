package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteText serializes the module in a simple line-oriented format, one
// record per line:
//
//	module <name> depth <logicDepth>
//	cs <clk> <rst> <en>
//	cell <kind> [cs <index>] [chain <id> <pos>]
//	net <driver|-> <sink> <sink> ...
//	out <net>
//
// The format exists so block netlists can be dumped for inspection or
// cached on disk; ReadText restores them exactly.
func (m *Module) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "module %s depth %d\n", m.Name, m.LogicDepth)
	for _, cs := range m.ControlSets {
		fmt.Fprintf(bw, "cs %d %d %d\n", cs.Clk, cs.Rst, cs.En)
	}
	for i := range m.Cells {
		c := &m.Cells[i]
		fmt.Fprintf(bw, "cell %s", c.Kind)
		if c.ControlSet != NoID {
			fmt.Fprintf(bw, " cs %d", c.ControlSet)
		}
		if c.Chain != NoID {
			fmt.Fprintf(bw, " chain %d %d", c.Chain, c.ChainPos)
		}
		fmt.Fprintln(bw)
	}
	for ni := range m.Nets {
		n := &m.Nets[ni]
		if n.Driver == NoID {
			fmt.Fprint(bw, "net -")
		} else {
			fmt.Fprintf(bw, "net %d", n.Driver)
		}
		for _, s := range n.Sinks {
			fmt.Fprintf(bw, " %d", s)
		}
		fmt.Fprintln(bw)
	}
	for _, o := range m.Outputs {
		fmt.Fprintf(bw, "out %d\n", o)
	}
	return bw.Flush()
}

// WriteContent renders the module's structural content — logic depth,
// control sets, cells, nets and outputs, never the name — as the text
// both content hashes consume: the implementation cache's ModuleHash
// and the placer's default jitter seed. Two modules that render alike
// share cache records and place identically, so the text must not
// change: it addresses every persistent cache record.
func (m *Module) WriteContent(w io.Writer) {
	fmt.Fprintf(w, "depth %d\n", m.LogicDepth)
	for _, cs := range m.ControlSets {
		fmt.Fprintf(w, "cs %d %d %d\n", cs.Clk, cs.Rst, cs.En)
	}
	for i := range m.Cells {
		c := &m.Cells[i]
		fmt.Fprintf(w, "cell %d %d %d %d\n", c.Kind, c.ControlSet, c.Chain, c.ChainPos)
	}
	for ni := range m.Nets {
		n := &m.Nets[ni]
		fmt.Fprintf(w, "net %d", n.Driver)
		for _, s := range n.Sinks {
			fmt.Fprintf(w, " %d", s)
		}
		fmt.Fprintln(w)
	}
	for _, o := range m.Outputs {
		fmt.Fprintf(w, "out %d\n", o)
	}
}

// kindFromString inverts CellKind.String.
func kindFromString(s string) (CellKind, error) {
	for k := CellKind(0); k < numCellKinds; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("netlist: unknown cell kind %q", s)
}

// ReadText parses a module written by WriteText.
func ReadText(r io.Reader) (*Module, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var m *Module
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		bad := func(why string) error {
			return fmt.Errorf("netlist: line %d: %s", line, why)
		}
		switch fields[0] {
		case "module":
			if len(fields) != 4 || fields[2] != "depth" {
				return nil, bad("malformed module header")
			}
			m = NewModule(fields[1])
			d, err := strconv.Atoi(fields[3])
			if err != nil {
				return nil, bad("bad depth")
			}
			m.LogicDepth = d
		case "cs":
			if m == nil {
				return nil, bad("cs before module")
			}
			if len(fields) != 4 {
				return nil, bad("malformed cs")
			}
			var v [3]int64
			for i := 0; i < 3; i++ {
				x, err := strconv.ParseInt(fields[i+1], 10, 32)
				if err != nil {
					return nil, bad("bad cs signal")
				}
				v[i] = x
			}
			m.ControlSets = append(m.ControlSets, ControlSet{
				Clk: int32(v[0]), Rst: int32(v[1]), En: int32(v[2]),
			})
		case "cell":
			if m == nil {
				return nil, bad("cell before module")
			}
			if len(fields) < 2 {
				return nil, bad("malformed cell")
			}
			kind, err := kindFromString(fields[1])
			if err != nil {
				return nil, bad(err.Error())
			}
			c := Cell{Kind: kind, ControlSet: NoID, Chain: NoID, ChainPos: NoID}
			for i := 2; i < len(fields); {
				switch fields[i] {
				case "cs":
					if i+1 >= len(fields) {
						return nil, bad("cs attr missing value")
					}
					v, err := strconv.ParseInt(fields[i+1], 10, 32)
					if err != nil {
						return nil, bad("bad cs attr")
					}
					c.ControlSet = int32(v)
					i += 2
				case "chain":
					if i+2 >= len(fields) {
						return nil, bad("chain attr missing values")
					}
					id, err1 := strconv.ParseInt(fields[i+1], 10, 32)
					pos, err2 := strconv.ParseInt(fields[i+2], 10, 32)
					if err1 != nil || err2 != nil {
						return nil, bad("bad chain attr")
					}
					c.Chain, c.ChainPos = int32(id), int32(pos)
					i += 3
				default:
					return nil, bad("unknown cell attribute " + fields[i])
				}
			}
			m.Cells = append(m.Cells, c)
		case "net":
			if m == nil {
				return nil, bad("net before module")
			}
			if len(fields) < 2 {
				return nil, bad("malformed net")
			}
			n := Net{Driver: NoID}
			if fields[1] != "-" {
				d, err := strconv.ParseInt(fields[1], 10, 32)
				if err != nil {
					return nil, bad("bad driver")
				}
				n.Driver = CellID(d)
			}
			for _, f := range fields[2:] {
				s, err := strconv.ParseInt(f, 10, 32)
				if err != nil {
					return nil, bad("bad sink")
				}
				n.Sinks = append(n.Sinks, CellID(s))
			}
			m.Nets = append(m.Nets, n)
		case "out":
			if m == nil {
				return nil, bad("out before module")
			}
			if len(fields) != 2 {
				return nil, bad("malformed out")
			}
			o, err := strconv.ParseInt(fields[1], 10, 32)
			if err != nil {
				return nil, bad("bad output net")
			}
			m.Outputs = append(m.Outputs, NetID(o))
		default:
			return nil, bad("unknown record " + fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("netlist: empty input")
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("netlist: parsed module invalid: %w", err)
	}
	return m, nil
}
