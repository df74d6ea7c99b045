package export

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"analogfold/internal/extract"
	"analogfold/internal/fault"
	"analogfold/internal/netlist"
)

// WriteSPEF renders extracted parasitics in a SPEF-style annotation: one
// *D_NET section per net with total capacitance, a *CAP section carrying the
// ground cap and every coupling cap incident to the net (couplings are
// listed once, on the lexicographically first net), and a *RES section with
// the lumped wire resistance. Units follow the SPEF header (ohm, farad).
func WriteSPEF(w io.Writer, c *netlist.Circuit, p *extract.Parasitics) error {
	if len(p.Net) != len(c.Nets) {
		return fmt.Errorf("export: parasitics cover %d nets, circuit has %d", len(p.Net), len(c.Nets))
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "*SPEF \"IEEE 1481\"\n*DESIGN \"%s\"\n*T_UNIT 1 NS\n*C_UNIT 1 F\n*R_UNIT 1 OHM\n\n", c.Name)
	for _, ni := range sortedNetIndices(c) {
		np := p.Net[ni]
		total := np.C + p.TotalCoupling(ni)
		fmt.Fprintf(bw, "*D_NET %s %.8g\n", c.Nets[ni].Name, total)
		fmt.Fprintf(bw, "*CAP\n")
		cnum := 1
		fmt.Fprintf(bw, "%d %s:gnd %.8g\n", cnum, c.Nets[ni].Name, np.C)
		for _, k := range p.SortedCouplingKeys() {
			if k[0] != ni {
				continue // list each coupling once, under its first net
			}
			cnum++
			fmt.Fprintf(bw, "%d %s %s %.8g\n", cnum, c.Nets[k[0]].Name, c.Nets[k[1]].Name, p.Coupling[k])
		}
		fmt.Fprintf(bw, "*RES\n1 %s:1 %s:2 %.8g\n", c.Nets[ni].Name, c.Nets[ni].Name, np.R)
		fmt.Fprintf(bw, "*END\n\n")
	}
	return bw.Flush()
}

// ReadSPEF parses an annotation written by WriteSPEF back into Parasitics.
func ReadSPEF(r io.Reader, c *netlist.Circuit) (*extract.Parasitics, error) {
	p := &extract.Parasitics{
		Net:      make([]extract.NetParasitics, len(c.Nets)),
		Coupling: map[[2]int]float64{},
	}
	sc := bufio.NewScanner(r)
	cur := -1
	section := ""
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "*D_NET"):
			if len(fields) < 3 {
				return nil, spefErr(nil, "line %d: malformed D_NET", lineNo)
			}
			ni, ok := c.NetByName(fields[1])
			if !ok {
				return nil, spefErr(nil, "line %d: unknown net %q", lineNo, fields[1])
			}
			cur = ni
			section = ""
		case line == "*CAP" || line == "*RES":
			section = line
		case line == "*END":
			cur = -1
		case strings.HasPrefix(line, "*"):
			// header line: ignore
		default:
			if cur < 0 {
				return nil, spefErr(nil, "line %d: value outside a net section", lineNo)
			}
			switch section {
			case "*CAP":
				if len(fields) < 3 {
					return nil, spefErr(nil, "line %d: malformed cap", lineNo)
				}
				v, err := parseParasitic(fields[len(fields)-1])
				if err != nil {
					return nil, spefErr(err, "line %d", lineNo)
				}
				if strings.HasSuffix(fields[1], ":gnd") {
					p.Net[cur].C = v
				} else {
					a, ok1 := c.NetByName(fields[1])
					b, ok2 := c.NetByName(fields[2])
					if !ok1 || !ok2 {
						return nil, spefErr(nil, "line %d: unknown coupling nets", lineNo)
					}
					if a > b {
						a, b = b, a
					}
					p.Coupling[[2]int{a, b}] = v
				}
			case "*RES":
				if len(fields) < 4 {
					return nil, spefErr(nil, "line %d: malformed res", lineNo)
				}
				v, err := parseParasitic(fields[3])
				if err != nil {
					return nil, spefErr(err, "line %d", lineNo)
				}
				p.Net[cur].R = v
			default:
				return nil, spefErr(nil, "line %d: value outside CAP/RES section", lineNo)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, spefErr(err, "read")
	}
	return p, nil
}

// parseParasitic reads one R or C value, which must be finite and
// non-negative.
func parseParasitic(field string) (float64, error) {
	v, err := strconv.ParseFloat(field, 64)
	if err == nil && !(v >= 0 && v <= math.MaxFloat64) {
		err = fmt.Errorf("value %q is not finite and non-negative", field)
	}
	return v, err
}

// spefErr types a ReadSPEF failure as malformed input.
func spefErr(cause error, format string, args ...any) error {
	return fault.Wrap(fault.StageEvaluation, fault.ErrInvalidInput, cause, "export: spef "+format, args...)
}
