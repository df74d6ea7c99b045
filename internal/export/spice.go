// Package export writes (and re-reads) the interchange artifacts a
// production analog flow emits: SPICE netlists for the simulated circuits,
// SPEF parasitic annotations for extracted layouts, and DEF-style layout
// dumps of placements and routing. The writers are used by the CLI's export
// command; the parsers make every artifact round-trippable, which the test
// suite exploits.
package export

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"analogfold/internal/fault"
	"analogfold/internal/netlist"
)

// WriteSpice renders the circuit as a SPICE deck: one card per device, with
// MOS sizing in nanometers and the analog metadata (bias current, overdrive)
// carried as comment parameters so ReadSpice can reconstruct the circuit.
func WriteSpice(w io.Writer, c *netlist.Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "* AnalogFold netlist: %s\n", c.Name)
	fmt.Fprintf(bw, "* ports: inp=%s inn=%s outp=%s", netName(c, c.InP), netName(c, c.InN), netName(c, c.OutP))
	if c.OutN >= 0 {
		fmt.Fprintf(bw, " outn=%s", netName(c, c.OutN))
	}
	fmt.Fprintln(bw)
	for _, d := range c.Devices {
		switch d.Type {
		case netlist.NMOS, netlist.PMOS:
			model := "nch"
			if d.Type == netlist.PMOS {
				model = "pch"
			}
			dn, _ := d.Terminal("D")
			gn, _ := d.Terminal("G")
			sn, _ := d.Terminal("S")
			bulk := "VSS"
			if d.Type == netlist.PMOS {
				bulk = "VDD"
			}
			fmt.Fprintf(bw, "M%s %s %s %s %s %s W=%dn L=%dn $ ID=%.17g VOV=%.17g\n",
				strings.TrimPrefix(d.Name, "M"),
				netName(c, dn.Net), netName(c, gn.Net), netName(c, sn.Net), bulk,
				model, d.W, d.L, d.ID, d.Vov)
		case netlist.Cap:
			p, _ := d.Terminal("P")
			n, _ := d.Terminal("N")
			fmt.Fprintf(bw, "C%s %s %s %.17g\n",
				strings.TrimPrefix(d.Name, "C"), netName(c, p.Net), netName(c, n.Net), d.CapF)
		case netlist.Res:
			p, _ := d.Terminal("P")
			n, _ := d.Terminal("N")
			fmt.Fprintf(bw, "R%s %s %s %.17g\n",
				strings.TrimPrefix(d.Name, "R"), netName(c, p.Net), netName(c, n.Net), d.ResOhm)
		}
	}
	// Symmetry constraints as structured comments, so the full problem
	// round-trips.
	for _, pr := range c.SymNetPairs {
		fmt.Fprintf(bw, "* symnet %s %s\n", netName(c, pr[0]), netName(c, pr[1]))
	}
	for _, n := range c.SelfSymNets {
		fmt.Fprintf(bw, "* selfsym %s\n", netName(c, n))
	}
	for _, pr := range c.SymDevPairs {
		fmt.Fprintf(bw, "* symdev %s %s\n", c.Devices[pr[0]].Name, c.Devices[pr[1]].Name)
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

func netName(c *netlist.Circuit, i int) string { return c.Nets[i].Name }

// ReadSpice parses a deck written by WriteSpice back into a circuit. Net
// types are inferred from canonical rail/port names, as in the benchmarks.
func ReadSpice(r io.Reader, name string) (*netlist.Circuit, error) {
	b := netlist.NewBuilder(name)
	sc := bufio.NewScanner(r)
	ports := map[string]string{}
	var symNets, symDevs [][2]string
	var selfSyms []string
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line == ".end" {
			continue
		}
		fields := strings.Fields(line)
		if strings.HasPrefix(line, "*") {
			switch {
			case len(fields) >= 2 && fields[1] == "ports:":
				for _, kv := range fields[2:] {
					parts := strings.SplitN(kv, "=", 2)
					if len(parts) == 2 {
						ports[parts[0]] = parts[1]
					}
				}
			case len(fields) == 4 && fields[1] == "symnet":
				symNets = append(symNets, [2]string{fields[2], fields[3]})
			case len(fields) == 3 && fields[1] == "selfsym":
				selfSyms = append(selfSyms, fields[2])
			case len(fields) == 4 && fields[1] == "symdev":
				symDevs = append(symDevs, [2]string{fields[2], fields[3]})
			}
			continue
		}
		switch line[0] {
		case 'M', 'm':
			if len(fields) < 8 {
				return nil, spiceErr(nil, "line %d: malformed MOS card", lineNo)
			}
			typ := netlist.NMOS
			if fields[5] == "pch" {
				typ = netlist.PMOS
			}
			wNm, err := parseNm(fields[6], "W=")
			if err != nil {
				return nil, spiceErr(err, "line %d", lineNo)
			}
			lNm, err := parseNm(fields[7], "L=")
			if err != nil {
				return nil, spiceErr(err, "line %d", lineNo)
			}
			id, vov := 10e-6, 0.15
			for i := 8; i < len(fields); i++ {
				if strings.HasPrefix(fields[i], "ID=") {
					id, err = strconv.ParseFloat(fields[i][3:], 64)
				}
				if strings.HasPrefix(fields[i], "VOV=") {
					vov, err = strconv.ParseFloat(fields[i][4:], 64)
				}
				if err != nil {
					return nil, spiceErr(err, "line %d", lineNo)
				}
			}
			declareRails(b, fields[1:4])
			b.MOS(typ, "M"+fields[0][1:], fields[1], fields[2], fields[3], wNm, lNm, id, vov)
		case 'C', 'c':
			if len(fields) < 4 {
				return nil, spiceErr(nil, "line %d: malformed cap card", lineNo)
			}
			v, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, spiceErr(err, "line %d", lineNo)
			}
			declareRails(b, fields[1:3])
			b.Capacitor("C"+fields[0][1:], fields[1], fields[2], v)
		case 'R', 'r':
			if len(fields) < 4 {
				return nil, spiceErr(nil, "line %d: malformed res card", lineNo)
			}
			v, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, spiceErr(err, "line %d", lineNo)
			}
			declareRails(b, fields[1:3])
			b.Resistor("R"+fields[0][1:], fields[1], fields[2], v)
		default:
			return nil, spiceErr(nil, "line %d: unknown card %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, spiceErr(err, "read")
	}
	for _, pr := range symNets {
		b.SymNets(pr[0], pr[1])
	}
	for _, n := range selfSyms {
		b.SelfSym(n)
	}
	for _, pr := range symDevs {
		b.SymDevices(pr[0], pr[1])
	}
	c, err := b.Build()
	if err != nil {
		return nil, spiceErr(err, "build")
	}
	assign := func(key string, dst *int) error {
		name, ok := ports[key]
		if !ok {
			return nil
		}
		i, ok := c.NetByName(name)
		if !ok {
			return spiceErr(nil, "port %s references unknown net %q", key, name)
		}
		*dst = i
		return nil
	}
	c.OutN = -1
	for _, p := range []struct {
		key string
		dst *int
	}{{"inp", &c.InP}, {"inn", &c.InN}, {"outp", &c.OutP}, {"outn", &c.OutN}} {
		if err := assign(p.key, p.dst); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// declareRails interns canonical net names with their analog types before
// the device card creates them as plain signals.
func declareRails(b *netlist.Builder, nets []string) {
	for _, n := range nets {
		switch {
		case n == "VDD":
			b.Net(n, netlist.NetPower)
		case n == "VSS":
			b.Net(n, netlist.NetGround)
		case strings.HasPrefix(n, "VIN"):
			b.Net(n, netlist.NetInput)
		case strings.HasPrefix(n, "VOUT"):
			b.Net(n, netlist.NetOutput)
		case strings.HasPrefix(n, "NB") || strings.HasPrefix(n, "PB") || n == "NBN" || n == "NBP" || n == "VCMFB":
			b.Net(n, netlist.NetBias)
		}
	}
}

// spiceErr types a ReadSpice failure as malformed input.
func spiceErr(cause error, format string, args ...any) error {
	return fault.Wrap(fault.StageNetlist, fault.ErrInvalidInput, cause, "export: spice "+format, args...)
}

func parseNm(field, prefix string) (int, error) {
	if !strings.HasPrefix(field, prefix) || !strings.HasSuffix(field, "n") {
		return 0, fmt.Errorf("bad size field %q", field)
	}
	v, err := strconv.Atoi(field[len(prefix) : len(field)-1])
	if err != nil {
		return 0, fmt.Errorf("bad size field %q: %w", field, err)
	}
	return v, nil
}

// sortedNetIndices returns net indices ordered by name, for deterministic
// output in the SPEF writer.
func sortedNetIndices(c *netlist.Circuit) []int {
	idx := make([]int, len(c.Nets))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return c.Nets[idx[a]].Name < c.Nets[idx[b]].Name })
	return idx
}
