// Package verilog reads and writes gate-level structural Verilog — the
// second common exchange format for the ISCAS/ITC benchmark suites
// (alongside .bench). Only the structural subset used by such netlists
// is supported:
//
//	module name (port, ...);
//	  input a, b;            // "keyinput*" inputs become key inputs
//	  output y;
//	  wire w1, w2;
//	  and g1 (out, in1, in2, ...);
//	  nand|or|nor|xor|xnor|not|buf ...
//	  assign y = w1;         // treated as a BUF
//	endmodule
//
// Comments (// and /* */), multi-line statements and 1'b0/1'b1
// constants in assigns are handled. Behavioural constructs are
// rejected with a positioned error.
package verilog

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"statsat/internal/circuit"
)

// KeyPrefix marks key inputs, mirroring the .bench convention.
const KeyPrefix = "keyinput"

// ParseError reports a syntax/semantic problem with its statement.
type ParseError struct {
	Stmt string
	Msg  string
}

func (e *ParseError) Error() string {
	s := e.Stmt
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return fmt.Sprintf("verilog: %s (in %q)", e.Msg, s)
}

var gateKeywords = map[string]circuit.GateType{
	"and":  circuit.And,
	"nand": circuit.Nand,
	"or":   circuit.Or,
	"nor":  circuit.Nor,
	"xor":  circuit.Xor,
	"xnor": circuit.Xnor,
	"not":  circuit.Not,
	"buf":  circuit.Buf,
}

// Parse reads one structural Verilog module into a circuit.
func Parse(r io.Reader) (*circuit.Circuit, error) {
	stmts, name, err := tokenizeStatements(r)
	if err != nil {
		return nil, err
	}
	var (
		inputs  []string
		outputs []string
		gates   []gateStmt
	)
	declared := map[string]bool{}
	for _, st := range stmts {
		fields := strings.Fields(st)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "input", "output", "wire":
			names := splitNames(strings.TrimPrefix(st, fields[0]))
			for _, n := range names {
				if n == "" {
					return nil, &ParseError{st, "empty identifier"}
				}
				declared[n] = true
				switch fields[0] {
				case "input":
					inputs = append(inputs, n)
				case "output":
					outputs = append(outputs, n)
				}
			}
		case "assign":
			g, err := parseContAssign(st)
			if err != nil {
				return nil, err
			}
			gates = append(gates, g)
		default:
			if ty, ok := gateKeywords[fields[0]]; ok {
				g, err := parseGateInst(st, fields[0], ty)
				if err != nil {
					return nil, err
				}
				gates = append(gates, g)
				continue
			}
			return nil, &ParseError{st, fmt.Sprintf("unsupported construct %q", fields[0])}
		}
	}

	c := circuit.New(name)
	id := map[string]int{}
	var pis, keys []string
	for _, in := range inputs {
		if strings.HasPrefix(in, KeyPrefix) {
			keys = append(keys, in)
		} else {
			pis = append(pis, in)
		}
	}
	sort.SliceStable(keys, func(i, j int) bool { return keySuffix(keys[i]) < keySuffix(keys[j]) })
	for _, n := range pis {
		id[n] = c.AddInput(n)
	}
	for _, n := range keys {
		id[n] = c.AddKey(n)
	}
	// Constants on demand.
	constID := map[bool]int{}
	getConst := func(v bool) int {
		if g, ok := constID[v]; ok {
			return g
		}
		ty := circuit.Const0
		n := "const0"
		if v {
			ty = circuit.Const1
			n = "const1"
		}
		g := c.AddGate(ty, n)
		constID[v] = g
		return g
	}

	// Multi-pass dependency resolution (same scheme as the bench parser).
	pending := gates
	defined := map[string]bool{}
	for _, n := range inputs {
		defined[n] = true
	}
	for len(pending) > 0 {
		progressed := false
		var next []gateStmt
		for _, g := range pending {
			ready := true
			for _, a := range g.args {
				if a == "1'b0" || a == "1'b1" {
					continue
				}
				if _, ok := id[a]; !ok {
					ready = false
					break
				}
			}
			if !ready {
				next = append(next, g)
				continue
			}
			fan := make([]int, len(g.args))
			for i, a := range g.args {
				switch a {
				case "1'b0":
					fan[i] = getConst(false)
				case "1'b1":
					fan[i] = getConst(true)
				default:
					fan[i] = id[a]
				}
			}
			if _, dup := id[g.out]; dup {
				return nil, &ParseError{g.stmt, fmt.Sprintf("signal %q driven twice", g.out)}
			}
			id[g.out] = c.AddGate(g.typ, g.out, fan...)
			progressed = true
		}
		if !progressed {
			g := next[0]
			for _, a := range g.args {
				if _, ok := id[a]; !ok && a != "1'b0" && a != "1'b1" {
					if !declared[a] {
						return nil, &ParseError{g.stmt, fmt.Sprintf("undeclared signal %q", a)}
					}
					return nil, &ParseError{g.stmt, fmt.Sprintf("signal %q never driven (or cyclic)", a)}
				}
			}
			return nil, &ParseError{g.stmt, "cyclic gate definitions"}
		}
		pending = next
	}
	for _, o := range outputs {
		gid, ok := id[o]
		if !ok {
			return nil, &ParseError{o, "output never driven"}
		}
		c.AddOutput(gid, o)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("verilog: %w", err)
	}
	return c, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*circuit.Circuit, error) {
	return Parse(strings.NewReader(s))
}

type gateStmt struct {
	out  string
	typ  circuit.GateType
	args []string
	stmt string
}

// tokenizeStatements strips comments, joins statements across lines
// (terminated by ';'), extracts the module name and drops the module
// header / endmodule lines.
func tokenizeStatements(r io.Reader) ([]string, string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	var sb strings.Builder
	inBlockComment := false
	for sc.Scan() {
		line := sc.Text()
		for {
			if inBlockComment {
				end := strings.Index(line, "*/")
				if end < 0 {
					line = ""
					break
				}
				line = line[end+2:]
				inBlockComment = false
			}
			start := strings.Index(line, "/*")
			if start < 0 {
				break
			}
			rest := line[start+2:]
			line = line[:start]
			if end := strings.Index(rest, "*/"); end >= 0 {
				line += " " + rest[end+2:]
				continue
			}
			inBlockComment = true
			break
		}
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return nil, "", fmt.Errorf("verilog: read: %w", err)
	}
	text := sb.String()

	var stmts []string
	name := ""
	for _, raw := range strings.Split(text, ";") {
		st := strings.Join(strings.Fields(raw), " ")
		if st == "" {
			continue
		}
		st = strings.TrimPrefix(st, "endmodule")
		st = strings.TrimSpace(st)
		if st == "" {
			continue
		}
		if strings.HasPrefix(st, "module ") {
			rest := strings.TrimSpace(st[len("module "):])
			if i := strings.IndexAny(rest, " ("); i >= 0 {
				name = rest[:i]
			} else {
				name = rest
			}
			continue
		}
		stmts = append(stmts, st)
	}
	return stmts, name, nil
}

// splitNames parses "a, b , c" (optionally with a [msb:lsb] range,
// which is rejected — the subset is scalar-only).
func splitNames(s string) []string {
	var out []string
	for _, n := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(n))
	}
	return out
}

// parseGateInst parses "and g1 (out, a, b)" or "and (out, a)".
func parseGateInst(st, kw string, ty circuit.GateType) (gateStmt, error) {
	open := strings.IndexByte(st, '(')
	close := strings.LastIndexByte(st, ')')
	if open < 0 || close < open {
		return gateStmt{}, &ParseError{st, "malformed gate instantiation"}
	}
	ports := splitNames(st[open+1 : close])
	if len(ports) < 2 {
		return gateStmt{}, &ParseError{st, "gate needs an output and at least one input"}
	}
	for _, p := range ports {
		if p == "" {
			return gateStmt{}, &ParseError{st, "empty port"}
		}
	}
	out, args := ports[0], ports[1:]
	if n, min, max := len(args), ty.MinFanin(), ty.MaxFanin(); n < min || (max >= 0 && n > max) {
		return gateStmt{}, &ParseError{st, fmt.Sprintf("%s with %d inputs", kw, n)}
	}
	return gateStmt{out: out, typ: ty, args: args, stmt: st}, nil
}

// parseContAssign handles "assign y = x" and "assign y = 1'b0/1'b1" (the
// forms ISCAS-converted netlists use); anything else is rejected.
func parseContAssign(st string) (gateStmt, error) {
	body := strings.TrimSpace(strings.TrimPrefix(st, "assign"))
	eq := strings.IndexByte(body, '=')
	if eq < 0 {
		return gateStmt{}, &ParseError{st, "assign without '='"}
	}
	lhs := strings.TrimSpace(body[:eq])
	rhs := strings.TrimSpace(body[eq+1:])
	if lhs == "" || rhs == "" {
		return gateStmt{}, &ParseError{st, "malformed assign"}
	}
	if strings.ContainsAny(rhs, "&|^~?(") {
		return gateStmt{}, &ParseError{st, "behavioural assign expressions are not supported"}
	}
	return gateStmt{out: lhs, typ: circuit.Buf, args: []string{rhs}, stmt: st}, nil
}

func keySuffix(name string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(name, KeyPrefix))
	if err != nil {
		return 1 << 30
	}
	return n
}

// Write serialises a circuit as a structural Verilog module. MUX gates
// are lowered to and/or/not primitives (structural Verilog has no mux
// primitive); constants become 1'b0 / 1'b1 assigns.
func Write(w io.Writer, c *circuit.Circuit) error {
	bw := bufio.NewWriter(w)
	names := make([]string, len(c.Gates))
	used := map[string]bool{}
	for i, kid := range c.Keys {
		names[kid] = fmt.Sprintf("%s%d", KeyPrefix, i)
		used[names[kid]] = true
	}
	sanitize := func(n string) string {
		var sb strings.Builder
		for _, r := range n {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
				sb.WriteRune(r)
			default:
				sb.WriteByte('_')
			}
		}
		s := sb.String()
		if s == "" || (s[0] >= '0' && s[0] <= '9') {
			s = "n" + s
		}
		return s
	}
	for id := range c.Gates {
		if names[id] != "" {
			continue
		}
		n := sanitize(c.Gates[id].Name)
		if n == "" || n == "n" || used[n] || (c.Gates[id].Type != circuit.Key && strings.HasPrefix(n, KeyPrefix)) {
			n = fmt.Sprintf("g%d", id)
			for used[n] {
				n = "x" + n
			}
		}
		names[id] = n
		used[n] = true
	}
	// Output ports must not collide with internal wire names: emit
	// dedicated port wires driven by assigns.
	outPorts := make([]string, len(c.POs))
	for i := range c.POs {
		p := sanitize(c.OutputName(i))
		if p == "" || used[p] {
			p = fmt.Sprintf("po%d", i)
			for used[p] {
				p = "x" + p
			}
		}
		outPorts[i] = p
		used[p] = true
	}

	modName := sanitize(c.Name)
	if modName == "" || modName == "n" {
		modName = "top"
	}
	var ports []string
	for _, id := range c.PIs {
		ports = append(ports, names[id])
	}
	for _, id := range c.Keys {
		ports = append(ports, names[id])
	}
	ports = append(ports, outPorts...)
	fmt.Fprintf(bw, "module %s (%s);\n", modName, strings.Join(ports, ", "))
	for _, id := range c.PIs {
		fmt.Fprintf(bw, "  input %s;\n", names[id])
	}
	for _, id := range c.Keys {
		fmt.Fprintf(bw, "  input %s;\n", names[id])
	}
	for _, p := range outPorts {
		fmt.Fprintf(bw, "  output %s;\n", p)
	}
	for _, id := range c.MustTopoOrder() {
		g := &c.Gates[id]
		if g.Type == circuit.Input || g.Type == circuit.Key {
			continue
		}
		fmt.Fprintf(bw, "  wire %s;\n", names[id])
	}
	auxCount := 0
	aux := func() string {
		auxCount++
		n := fmt.Sprintf("mx%d", auxCount)
		for used[n] {
			n = "x" + n
		}
		used[n] = true
		fmt.Fprintf(bw, "  wire %s;\n", n)
		return n
	}
	gi := 0
	inst := func(kw, out string, ins ...string) {
		gi++
		fmt.Fprintf(bw, "  %s I%d (%s, %s);\n", kw, gi, out, strings.Join(ins, ", "))
	}
	for _, id := range c.MustTopoOrder() {
		g := &c.Gates[id]
		ins := make([]string, len(g.Fanin))
		for i, f := range g.Fanin {
			ins[i] = names[f]
		}
		switch g.Type {
		case circuit.Input, circuit.Key:
		case circuit.Const0:
			fmt.Fprintf(bw, "  assign %s = 1'b0;\n", names[id])
		case circuit.Const1:
			fmt.Fprintf(bw, "  assign %s = 1'b1;\n", names[id])
		case circuit.Buf:
			inst("buf", names[id], ins...)
		case circuit.Not:
			inst("not", names[id], ins...)
		case circuit.And:
			inst("and", names[id], ins...)
		case circuit.Nand:
			inst("nand", names[id], ins...)
		case circuit.Or:
			inst("or", names[id], ins...)
		case circuit.Nor:
			inst("nor", names[id], ins...)
		case circuit.Xor:
			inst("xor", names[id], ins...)
		case circuit.Xnor:
			inst("xnor", names[id], ins...)
		case circuit.Mux:
			// z = (~s & a) | (s & b)
			ns, t1, t2 := aux(), aux(), aux()
			inst("not", ns, ins[0])
			inst("and", t1, ns, ins[1])
			inst("and", t2, ins[0], ins[2])
			inst("or", names[id], t1, t2)
		default:
			return fmt.Errorf("verilog: cannot serialise gate type %v", g.Type)
		}
	}
	for i, po := range c.POs {
		fmt.Fprintf(bw, "  assign %s = %s;\n", outPorts[i], names[po])
	}
	fmt.Fprintln(bw, "endmodule")
	return bw.Flush()
}

// Format renders the circuit as a Verilog string.
func Format(c *circuit.Circuit) string {
	var sb strings.Builder
	if err := Write(&sb, c); err != nil {
		return "// error: " + err.Error()
	}
	return sb.String()
}
