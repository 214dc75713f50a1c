// Package hll is a tiny Rigel-flavored front end producing the compiler's
// high-level internal form (package ir). One statement per line:
//
//	# comment
//	data 100 "hello world"      place bytes in memory at address 100
//	let x = 5                   define a variable
//	let y = add x 3             y := x + 3 (also sub)
//	let i = index 100 11 'o'    1-based index of 'o' in the 11-byte string
//	move 200 100 11             move 11 bytes from 100 to 200
//	clear 300 16                zero 16 bytes at 300
//	let e = compare 100 200 11  1 if the 11-byte strings are equal
//	let b = loadb 105           load the byte at address 105
//	storeb 310 b                store b's low byte at address 310
//	print i                     emit a value to the output stream
//	xlate 100 1024 11           translate 11 bytes in place via the table at 1024
//	label top                   a branch target
//	goto top                    unconditional branch
//	ifz n done / ifnz n top     branch when a value is zero / nonzero
//
// Operands are decimal numbers, character literals like 'o', or variable
// names. The front end keeps string operations as explicit operators in the
// internal form — the compiler-support requirement of the paper's section 6.
package hll

import (
	"fmt"
	"strconv"
	"strings"

	"extra/internal/ir"
)

// Parse compiles source text into an IR program.
func Parse(src string) (*ir.Prog, error) {
	p := &ir.Prog{}
	for ln, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(stripComment(raw))
		if line == "" {
			continue
		}
		if err := parseLine(p, line); err != nil {
			return nil, fmt.Errorf("hll: line %d: %v", ln+1, err)
		}
	}
	if err := p.Check(); err != nil {
		return nil, err
	}
	return p, nil
}

// stripComment removes a trailing "# ..." comment, ignoring # characters
// inside a double-quoted string literal (where \" escapes a quote).
func stripComment(line string) string {
	inString := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '\\':
			if inString {
				i++ // skip the escaped character
			}
		case '"':
			inString = !inString
		case '#':
			if !inString {
				return line[:i]
			}
		}
	}
	return line
}

// MustParse is Parse for compile-time-constant programs; it panics on error.
func MustParse(src string) *ir.Prog {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

func parseLine(p *ir.Prog, line string) error {
	// data has its own lexical form because of the string literal.
	if strings.HasPrefix(line, "data ") {
		return parseData(p, line)
	}
	fields := strings.Fields(line)
	switch fields[0] {
	case "let":
		if len(fields) < 4 || fields[2] != "=" {
			return fmt.Errorf("malformed let (want: let x = op args...)")
		}
		dst := fields[1]
		if !isName(dst) {
			return fmt.Errorf("bad variable name %q", dst)
		}
		rhs := fields[3:]
		// A bare value: let x = 5 / let x = y.
		if len(rhs) == 1 {
			v, err := value(rhs[0])
			if err != nil {
				return err
			}
			p.Ins = append(p.Ins, ir.Ins{Op: ir.Set, Dst: dst, Args: []ir.Value{v}})
			return nil
		}
		var op ir.Op
		switch rhs[0] {
		case "add":
			op = ir.Add
		case "sub":
			op = ir.Sub
		case "index":
			op = ir.Index
		case "compare":
			op = ir.Compare
		case "loadb":
			op = ir.LoadB
		default:
			return fmt.Errorf("unknown operator %q", rhs[0])
		}
		return appendOp(p, op, dst, rhs[1:])
	case "move":
		return appendOp(p, ir.Move, "", fields[1:])
	case "clear":
		return appendOp(p, ir.Clear, "", fields[1:])
	case "storeb":
		return appendOp(p, ir.StoreB, "", fields[1:])
	case "print":
		return appendOp(p, ir.Print, "", fields[1:])
	case "xlate":
		return appendOp(p, ir.Translate, "", fields[1:])
	case "label", "goto":
		if len(fields) != 2 || !isName(fields[1]) {
			return fmt.Errorf("%s needs a label name", fields[0])
		}
		op := ir.Label
		if fields[0] == "goto" {
			op = ir.Goto
		}
		p.Ins = append(p.Ins, ir.Ins{Op: op, Dst: fields[1]})
		return nil
	case "ifz", "ifnz":
		if len(fields) != 3 || !isName(fields[2]) {
			return fmt.Errorf("%s needs an operand and a label", fields[0])
		}
		v, err := value(fields[1])
		if err != nil {
			return err
		}
		op := ir.IfZ
		if fields[0] == "ifnz" {
			op = ir.IfNZ
		}
		p.Ins = append(p.Ins, ir.Ins{Op: op, Dst: fields[2], Args: []ir.Value{v}})
		return nil
	}
	return fmt.Errorf("unknown statement %q", fields[0])
}

// appendOp appends an op instruction whose arguments are the value
// tokens args.
func appendOp(p *ir.Prog, op ir.Op, dst string, args []string) error {
	vs, err := values(args)
	if err != nil {
		return err
	}
	p.Ins = append(p.Ins, ir.Ins{Op: op, Dst: dst, Args: vs})
	return nil
}

func parseData(p *ir.Prog, line string) error {
	rest := strings.TrimSpace(strings.TrimPrefix(line, "data "))
	sp := strings.IndexByte(rest, ' ')
	if sp < 0 {
		return fmt.Errorf("malformed data (want: data ADDR \"bytes\")")
	}
	addr, err := strconv.ParseUint(rest[:sp], 10, 64)
	if err != nil {
		return fmt.Errorf("bad data address %q", rest[:sp])
	}
	lit := strings.TrimSpace(rest[sp+1:])
	s, err := strconv.Unquote(lit)
	if err != nil {
		return fmt.Errorf("bad string literal %s: %v", lit, err)
	}
	p.Ins = append(p.Ins, ir.Ins{Op: ir.Data, At: addr, Bytes: []byte(s)})
	return nil
}

func values(tokens []string) ([]ir.Value, error) {
	out := make([]ir.Value, len(tokens))
	for i, t := range tokens {
		v, err := value(t)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func value(t string) (ir.Value, error) {
	if len(t) == 3 && t[0] == '\'' && t[2] == '\'' {
		return ir.C(uint64(t[1])), nil
	}
	if n, err := strconv.ParseUint(t, 10, 64); err == nil {
		return ir.C(n), nil
	}
	if isName(t) {
		return ir.V(t), nil
	}
	return ir.Value{}, fmt.Errorf("bad operand %q", t)
}

func isName(t string) bool {
	if t == "" {
		return false
	}
	for i, r := range t {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
