// Package synth runs the paper's pipeline backwards. The forward direction
// proves that one exotic instruction can replace a decomposed loop; inverse
// mode starts from a proven binding's generated code and *expands* it —
// applying semantics-preserving gadgets (arithmetic partitioning, logical
// inverse, logical partitioning, offset mutation, register swap) to
// enumerate many equivalent instruction sequences, every one verified by
// differential execution on the cycle-costed simulators and ranked by
// simulated cycles and encoded bytes. The same harness doubles as a
// bug-finding sweep: it cross-checks the code generator against the IR
// reference semantics at boundary operand widths and the simulators against
// the ISPS corpus descriptions, and reports every divergence.
package synth

import (
	"fmt"
	"strconv"
	"strings"

	"extra/internal/sim"
)

// Binding names one synthesis subject: a proven catalog binding, the
// codegen target whose emitter consults it, and the operator class whose
// workload routes through that emitter. These are exactly the generator's
// exotic-emission sites (the same table the discovery sweep's savings
// evaluator uses).
type Binding struct {
	// Key is the codegen binding key, e.g. "VAX-11/movc3/sassign".
	Key string
	// Target is the codegen target name: i8086, vax, or ibm370.
	Target string
	// Class is the workload's operator class: index, move, compare,
	// clear, or xlate.
	Class string
	// Instruction is the corpus description name, for the
	// instruction-level differential.
	Instruction string
}

// Catalog lists every binding the generator consults on a cycle-costed
// target, in deterministic report order.
var Catalog = []Binding{
	{"Intel 8086/scasb/index", "i8086", "index", "scasb"},
	{"Intel 8086/movsb/sassign", "i8086", "move", "movsb"},
	{"Intel 8086/stosb/blkclr", "i8086", "clear", "stosb"},
	{"Intel 8086/cmpsb/scompare", "i8086", "compare", "cmpsb"},
	{"VAX-11/locc/index", "vax", "index", "locc"},
	{"VAX-11/movc3/sassign", "vax", "move", "movc3"},
	{"VAX-11/movc5/blkclr", "vax", "clear", "movc5"},
	{"VAX-11/cmpc3/scompare", "vax", "compare", "cmpc3"},
	{"IBM 370/mvc/sassign", "ibm370", "move", "mvc"},
	{"IBM 370/clc/scompare", "ibm370", "compare", "clc"},
	{"IBM 370/tr/xlate", "ibm370", "xlate", "tr"},
}

// Find returns the catalog binding with the given key, or nil.
func Find(key string) *Binding {
	for i := range Catalog {
		if Catalog[i].Key == key {
			return &Catalog[i]
		}
	}
	return nil
}

// EmitterFor returns the emission site that would use a binding of the
// machine's instruction for an operator of the given class, or nil when no
// emitter consults one (no cycle-costed simulator, or an instruction the
// generator never emits).
func EmitterFor(machine, instruction, class string) *Binding {
	for i := range Catalog {
		b := &Catalog[i]
		if strings.HasPrefix(b.Key, machine+"/") && b.Instruction == instruction && b.Class == class {
			return b
		}
	}
	return nil
}

// Workload layout shared by every class: the operand block at 1024, a
// second block (move destination, compare right-hand side) at 2048, the
// translate table at 4096. The blocks never collide up to the 257-byte
// boundary lengths the differential sweep compiles.
const (
	workBase  = 1024
	workOther = 2048
	workTable = 4096
)

// Workload builds the HLL source exercising a class over an n-byte block
// whose contents are data. The contents only seed the program's data
// segment — the differential trials rewrite the segment bytes directly, so
// one compile serves every trial.
func Workload(class string, n int, data []byte) (string, error) {
	var b strings.Builder
	if n > 0 {
		fmt.Fprintf(&b, "data %d %s\n", workBase, strconv.Quote(string(data[:n])))
	}
	switch class {
	case "index":
		fmt.Fprintf(&b, "let i = index %d %d '!'\nprint i\n", workBase, n)
	case "move":
		fmt.Fprintf(&b, "move %d %d %d\n", workOther, workBase, n)
	case "compare":
		if n > 0 {
			fmt.Fprintf(&b, "data %d %s\n", workOther, strconv.Quote(string(data[:n])))
		}
		fmt.Fprintf(&b, "let e = compare %d %d %d\nprint e\n", workBase, workOther, n)
	case "clear":
		fmt.Fprintf(&b, "clear %d %d\n", workBase, n)
	case "xlate":
		table := make([]byte, 256)
		for i := range table {
			table[i] = byte(255 - i)
		}
		fmt.Fprintf(&b, "data %d %s\n", workTable, strconv.Quote(string(table)))
		fmt.Fprintf(&b, "xlate %d %d %d\n", workBase, workTable, n)
	default:
		return "", fmt.Errorf("synth: unknown operator class %q", class)
	}
	return b.String(), nil
}

// BaseWorkload is the HLL source of a class's base workload: workLen bytes
// of canonicalData, the block synthesis ranks variants on and discovery
// measures a found binding's savings on.
func BaseWorkload(class string) (string, error) {
	return Workload(class, workLen, canonicalData(workLen))
}

// canonicalData builds the standard 63-byte block every binding's base
// workload runs over (the discovery sweep's evaluation block): the ranking
// cycles are measured on this data, so reports are comparable across runs.
func canonicalData(n int) []byte {
	const block = "abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJKLMNOPQRSTUVWXY!"
	out := make([]byte, n)
	for i := range out {
		out[i] = block[i%len(block)]
	}
	if n > 0 {
		out[n-1] = '!'
	}
	return out
}

// missData is canonicalData without the sentinel: the index workload's
// not-found path.
func missData(n int) []byte {
	out := canonicalData(n)
	for i := range out {
		if out[i] == '!' {
			out[i] = '.'
		}
	}
	return out
}

// CodeBytes estimates the encoded size of a program under a documented
// per-target model. The absolute numbers are synthetic — what matters for
// ranking is that an expanded variant is charged for every instruction it
// adds, in proportion to that target's real encoding granularity.
//
//	i8086: 1-byte opcodes; +2 for an immediate, +1 per memory operand,
//	       +1 for a displacement; rep prefixes cost their extra byte.
//	vax:   1-byte opcode plus per-operand specifiers (register 1,
//	       immediate 5, memory 2, displaced 3, branch displacement 2).
//	ibm370: fixed formats — RR 2, RX 4, SI 4, SS 6.
func CodeBytes(target string, code []sim.Instr) int {
	total := 0
	for _, in := range code {
		if in.Mn == "nop" && in.Label != "" {
			continue // labels assemble to nothing
		}
		switch target {
		case "i8086":
			n := 1
			switch in.Mn {
			case "rep_movsb", "rep_stosb", "repne_scasb", "repe_cmpsb":
				n = 2 // rep prefix + string opcode
			}
			for _, o := range in.Ops {
				switch o.Kind {
				case sim.KImm:
					n += 2
				case sim.KMem:
					n++
					if o.Disp != 0 {
						n++
					}
				case sim.KLabel:
					n++
				}
			}
			total += n
		case "vax":
			n := 1
			for _, o := range in.Ops {
				switch o.Kind {
				case sim.KReg:
					n++
				case sim.KImm:
					n += 5
				case sim.KMem:
					n += 2
					if o.Disp != 0 {
						n++
					}
				case sim.KLabel:
					n += 2
				}
			}
			total += n
		case "ibm370":
			switch in.Mn {
			case "lr", "ar", "sr", "cr", "nr", "hlt", "out":
				total += 2 // RR
			case "mvc", "clc", "tr":
				total += 6 // SS
			case "mvi":
				total += 4 // SI
			default:
				total += 4 // RX: la, l, st, ic, stc, branches, bct
			}
		}
	}
	return total
}
