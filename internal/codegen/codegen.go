// Package codegen is the retargetable code generator of the paper's
// section 6: it compiles the high-level internal form (package ir) for the
// Intel 8086, VAX-11 and IBM 370, emitting an exotic instruction whenever
// one of EXTRA's bindings covers the operator and the binding's constraints
// can be satisfied or verified at compile time, and decomposing the
// operator into a primitive loop otherwise.
//
// The three mechanisms the paper identifies are all here:
//
//   - bindings: each target consults the actual Binding objects produced by
//     the proof scripts (package proofs) — their constraints gate emission,
//     and the IBM 370 mvc emission applies the binding's coding constraint
//     (length loaded minus one);
//   - constraint satisfaction rewriting: an out-of-range or unverifiable
//     length is rewritten into consecutive sub-moves that each satisfy the
//     range constraint (65535 bytes on the VAX, 256 on the 370);
//   - optimizations: a register-preference pass removes reloads of operands
//     already sitting in an exotic instruction's dedicated registers, the
//     paper's "intelligent register allocation" for cascaded string
//     operations.
package codegen

import (
	"fmt"
	"strconv"
	"sync"

	"extra/internal/constraint"
	"extra/internal/core"
	"extra/internal/fault"
	"extra/internal/ir"
	"extra/internal/obs"
	"extra/internal/proofs"
	"extra/internal/sim"
	"extra/internal/sim/i8086"
	"extra/internal/sim/ibm370"
	"extra/internal/sim/vax"
)

// Options selects the generator's mechanisms, mainly so the benchmarks can
// ablate them.
type Options struct {
	// Exotic enables exotic-instruction emission from bindings; without it
	// every operator decomposes into a primitive loop.
	Exotic bool
	// Rewriting enables constraint-satisfaction rewriting (chunked moves).
	Rewriting bool
	// RegPref enables the redundant-operand-load elimination pass.
	RegPref bool
}

// AllOn enables every mechanism.
func AllOn() Options { return Options{Exotic: true, Rewriting: true, RegPref: true} }

// DataSeg is a pre-initialized memory region.
type DataSeg struct {
	At    uint64
	Bytes []byte
}

// Program is compiled code plus its data segments and variable layout.
type Program struct {
	Target  string
	Code    []sim.Instr
	Data    []DataSeg
	VarAddr map[string]uint64
}

// Target compiles IR for one machine.
type Target interface {
	Name() string
	Compile(p *ir.Prog, o Options) (*Program, error)
	// ISA returns the matching simulator.
	ISA() *sim.ISA
}

// target is one machine's code generator. The machines differ only in
// their entry of the targets table; all of them compile through the one
// Compile below. A target from ForBinding also carries one binding of its
// own, which replaces the catalog's under key.
type target struct {
	name     string
	isa      func() *sim.ISA
	frame    uint64 // variable i lives at frame + i*slot
	slot     uint64
	ins      func(*emitter, ir.Ins) error
	clobbers func(sim.Instr) []string // for the register-preference pass

	key     string        // the binding key bind replaces; "" for none
	bind    *core.Binding // nil: no binding under key
	bindErr error         // why bind is unusable; nil when it is usable
}

// targets is the table For looks names up in; each machine's frame
// constant documents what its emitter does.
var targets = [...]target{
	{name: "i8086", isa: i8086.ISA, frame: frame8086, slot: 2, ins: (*emitter).ins8086, clobbers: clobbers8086},
	{name: "vax", isa: vax.ISA, frame: frameVAX, slot: 4, ins: (*emitter).insVAX, clobbers: clobbersVAX},
	{name: "ibm370", isa: ibm370.ISA, frame: frame370, slot: 4, ins: (*emitter).ins370, clobbers: clobbers370},
}

// For returns the named target ("i8086", "vax", "ibm370"), compiling with
// the catalog's bindings.
func For(name string) (Target, error) {
	for i := range targets {
		if targets[i].name == name {
			return &targets[i], nil
		}
	}
	return nil, fmt.Errorf("codegen: unknown target %q", name)
}

// ForBinding is For with b in place of the catalog's binding under key; a
// nil b means no binding, so the emitter that consults key decomposes its
// operator. The discovery sweep measures a found binding's savings this
// way, and the fault drill hands the generator a corrupt binding. Nothing
// outside the returned target changes, so any number of them compile at
// once.
func ForBinding(name, key string, b *core.Binding) (Target, error) {
	t, err := For(name)
	if err != nil {
		return nil, err
	}
	own := *t.(*target)
	own.key, own.bind = key, b
	if b == nil {
		own.bindErr = fmt.Errorf("codegen: no binding %q", key)
	} else {
		own.bindErr = b.Validate()
	}
	return &own, nil
}

func (t *target) Name() string  { return t.name }
func (t *target) ISA() *sim.ISA { return t.isa() }

// Compile translates p for the target's machine. It is a recovery
// boundary: a panic out of instruction selection surfaces as a typed
// *fault.PanicError instead of crashing the compiler.
func (t *target) Compile(p *ir.Prog, o Options) (_ *Program, err error) {
	defer fault.RecoverInto(&err, "codegen."+t.name)
	if err := p.Check(); err != nil {
		return nil, err
	}
	e := &emitter{t: t, varAddr: map[string]uint64{}, opts: o}
	for i, v := range p.Vars() {
		e.varAddr[v] = t.frame + uint64(i)*t.slot
	}
	for _, ins := range p.Ins {
		if err := t.ins(e, ins); err != nil {
			return nil, err
		}
	}
	e.emit(sim.Ins("hlt"))
	code := e.code
	if o.RegPref {
		code = regPref(code, t.clobbers)
	}
	return &Program{Target: t.name, Code: code, Data: e.data, VarAddr: e.varAddr}, nil
}

// Targets lists the supported target names.
func Targets() []string { return []string{"i8086", "vax", "ibm370"} }

// Run loads a compiled program into a fresh machine and executes it.
func Run(t Target, p *Program, maxSteps int) (*sim.Machine, error) {
	m, err := sim.NewMachine(t.ISA(), p.Code)
	if err != nil {
		return nil, err
	}
	for _, d := range p.Data {
		m.StoreBytes(d.At, d.Bytes)
	}
	if err := m.Run(maxSteps); err != nil {
		return nil, err
	}
	return m, nil
}

// bindings caches the proof results so each compile does not re-run the
// analyses, and each binding's Validate result beside it. The code
// generator is a consumer of EXTRA's output, exactly as the paper
// prescribes.
var (
	bindOnce  sync.Once
	bindMap   map[string]*core.Binding
	bindValid map[string]error
	bindErr   error
)

// Bindings returns the analysis results keyed "machine/instruction/operator"
// (e.g. "Intel 8086/scasb/index").
func Bindings() (map[string]*core.Binding, error) {
	bindOnce.Do(func() {
		bindMap, bindValid = map[string]*core.Binding{}, map[string]error{}
		all := append(proofs.Table2(), proofs.Extensions()...)
		for _, a := range all {
			_, b, err := a.Run()
			if err != nil {
				bindErr = fmt.Errorf("codegen: analysis %s/%s failed: %v", a.Instruction, a.Operator, err)
				return
			}
			key := a.Machine + "/" + a.Instruction + "/" + a.Operator
			bindMap[key], bindValid[key] = b, b.Validate()
		}
	})
	return bindMap, bindErr
}

// binding returns the binding t compiles key with, or why there is no
// usable one: t's own under its key, the catalog's under any other. A
// missing binding is an error — whether the caller treats that as fatal or
// degrades to decomposition is the emitter's choice (see usableBinding).
func (t *target) binding(key string) (*core.Binding, error) {
	if key == t.key {
		return t.bind, t.bindErr
	}
	bs, err := Bindings()
	if err != nil {
		return nil, err
	}
	b, ok := bs[key]
	if !ok {
		return nil, fmt.Errorf("codegen: no binding %q", key)
	}
	return b, bindValid[key]
}

// usableBinding fetches and structurally validates a binding for op. On any
// failure — missing binding, failed analysis, corrupt document — it degrades
// gracefully: the failure is counted (codegen.fallback, labeled target/op),
// traced, and nil is returned so the caller decomposes the operator into a
// primitive loop instead of aborting the whole compilation. The emitted
// program stays correct; only the exotic instruction is lost.
func (e *emitter) usableBinding(key, op string) *core.Binding {
	b, err := e.t.binding(key)
	if err == nil {
		return b
	}
	obs.Default().Inc("codegen.fallback", e.t.name+"/"+op)
	if tr := obs.Trace(); tr.Enabled() {
		tr.Event("codegen.fallback", map[string]any{
			"target": e.t.name, "op": op, "binding": key,
			"class": fault.Classify(err), "detail": err.Error(),
		})
	}
	return nil
}

// rangeFor extracts the [min, max] range constraint for the named operand
// from a binding (intersecting multiple ranges), returning ok=false when
// the operand has no range constraint.
func rangeFor(b *core.Binding, operand string) (min, max uint64, ok bool) {
	min, max, ok = 0, ^uint64(0), false
	for _, c := range b.Constraints {
		if c.Operand != operand || c.Kind != constraint.Range {
			continue
		}
		if c.Min > min {
			min = c.Min
		}
		if c.Max < max {
			max = c.Max
		}
		ok = true
	}
	return min, max, ok
}

// offsetFor extracts the coding-constraint delta for an operand (0 when
// none): the compiler must load operand+delta into the instruction field.
func offsetFor(b *core.Binding, operand string) int64 {
	for _, c := range b.Constraints {
		if c.Operand == operand && c.Kind == constraint.Offset {
			return c.Delta
		}
	}
	return 0
}

// emitter is the shared per-compilation state.
type emitter struct {
	t       *target
	code    []sim.Instr
	data    []DataSeg
	varAddr map[string]uint64
	nlabel  int
	opts    Options
}

func (e *emitter) emit(ins ...sim.Instr) { e.code = append(e.code, ins...) }

// noteEmit records whether a string operator compiled to an exotic
// instruction from a binding or decomposed into a primitive loop: the
// counter `codegen.exotic` / `codegen.decomposed` labeled target/op, plus
// a trace event on the process tracer when one is installed. The ratio of
// the two counters is the paper's section 6 claim made measurable.
func (e *emitter) noteEmit(op string, exotic bool) {
	kind := "decomposed"
	if exotic {
		kind = "exotic"
	}
	obs.Default().Inc("codegen."+kind, e.t.name+"/"+op)
	if tr := obs.Trace(); tr.Enabled() {
		tr.Event("codegen.emit", map[string]any{
			"target": e.t.name, "op": op, "kind": kind,
		})
	}
}

func (e *emitter) label(prefix string) string {
	e.nlabel++
	return prefix + strconv.Itoa(e.nlabel)
}

func (e *emitter) dataSeg(at uint64, bytes []byte) {
	e.data = append(e.data, DataSeg{At: at, Bytes: append([]byte(nil), bytes...)})
}

// userLabel namespaces front-end labels away from generated ones.
func userLabel(name string) string { return "U_" + name }

// constOK reports whether a constant operand satisfies the binding's range
// for the named binding operand; variable operands satisfy it only when
// varMax (the largest value a target variable can hold) fits the range.
func constOK(b *core.Binding, operand string, v ir.Value, varMax uint64) bool {
	sat := constSat(b, operand, v, varMax)
	if sat {
		obs.Default().Inc("constraint.check", "sat")
	} else {
		obs.Default().Inc("constraint.check", "unsat")
	}
	return sat
}

func constSat(b *core.Binding, operand string, v ir.Value, varMax uint64) bool {
	min, max, ok := rangeFor(b, operand)
	if !ok {
		return true
	}
	if v.IsConst {
		return v.Const >= min && v.Const <= max
	}
	return min == 0 && varMax <= max
}
