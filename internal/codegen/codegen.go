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
	"sync"

	"extra/internal/constraint"
	"extra/internal/core"
	"extra/internal/fault"
	"extra/internal/ir"
	"extra/internal/obs"
	"extra/internal/proofs"
	"extra/internal/sim"
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

// For returns the named target ("i8086", "vax", "ibm370"). Every target is
// wrapped in a recovery boundary: a panic out of instruction selection
// surfaces as a typed *fault.PanicError instead of crashing the compiler.
func For(name string) (Target, error) {
	switch name {
	case "i8086":
		return guarded{target8086{}}, nil
	case "vax":
		return guarded{targetVAX{}}, nil
	case "ibm370":
		return guarded{target370{}}, nil
	}
	return nil, fmt.Errorf("codegen: unknown target %q", name)
}

// guarded wraps a target's Compile in a panic-recovery boundary.
type guarded struct{ t Target }

func (g guarded) Name() string  { return g.t.Name() }
func (g guarded) ISA() *sim.ISA { return g.t.ISA() }

func (g guarded) Compile(p *ir.Prog, o Options) (_ *Program, err error) {
	defer fault.RecoverInto(&err, "codegen."+g.t.Name())
	return g.t.Compile(p, o)
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
// analyses. The code generator is a consumer of EXTRA's output, exactly as
// the paper prescribes.
var (
	bindOnce sync.Once
	bindMap  map[string]*core.Binding
	bindErr  error
)

// Bindings returns the analysis results keyed "machine/instruction/operator"
// (e.g. "Intel 8086/scasb/index").
func Bindings() (map[string]*core.Binding, error) {
	bindOnce.Do(func() {
		bindMap = map[string]*core.Binding{}
		all := append(proofs.Table2(), proofs.Extensions()...)
		for _, a := range all {
			_, b, err := a.Run()
			if err != nil {
				bindErr = fmt.Errorf("codegen: analysis %s/%s failed: %v", a.Instruction, a.Operator, err)
				return
			}
			bindMap[a.Machine+"/"+a.Instruction+"/"+a.Operator] = b
		}
	})
	return bindMap, bindErr
}

// overrides, when non-nil, shadows the computed binding table; the
// fault-injection harness uses it to present the generator with corrupt or
// missing bindings without re-running the analyses.
var (
	overrideMu sync.RWMutex
	overrides  map[string]*core.Binding
)

// InjectBindings installs an override binding table consulted before the
// analysis results: a key present in m (even with a nil or corrupt value)
// replaces the real binding. It returns a restore function that removes the
// overrides. This is a test seam for the fault-injection harness.
func InjectBindings(m map[string]*core.Binding) (restore func()) {
	overrideMu.Lock()
	prev := overrides
	merged := map[string]*core.Binding{}
	for k, v := range prev {
		merged[k] = v
	}
	for k, v := range m {
		merged[k] = v
	}
	overrides = merged
	overrideMu.Unlock()
	return func() {
		overrideMu.Lock()
		overrides = prev
		overrideMu.Unlock()
	}
}

// binding fetches one binding, consulting the override table first. A
// missing binding is an error — whether the caller treats that as fatal or
// degrades to decomposition is the emitter's choice (see usableBinding).
func binding(key string) (*core.Binding, error) {
	overrideMu.RLock()
	if b, ok := overrides[key]; ok {
		overrideMu.RUnlock()
		if b == nil {
			return nil, fmt.Errorf("codegen: no binding %q", key)
		}
		return b, nil
	}
	overrideMu.RUnlock()
	bs, err := Bindings()
	if err != nil {
		return nil, err
	}
	b, ok := bs[key]
	if !ok {
		return nil, fmt.Errorf("codegen: no binding %q", key)
	}
	return b, nil
}

// validCache memoizes Binding.Validate per binding pointer, so the
// structural check costs one map hit per compile after the first.
var validCache sync.Map // *core.Binding -> error (nil for valid)

func validatedBinding(key string) (*core.Binding, error) {
	b, err := binding(key)
	if err != nil {
		return nil, err
	}
	if v, ok := validCache.Load(b); ok {
		if v == nil {
			return b, nil
		}
		return nil, v.(error)
	}
	err = b.Validate()
	if err == nil {
		validCache.Store(b, nil)
		return b, nil
	}
	validCache.Store(b, err)
	return nil, err
}

// usableBinding fetches and structurally validates a binding for op. On any
// failure — missing binding, failed analysis, corrupt document — it degrades
// gracefully: the failure is counted (codegen.fallback, labeled target/op),
// traced, and nil is returned so the caller decomposes the operator into a
// primitive loop instead of aborting the whole compilation. The emitted
// program stays correct; only the exotic instruction is lost.
func (e *emitter) usableBinding(key, op string) *core.Binding {
	b, err := validatedBinding(key)
	if err == nil {
		return b
	}
	obs.Default().Inc("codegen.fallback", e.target+"/"+op)
	if tr := obs.Trace(); tr.Enabled() {
		tr.Event("codegen.fallback", map[string]any{
			"target": e.target, "op": op, "binding": key,
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
	target  string
	code    []sim.Instr
	data    []DataSeg
	varAddr map[string]uint64
	nlabel  int
	opts    Options
}

func newEmitter(target string, p *ir.Prog, frameBase uint64, slot uint64, o Options) *emitter {
	e := &emitter{target: target, varAddr: map[string]uint64{}, opts: o}
	for i, v := range p.Vars() {
		e.varAddr[v] = frameBase + uint64(i)*slot
	}
	return e
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
	obs.Default().Inc("codegen."+kind, e.target+"/"+op)
	if tr := obs.Trace(); tr.Enabled() {
		tr.Event("codegen.emit", map[string]any{
			"target": e.target, "op": op, "kind": kind,
		})
	}
}

func (e *emitter) label(prefix string) string {
	e.nlabel++
	return fmt.Sprintf("%s%d", prefix, e.nlabel)
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
