package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"extra/internal/batch"
	"extra/internal/core"
	"extra/internal/isps"
	"extra/internal/langops"
	"extra/internal/machines"
	"extra/internal/obs"
	"extra/internal/proofs"
)

// catalogValidate is the differential-validation input count per analysis,
// the CI's `extra batch -validate 2000`.
const catalogValidate = 2000

// catalogBench is the full proof catalog (Table 2 plus the extensions)
// through batch.Runner, each finished binding validated on seeded inputs.
// One op is one validated analysis.
type catalogBench struct {
	analyses []*proofs.Analysis
	ref      map[string]refRow
	order    []int // seeded permutation of analyses; op k runs order[k%len]
	seed     int64
	runner   *batch.Runner
}

// refRow is the reference outcome of one catalog analysis.
type refRow struct{ steps, elementary int }

func pairOf(a *proofs.Analysis) string { return a.Instruction + "/" + a.Operator }

// catalogRefs runs every catalog analysis once, directly through its proof
// script, and records the step counts a correct run must reproduce.
func catalogRefs() ([]*proofs.Analysis, map[string]refRow, error) {
	all := append(proofs.Table2(), proofs.Extensions()...)
	ref := map[string]refRow{}
	for _, a := range all {
		_, b, err := a.Run()
		if err != nil {
			return nil, nil, fmt.Errorf("reference run %s: %w", pairOf(a), err)
		}
		ref[pairOf(a)] = refRow{b.Steps, b.Elementary}
	}
	return all, ref, nil
}

func setupCatalog(seed int64, _ string) (bench, error) {
	all, ref, err := catalogRefs()
	if err != nil {
		return nil, err
	}
	return &catalogBench{
		analyses: all,
		ref:      ref,
		order:    rand.New(rand.NewSource(seed)).Perm(len(all)),
		seed:     seed,
		runner:   &batch.Runner{Jobs: 1, Metrics: obs.NewRegistry()},
	}, nil
}

// catalogOp is op k's input: which analysis, and the seed of its
// validation inputs. Every op of one analysis validates the same inputs.
type catalogOp struct {
	analysis int
	valSeed  int64
}

func (c *catalogBench) input(k int) catalogOp {
	a := c.order[k%len(c.order)]
	return catalogOp{a, c.seed*1_000_003 + int64(a)}
}

func (c *catalogBench) run(d time.Duration, _ bool) (*outcome, error) {
	return drive(d, len(c.order), func(k int) (string, string) {
		op := c.input(k)
		a := c.analyses[op.analysis]
		return pairOf(a), c.runOne(a, op.valSeed)
	}), nil
}

// runOne is one op through the real entry point: the batch runner's fault
// boundary, then validation. It returns "" when the output checks pass.
func (c *catalogBench) runOne(a *proofs.Analysis, valSeed int64) string {
	res, b := c.runner.RunOneBound(context.Background(), a)
	if res.Outcome != "ok" {
		return fmt.Sprintf("%s: outcome %s: %s", pairOf(a), res.Outcome, res.Error)
	}
	n, err := core.ValidateBinding(b, a.Gen, catalogValidate, valSeed)
	return c.check(a, res.Steps, res.Elementary, n, err)
}

func (c *catalogBench) check(a *proofs.Analysis, steps, elementary, validated int, verr error) string {
	want := c.ref[pairOf(a)]
	switch {
	case steps != want.steps || elementary != want.elementary:
		return fmt.Sprintf("%s: %d steps / %d elementary, reference %d / %d", pairOf(a), steps, elementary, want.steps, want.elementary)
	case verr != nil:
		return fmt.Sprintf("%s: validation: %v", pairOf(a), verr)
	case validated == 0:
		return fmt.Sprintf("%s: no validation input checked", pairOf(a))
	}
	return ""
}

// The traced slice is one pass over the catalog in seeded order.

func (c *catalogBench) entry(map[string]float64) error {
	for k := range c.analyses {
		op := c.input(k)
		if msg := c.runOne(c.analyses[op.analysis], op.valSeed); msg != "" {
			return fmt.Errorf("entry pass: %s", msg)
		}
	}
	return nil
}

func (c *catalogBench) layers(t *tracer, cnt counts) error {
	for k := range c.analyses {
		op := c.input(k)
		a := c.analyses[op.analysis]
		s, err := analysisSession(t, cnt, a)
		if err != nil {
			return err
		}
		b, err := scriptAndMatch(t, cnt, a, s)
		if err != nil {
			return err
		}
		var n int
		err = t.do("interp.validate", func() (err error) {
			n, err = core.ValidateBinding(b, a.Gen, catalogValidate, op.valSeed)
			return err
		})
		cnt.add("interp.validate.inputs", float64(n))
		cnt.add("ops", 1)
		if msg := c.check(a, b.Steps, b.Elementary, n, err); msg != "" {
			cnt.add("failed", 1)
		}
	}
	return nil
}

// analysisSession is the front half of Analysis.RunCtx as separate layer
// calls: parse both corpus sources, intern them, open the session.
func analysisSession(t *tracer, cnt counts, a *proofs.Analysis) (*core.Session, error) {
	opSrc, insSrc := operatorSource(a.Operator), instructionSource(a.Instruction)
	if opSrc == "" || insSrc == "" {
		return nil, fmt.Errorf("%s: not in the corpora", pairOf(a))
	}
	op, ins, err := parsePair(t, opSrc, insSrc)
	if err != nil {
		return nil, err
	}
	var s *core.Session
	err = t.do("core.session", func() (err error) {
		s, err = core.NewSession(op, ins)
		return err
	})
	if err != nil {
		return nil, err
	}
	s.Machine, s.Instruction, s.Language, s.Operation, s.Extended = a.Machine, a.Instruction, a.Language, a.Operation, a.Extended
	return s, nil
}

// parsePair parses and interns an operator and an instruction description.
func parsePair(t *tracer, opSrc, insSrc string) (op, ins *isps.Description, err error) {
	err = t.do("isps.parse", func() (err error) {
		if op, err = isps.Parse(opSrc); err != nil {
			return err
		}
		ins, err = isps.Parse(insSrc)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	err = t.do("isps.intern", func() error {
		op, ins = isps.InternDesc(op), isps.InternDesc(ins)
		return nil
	})
	return op, ins, err
}

// scriptAndMatch is the back half of Analysis.RunCtx: the proof script's
// transformation steps, then the common-form match.
func scriptAndMatch(t *tracer, cnt counts, a *proofs.Analysis, s *core.Session) (*core.Binding, error) {
	reg := obs.Default()
	applied0, precond0 := reg.Total("transform.applied"), reg.Total("transform.precond")
	if err := t.do("transform.apply", func() error { return a.Script(s) }); err != nil {
		return nil, fmt.Errorf("%s: script: %w", pairOf(a), err)
	}
	cnt.add("transform.apply.calls", float64(s.StepCount()))
	cnt.add("transform.applied", float64(reg.Total("transform.applied")-applied0))
	cnt.add("transform.precond", float64(reg.Total("transform.precond")-precond0))
	var b *core.Binding
	err := t.do("equiv.match", func() (err error) {
		b, err = s.Finish()
		return err
	})
	cnt.add("equiv.match.calls", 1)
	if err != nil {
		return nil, fmt.Errorf("%s: finish: %w", pairOf(a), err)
	}
	return b, nil
}

func operatorSource(name string) string {
	for _, e := range langops.All() {
		if e.Name == name {
			return e.Source
		}
	}
	return ""
}

func instructionSource(name string) string {
	for _, e := range machines.All() {
		if e.Instruction == name {
			return e.Source
		}
	}
	return ""
}

func (c *catalogBench) close() error { return nil }
