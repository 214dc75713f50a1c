package synth

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"extra/internal/batch"
	"extra/internal/codegen"
	"extra/internal/fault"
	"extra/internal/hll"
	"extra/internal/obs"
	"extra/internal/sim"
)

// Config parameterizes one synthesis run.
type Config struct {
	// Bindings selects catalog keys; empty means the whole catalog.
	Bindings []string
	// Gadgets is the enabled gadget mask (0 means all).
	Gadgets Gadget
	// Seed drives every random choice: gadget constants, trial data.
	Seed uint64
	// Depth is the maximum number of stacked gadget applications.
	Depth int
	// MaxVariants caps the variants enumerated per binding.
	MaxVariants int
	// Trials is the number of differential executions per variant
	// (trial 0 runs the canonical data; the rest randomize it).
	Trials int
	// Top is how many ranked variants each binding reports.
	Top int
	// MaxSteps bounds each simulated execution.
	MaxSteps int
	// Sweep enables the cross-layer divergence sweeps alongside the
	// per-variant verification.
	Sweep bool
}

// Defaults fills zero fields with the standard run parameters.
func (c *Config) Defaults() {
	if c.Gadgets == 0 {
		for _, g := range AllGadgets {
			c.Gadgets |= g
		}
	}
	if c.Depth == 0 {
		c.Depth = 2
	}
	if c.MaxVariants == 0 {
		c.MaxVariants = 48
	}
	if c.Trials == 0 {
		c.Trials = 6
	}
	if c.Top == 0 {
		c.Top = 8
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 200_000
	}
}

// Report is one synthesis run's full result.
type Report struct {
	Trace      string          `json:"trace,omitempty"`
	DurationMS int64           `json:"duration_ms"`
	Config     string          `json:"config_digest"`
	Seed       uint64          `json:"seed"`
	Depth      int             `json:"depth"`
	Trials     int             `json:"trials"`
	Gadgets    []string        `json:"gadgets"`
	Bindings   []BindingReport `json:"bindings"`
	// Swept records whether the cross-layer sweeps ran; an empty
	// Divergences list only means "clean" when they did.
	Swept       bool         `json:"swept"`
	Divergences []Divergence `json:"divergences"`
	// Verified and Unsound total the per-binding counts.
	Verified int `json:"verified"`
	Unsound  int `json:"unsound"`
}

// BindingReport is one binding's synthesis outcome.
type BindingReport struct {
	Key        string          `json:"key"`
	Target     string          `json:"target"`
	Class      string          `json:"class"`
	Error      string          `json:"error,omitempty"`
	BaseCycles uint64          `json:"base_cycles"`
	BaseBytes  int             `json:"base_bytes"`
	Enumerated int             `json:"enumerated"`
	Verified   int             `json:"verified"`
	Unsound    []string        `json:"unsound,omitempty"`
	Variants   []VariantReport `json:"variants"`
}

// VariantReport is one verified variant, ranked by simulated cost.
type VariantReport struct {
	// Trail lists the gadget applications, outermost first.
	Trail []string `json:"trail"`
	// Cycles is the canonical-data simulated cost; Bytes the encoded size
	// under the documented per-target model.
	Cycles uint64 `json:"cycles"`
	Bytes  int    `json:"bytes"`
	// OverheadCycles is Cycles minus the original's cycles: inverse mode
	// expands, so this is the price of the diversification.
	OverheadCycles int64 `json:"overhead_cycles"`
	// Listing is the expanded code, one instruction per line.
	Listing []string `json:"listing"`
}

// variant is an enumeration work item.
type variant struct {
	code  []sim.Instr
	trail []string
}

// Run executes inverse-mode synthesis: for each selected binding, compile
// its workload, enumerate gadget-expanded variants of the generated code,
// verify each by differential execution against the original, and rank the
// survivors. With cfg.Sweep it also runs the cross-layer divergence sweeps.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg.Defaults()
	start := time.Now()
	rep := &Report{
		Trace:   obs.TracerFrom(ctx).TraceID(),
		Seed:    cfg.Seed,
		Depth:   cfg.Depth,
		Trials:  cfg.Trials,
		Gadgets: cfg.Gadgets.Names(),
		Config: batch.ConfigDigest(
			fmt.Sprint(cfg.Bindings), fmt.Sprint(uint32(cfg.Gadgets)),
			fmt.Sprint(cfg.Seed), fmt.Sprint(cfg.Depth),
			fmt.Sprint(cfg.MaxVariants), fmt.Sprint(cfg.Trials),
			fmt.Sprint(cfg.Top), fmt.Sprint(cfg.MaxSteps)),
		Divergences: []Divergence{},
	}
	selected, err := selectBindings(cfg.Bindings)
	if err != nil {
		return nil, err
	}
	if cfg.Sweep {
		rep.Swept = true
		for _, sweep := range []func() ([]Divergence, error){
			BindingSweep, BoundarySweep, InstructionSweep,
		} {
			divs, err := sweep()
			if err != nil {
				return nil, err
			}
			rep.Divergences = append(rep.Divergences, divs...)
		}
	}
	for _, b := range selected {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		br := synthBinding(cfg, b)
		rep.Bindings = append(rep.Bindings, *br)
		rep.Verified += br.Verified
		rep.Unsound += len(br.Unsound)
		obs.Default().Add("synth.variants.verified", b.Target, uint64(br.Verified))
		obs.Default().Set("synth.variants", b.Key, int64(br.Verified))
	}
	for _, d := range rep.Divergences {
		obs.Default().Inc("synth.divergence", d.Axis)
		_ = d
	}
	rep.DurationMS = time.Since(start).Milliseconds()
	return rep, nil
}

func selectBindings(keys []string) ([]*Binding, error) {
	if len(keys) == 0 {
		out := make([]*Binding, len(Catalog))
		for i := range Catalog {
			out[i] = &Catalog[i]
		}
		return out, nil
	}
	var out []*Binding
	for _, k := range keys {
		b := Find(strings.TrimSpace(k))
		if b == nil {
			return nil, fmt.Errorf("synth: no catalog binding %q", k)
		}
		out = append(out, b)
	}
	return out, nil
}

// workLen is the canonical operand length the ranking workload runs over —
// the discovery sweep's 63-byte evaluation block.
const workLen = 63

// synthBinding does one binding end to end. Failures land in the report
// rather than killing the run: a synthesis report must cover the whole
// catalog even when one binding's workload dies.
func synthBinding(cfg Config, b *Binding) *BindingReport {
	br := &BindingReport{Key: b.Key, Target: b.Target, Class: b.Class,
		Variants: []VariantReport{}}
	err := func() (err error) {
		defer fault.RecoverInto(&err, "synth "+b.Key)
		obs.Default().Inc("synth.binding", b.Target)
		src, err := BaseWorkload(b.Class)
		if err != nil {
			return err
		}
		prog, err := hll.Parse(src)
		if err != nil {
			return err
		}
		t, err := codegen.For(b.Target)
		if err != nil {
			return err
		}
		p, err := t.Compile(prog, codegen.AllOn())
		if err != nil {
			return err
		}
		base, err := runTrials(t, p.Code, p.Data, cfg)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		br.BaseCycles = base[0].Cycles
		br.BaseBytes = CodeBytes(b.Target, p.Code)

		variants, enumerated, err := enumerate(cfg, b.Target, p.Code)
		if err != nil {
			return err
		}
		br.Enumerated = enumerated
		for _, v := range variants {
			obs.Default().Inc("synth.variant", b.Target)
			got, err := runTrials(t, v.code, p.Data, cfg)
			if err != nil {
				br.Unsound = append(br.Unsound,
					strings.Join(v.trail, "; ")+": "+err.Error())
				obs.Default().Inc("synth.unsound", b.Target)
				continue
			}
			if d := diffTrials(base, got); d != "" {
				br.Unsound = append(br.Unsound,
					strings.Join(v.trail, "; ")+": "+d)
				obs.Default().Inc("synth.unsound", b.Target)
				continue
			}
			br.Verified++
			br.Variants = append(br.Variants, VariantReport{
				Trail:          v.trail,
				Cycles:         got[0].Cycles,
				Bytes:          CodeBytes(b.Target, v.code),
				OverheadCycles: int64(got[0].Cycles) - int64(br.BaseCycles),
				Listing:        listing(v.code),
			})
		}
		rankVariants(br.Variants)
		if len(br.Variants) > cfg.Top {
			br.Variants = br.Variants[:cfg.Top]
		}
		return nil
	}()
	if err != nil {
		br.Error = err.Error()
	}
	return br
}

// enumerate breadth-first expands the original code through the enabled
// gadgets up to cfg.Depth stacked applications, deduplicating by listing
// digest and capping at cfg.MaxVariants. The walk is fully deterministic:
// sites are enumerated in instruction order with seed-derived parameters.
func enumerate(cfg Config, target string, code []sim.Instr) ([]variant, int, error) {
	seen := map[uint64]bool{digest(code): true}
	frontier := []variant{{code: code}}
	var out []variant
	enumerated := 0
	for depth := 1; depth <= cfg.Depth && len(out) < cfg.MaxVariants; depth++ {
		var next []variant
		for _, v := range frontier {
			sites, err := Sites(target, v.code, cfg.Gadgets, cfg.Seed+uint64(depth))
			if err != nil {
				return nil, 0, err
			}
			for _, s := range sites {
				if len(out) >= cfg.MaxVariants {
					break
				}
				nc, err := Apply(target, v.code, s)
				if err != nil {
					return nil, 0, err
				}
				d := digest(nc)
				if seen[d] {
					continue
				}
				seen[d] = true
				enumerated++
				nv := variant{code: nc, trail: append(append([]string{}, v.trail...), s.Desc())}
				out = append(out, nv)
				next = append(next, nv)
			}
		}
		frontier = next
	}
	return out, enumerated, nil
}

// runTrials executes code under cfg.Trials data sets: trial 0 is the
// compiled canonical data (the ranking run), later trials rewrite the data
// segments' bytes with seed-derived random contents — same addresses, same
// lengths, different values — so a variant cannot pass by accident of one
// input. Each trial's finished machine is its outcome.
func runTrials(t codegen.Target, code []sim.Instr, data []codegen.DataSeg, cfg Config) ([]*sim.Machine, error) {
	out := make([]*sim.Machine, 0, cfg.Trials)
	for trial := 0; trial < cfg.Trials; trial++ {
		m, err := sim.NewMachine(t.ISA(), code)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(int64(cfg.Seed ^ splitmix64(uint64(trial)))))
		for _, d := range data {
			bs := d.Bytes
			if trial > 0 {
				bs = make([]byte, len(d.Bytes))
				rng.Read(bs)
			}
			m.StoreBytes(d.At, bs)
		}
		if err := m.Run(cfg.MaxSteps); err != nil {
			return nil, fmt.Errorf("trial %d: %w", trial, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// diffTrials compares a variant's trial outcomes against the original's:
// the whole memory and the out stream. Registers are deliberately
// excluded — register swap renames them by design.
func diffTrials(base, got []*sim.Machine) string {
	for i := range base {
		if !base[i].SameMemory(got[i]) {
			return fmt.Sprintf("trial %d: final memory differs", i)
		}
		if len(base[i].Out) != len(got[i].Out) {
			return fmt.Sprintf("trial %d: out stream length %d vs %d",
				i, len(got[i].Out), len(base[i].Out))
		}
		for j := range base[i].Out {
			if base[i].Out[j] != got[i].Out[j] {
				return fmt.Sprintf("trial %d: out[%d] = %d vs %d",
					i, j, got[i].Out[j], base[i].Out[j])
			}
		}
	}
	return ""
}

// rankVariants orders by simulated cycles, then encoded bytes, then
// listing — a total, deterministic order.
func rankVariants(vs []VariantReport) {
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].Cycles != vs[j].Cycles {
			return vs[i].Cycles < vs[j].Cycles
		}
		if vs[i].Bytes != vs[j].Bytes {
			return vs[i].Bytes < vs[j].Bytes
		}
		a := strings.Join(vs[i].Listing, "\n")
		b := strings.Join(vs[j].Listing, "\n")
		return a < b
	})
}

// digest hashes a listing for deduplication.
func digest(code []sim.Instr) uint64 {
	var b strings.Builder
	for _, in := range code {
		b.WriteString(in.String())
		b.WriteByte('\n')
	}
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return h.Sum64()
}

// listing renders code one instruction per line.
func listing(code []sim.Instr) []string {
	out := make([]string, len(code))
	for i, in := range code {
		out[i] = in.String()
	}
	return out
}

// WriteJSON writes the report to path atomically as indented JSON.
func (r *Report) WriteJSON(path string) error {
	return batch.WriteFileAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	})
}

// WriteJSONL writes one JSON object per binding, prefixed with a run
// header line — the batch layer's streaming convention.
func (r *Report) WriteJSONL(path string) error {
	return batch.WriteFileAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		header := struct {
			Trace       string       `json:"trace,omitempty"`
			DurationMS  int64        `json:"duration_ms"`
			Config      string       `json:"config_digest"`
			Seed        uint64       `json:"seed"`
			Verified    int          `json:"verified"`
			Unsound     int          `json:"unsound"`
			Divergences []Divergence `json:"divergences"`
		}{r.Trace, r.DurationMS, r.Config, r.Seed, r.Verified, r.Unsound, r.Divergences}
		if err := enc.Encode(header); err != nil {
			return err
		}
		for i := range r.Bindings {
			if err := enc.Encode(&r.Bindings[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// Render writes the human-readable summary.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "synthesis: seed %d depth %d trials %d gadgets %s\n",
		r.Seed, r.Depth, r.Trials, strings.Join(r.Gadgets, ","))
	for i := range r.Bindings {
		b := &r.Bindings[i]
		if b.Error != "" {
			fmt.Fprintf(w, "\n%s: ERROR %s\n", b.Key, b.Error)
			continue
		}
		fmt.Fprintf(w, "\n%s (%s %s): base %d cycles / %d bytes — %d variants verified",
			b.Key, b.Target, b.Class, b.BaseCycles, b.BaseBytes, b.Verified)
		if n := len(b.Unsound); n > 0 {
			fmt.Fprintf(w, ", %d UNSOUND", n)
		}
		fmt.Fprintln(w)
		for i, v := range b.Variants {
			fmt.Fprintf(w, "  #%d  %6d cycles (+%d)  %4d bytes  %s\n",
				i+1, v.Cycles, v.OverheadCycles, v.Bytes, strings.Join(v.Trail, "; "))
		}
	}
	if len(r.Divergences) > 0 {
		fmt.Fprintf(w, "\nDIVERGENCES (%d):\n", len(r.Divergences))
		for _, d := range r.Divergences {
			fmt.Fprintf(w, "  %s\n", d)
		}
	} else if r.Swept {
		fmt.Fprintf(w, "\nno divergences\n")
	} else {
		fmt.Fprintf(w, "\nsweep skipped\n")
	}
}

// Failed reports whether the run found any cross-layer divergence or
// unsound variant — the conditions the CI gate treats as fatal.
func (r *Report) Failed() bool {
	return len(r.Divergences) > 0 || r.Unsound > 0
}
