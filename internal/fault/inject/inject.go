// Package inject is a deterministic, seed-driven fault-injection harness
// for chaos-testing the EXTRA pipeline. It provides two mechanisms:
//
//   - Injection points: production code at a fault seam (today: one
//     discovery candidate's run, discover.InjectPoint) asks Fire("point");
//     when an Injector is active and armed for that point, the call
//     reports the fault to inject. Crossing counts are deterministic, so a
//     test replays identically every run. With no active Injector the fast
//     path is one atomic load — the seams cost nothing in production.
//
//   - Deterministic corrupters: CorruptJSON, MangleSource and FlakyWriter
//     derive every mutation and failure schedule from an explicit seed, so
//     chaos tests over truncated binding documents, malformed ISPS source
//     and failing trace sinks are reproducible by seed alone.
//
// The package depends only on the standard library so any layer can host a
// seam without import cycles.
package inject

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Fault arms one injection point.
type Fault struct {
	// Point names the seam, e.g. "discover.candidate:movsb/sassign".
	Point string
	// Skip is the number of crossings to let pass before the first fire.
	Skip uint64
	// Every fires on every Every-th crossing after Skip; 0 fires exactly
	// once.
	Every uint64
}

// Injector is a set of armed faults with deterministic crossing counters.
type Injector struct {
	// Seed labels the run; the corrupters take it explicitly, the Injector
	// carries it so a failing chaos test can report how to reproduce.
	Seed int64

	mu     sync.Mutex
	faults map[string]Fault
	counts map[string]uint64
	fired  map[string]uint64
}

// New returns an Injector with no faults armed.
func New(seed int64) *Injector {
	return &Injector{
		Seed:   seed,
		faults: map[string]Fault{},
		counts: map[string]uint64{},
		fired:  map[string]uint64{},
	}
}

// Arm installs (or replaces) the fault for f.Point.
func (in *Injector) Arm(f Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.faults[f.Point] = f
}

// Fire records one crossing of the point and reports whether the armed
// fault (if any) fires on this crossing. A nil Injector never fires.
func (in *Injector) Fire(point string) (Fault, bool) {
	if in == nil {
		return Fault{}, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	n := in.counts[point]
	in.counts[point] = n + 1
	f, ok := in.faults[point]
	if !ok || n < f.Skip {
		return Fault{}, false
	}
	k := n - f.Skip
	if f.Every == 0 {
		if k != 0 {
			return Fault{}, false
		}
	} else if k%f.Every != 0 {
		return Fault{}, false
	}
	in.fired[point]++
	return f, true
}

// Crossings reports how many times the point was crossed.
func (in *Injector) Crossings(point string) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts[point]
}

// Fired reports how many times the point's fault fired.
func (in *Injector) Fired(point string) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[point]
}

// active is the process-wide Injector consulted by the seams; nil (the
// default) disables injection.
var active atomic.Pointer[Injector]

// Activate installs in as the process-wide Injector and returns a restore
// function reinstating the previous one. Tests must call restore (and must
// not run in parallel with other activations).
func Activate(in *Injector) (restore func()) {
	prev := active.Swap(in)
	return func() { active.Store(prev) }
}

// Active returns the process-wide Injector (nil when injection is off).
func Active() *Injector { return active.Load() }

// Fire crosses the point on the process-wide Injector. With no active
// Injector it is one atomic load.
func Fire(point string) (Fault, bool) {
	in := active.Load()
	if in == nil {
		return Fault{}, false
	}
	return in.Fire(point)
}

// mix is SplitMix64: a tiny deterministic PRNG step, enough to spread a
// seed over corruption choices without importing math/rand.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// CorruptJSON returns a deterministically corrupted copy of a JSON
// document: depending on the seed it truncates, flips a byte, deletes a
// structural character, or duplicates a span. The result may or may not
// still parse — the property under test is that the loader either rejects
// it with a typed error or accepts a document that passes validation,
// never panics.
func CorruptJSON(seed int64, data []byte) []byte {
	if len(data) == 0 {
		return []byte("{")
	}
	h := mix(uint64(seed))
	pos := int(mix(h) % uint64(len(data)))
	out := append([]byte(nil), data...)
	switch h % 4 {
	case 0: // truncate
		return out[:pos]
	case 1: // flip a byte
		out[pos] ^= byte(1 + mix(h>>8)%255)
		return out
	case 2: // delete the next structural character
		for i := 0; i < len(out); i++ {
			j := (pos + i) % len(out)
			switch out[j] {
			case '{', '}', '[', ']', '"', ':', ',':
				return append(out[:j], out[j+1:]...)
			}
		}
		return out[:pos]
	default: // duplicate a short span
		end := pos + 1 + int(mix(h>>16)%16)
		if end > len(out) {
			end = len(out)
		}
		dup := append([]byte(nil), out[pos:end]...)
		return append(out[:end], append(dup, out[end:]...)...)
	}
}

// MangleSource returns a deterministically mangled copy of ISPS-like
// source: it deletes a span, duplicates a span, or splices in a stray
// token. The parser must reject or accept the result without panicking.
func MangleSource(seed int64, src string) string {
	if src == "" {
		return "begin"
	}
	h := mix(uint64(seed) ^ 0xa5a5a5a5)
	pos := int(mix(h) % uint64(len(src)))
	span := 1 + int(mix(h>>8)%24)
	end := pos + span
	if end > len(src) {
		end = len(src)
	}
	switch h % 3 {
	case 0: // delete the span
		return src[:pos] + src[end:]
	case 1: // duplicate the span
		return src[:end] + src[pos:end] + src[end:]
	default: // splice a stray token
		toks := []string{"end", "begin", "<-", "**", ";", "repeat", "(", "<>", "0xg"}
		return src[:pos] + " " + toks[mix(h>>16)%uint64(len(toks))] + " " + src[pos:]
	}
}

// FlakyWriter wraps an io.Writer, failing deterministically scheduled
// Write calls: the (skip+1)-th write and every every-th after it return an
// injected error, where skip is derived from the seed. It is safe for
// concurrent use, matching the trace sinks it stands in for.
type FlakyWriter struct {
	mu       sync.Mutex
	w        io.Writer
	seed     int64
	n        uint64
	skip     uint64
	every    uint64
	failures uint64
}

// NewFlakyWriter returns a writer over w failing every every-th Write
// (every < 1 is treated as 1: every write fails), phase-shifted by the
// seed.
func NewFlakyWriter(w io.Writer, seed int64, every uint64) *FlakyWriter {
	if every < 1 {
		every = 1
	}
	return &FlakyWriter{w: w, seed: seed, skip: mix(uint64(seed)) % every, every: every}
}

// Write forwards to the wrapped writer or fails per the injection
// schedule.
func (f *FlakyWriter) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.n
	f.n++
	if n >= f.skip && (n-f.skip)%f.every == 0 {
		f.failures++
		return 0, fmt.Errorf("inject: write failure %d (seed %d)", f.failures, f.seed)
	}
	return f.w.Write(p)
}

// Failures reports how many writes were failed so far.
func (f *FlakyWriter) Failures() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failures
}
