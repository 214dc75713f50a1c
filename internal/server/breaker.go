package server

import (
	"sync"
	"time"

	"extra/internal/batch"
	"extra/internal/fault"
)

// breaker is the per-(machine, instruction) circuit breaker. Consecutive
// panic/budget faults trip it open; while open, requests for the pair are
// served the cached failure instead of burning another worker on an
// analysis that keeps blowing its budget. After a cooldown one probe
// request is let through (half-open): a genuine success closes the breaker;
// another fault re-opens it and restarts the cooldown; any other outcome
// (the caller canceled, the request timed out) says nothing about the pair,
// so it merely re-arms the next probe without touching the breaker's state.
type breaker struct {
	mu       sync.Mutex
	fails    int
	open     bool
	probing  bool
	openedAt time.Time
	cached   batch.Result
	lastErr  string
}

// faultOutcome reports whether an outcome label counts toward tripping the
// breaker. Only engine faults do — a caller-imposed timeout or a canceled
// request says nothing about the pair itself.
func faultOutcome(outcome string) bool {
	return outcome == "panic" || outcome == "budget"
}

// admit decides the fast path. It returns (cachedFailure, true) when the
// breaker is open and not due for a probe; otherwise the caller must run
// the analysis and feed the outcome back through record.
func (b *breaker) admit(now time.Time, cooldown time.Duration) (batch.Result, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return batch.Result{}, false
	}
	if !b.probing && now.Sub(b.openedAt) >= cooldown {
		// Half-open: this one request probes the pair; concurrent requests
		// keep getting the cached failure until the probe reports back.
		b.probing = true
		return batch.Result{}, false
	}
	res := b.cached
	ce := &fault.CircuitError{Pair: res.Machine + "/" + res.Instruction, Fails: b.fails, Last: b.lastErr}
	res.Outcome = fault.Classify(ce)
	res.Error = ce.Error()
	res.DurationMS = 0
	return res, true
}

// record feeds an executed result back. It returns true when this result
// tripped the breaker open (for the trip metric).
func (b *breaker) record(res batch.Result, threshold int, now time.Time) (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if res.Outcome == "ok" {
		// Only a demonstrated success closes: the pair provably works again.
		b.fails = 0
		b.open = false
		return false
	}
	if !faultOutcome(res.Outcome) {
		// A canceled request or a caller-imposed timeout proves nothing
		// either way (see faultOutcome): leave the fail streak and the open
		// state alone. probing is already cleared, so an open breaker's next
		// request past the cooldown fires a fresh probe.
		return false
	}
	b.fails++
	b.lastErr = res.Error
	b.cached = res
	if b.open {
		// A failed probe: stay open, restart the cooldown.
		b.openedAt = now
		return false
	}
	if b.fails >= threshold {
		b.open = true
		b.openedAt = now
		return true
	}
	return false
}

// remaining reports how much of the open cooldown is left before the next
// half-open probe: what an honest Retry-After should say. Zero when closed
// or already due for a probe.
func (b *breaker) remaining(now time.Time, cooldown time.Duration) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return 0
	}
	rem := cooldown - now.Sub(b.openedAt)
	if rem < 0 {
		return 0
	}
	return rem
}
