package server

import (
	"testing"
	"time"

	"extra/internal/batch"
)

func faultRes(outcome string) batch.Result {
	return batch.Result{Machine: "M", Instruction: "I", Outcome: outcome, Error: outcome + " injected"}
}

// TestBreakerCanceledProbeStaysOpen is the half-open regression test: a
// probe whose request was canceled (or timed out at the caller) proves
// nothing about the pair, so the breaker must stay open with its fail streak
// intact, and the next request past the cooldown must fire a fresh probe.
func TestBreakerCanceledProbeStaysOpen(t *testing.T) {
	const (
		threshold = 2
		cooldown  = 50 * time.Millisecond
	)
	b := &breaker{}
	now := time.Now()
	if b.record(faultRes("panic"), threshold, now) {
		t.Fatal("breaker tripped below threshold")
	}
	if !b.record(faultRes("panic"), threshold, now) {
		t.Fatal("breaker did not trip at threshold")
	}

	// Before the cooldown: cached-failure fast path.
	if _, open := b.admit(now.Add(cooldown/2), cooldown); !open {
		t.Fatal("open breaker admitted a request before the cooldown")
	}
	// Past the cooldown: one probe goes through; concurrent requests still
	// get the fast path while it is out.
	if _, open := b.admit(now.Add(cooldown+time.Millisecond), cooldown); open {
		t.Fatal("probe not admitted past the cooldown")
	}
	if _, open := b.admit(now.Add(cooldown+2*time.Millisecond), cooldown); !open {
		t.Fatal("second request admitted while a probe is outstanding")
	}

	// The probe comes back canceled: the breaker must not close, must not
	// forget its streak, and must re-arm the next probe.
	b.record(faultRes("canceled"), threshold, now.Add(cooldown+3*time.Millisecond))
	if !b.open {
		t.Fatal("a canceled probe closed the breaker")
	}
	if b.fails != threshold {
		t.Fatalf("a canceled probe changed the fail streak: %d, want %d", b.fails, threshold)
	}
	// Next request (still past the original cooldown) fires a fresh probe.
	if _, open := b.admit(now.Add(cooldown+4*time.Millisecond), cooldown); open {
		t.Fatal("no fresh probe after the canceled one")
	}
	// A timed-out probe says nothing either.
	b.record(faultRes("timeout"), threshold, now.Add(cooldown+5*time.Millisecond))
	if !b.open || b.fails != threshold {
		t.Fatalf("a timed-out probe mutated the breaker: open=%v fails=%d", b.open, b.fails)
	}
	// A genuinely successful probe closes it.
	if _, open := b.admit(now.Add(cooldown+6*time.Millisecond), cooldown); open {
		t.Fatal("no probe after the timed-out one")
	}
	b.record(faultRes("ok"), threshold, now.Add(cooldown+7*time.Millisecond))
	if b.open || b.fails != 0 {
		t.Fatalf("a successful probe did not close the breaker: open=%v fails=%d", b.open, b.fails)
	}
}

// TestBreakerNonFaultKeepsStreak pins the closed-breaker half of the fix: a
// canceled or timed-out request between two genuine faults must not reset
// the accumulating fail streak (the old behavior, which let a flaky pair
// dodge the breaker forever by interleaving cancellations).
func TestBreakerNonFaultKeepsStreak(t *testing.T) {
	b := &breaker{}
	now := time.Now()
	b.record(faultRes("panic"), 2, now)
	if b.fails != 1 {
		t.Fatalf("fails = %d after one fault, want 1", b.fails)
	}
	b.record(faultRes("canceled"), 2, now)
	b.record(faultRes("timeout"), 2, now)
	b.record(faultRes("path"), 2, now)
	if b.fails != 1 {
		t.Fatalf("non-fault outcomes changed the streak: fails = %d, want 1", b.fails)
	}
	if !b.record(faultRes("budget"), 2, now) {
		t.Fatal("second fault did not trip the breaker despite the preserved streak")
	}
	// And only a genuine success clears a partial streak.
	b2 := &breaker{}
	b2.record(faultRes("panic"), 2, now)
	b2.record(faultRes("ok"), 2, now)
	if b2.fails != 0 {
		t.Fatalf("a success did not clear the streak: fails = %d", b2.fails)
	}
}

// TestBreakerFailedProbeRestartsCooldown: a probe that faults re-opens the
// cooldown window from the probe's time, not the original trip time.
func TestBreakerFailedProbeRestartsCooldown(t *testing.T) {
	const cooldown = 50 * time.Millisecond
	b := &breaker{}
	now := time.Now()
	b.record(faultRes("panic"), 2, now)
	b.record(faultRes("panic"), 2, now)
	probeAt := now.Add(cooldown + time.Millisecond)
	if _, open := b.admit(probeAt, cooldown); open {
		t.Fatal("probe not admitted")
	}
	b.record(faultRes("panic"), 2, probeAt)
	// Just after the failed probe: still inside the restarted window.
	if _, open := b.admit(probeAt.Add(cooldown/2), cooldown); !open {
		t.Fatal("failed probe did not restart the cooldown")
	}
	if _, open := b.admit(probeAt.Add(cooldown+time.Millisecond), cooldown); open {
		t.Fatal("no probe after the restarted cooldown")
	}
}
