package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"extra/internal/batch"
	"extra/internal/langops"
	"extra/internal/machines"
	"extra/internal/obs"
	"extra/internal/proofs"
)

func okRow(pair string) batch.Result {
	return batch.Result{
		Machine: "m", Instruction: pair, Language: "l", Operation: "o",
		Operator: "op", Outcome: "ok", Steps: 7, Elementary: 3, Validated: 5,
	}
}

func testKey(i int) Key {
	k := Key{Validate: 300}
	k.Digest.Hi = uint64(i) * 0x9e3779b97f4a7c15
	k.Digest.Lo = uint64(i)
	return k
}

// lookup reads k through Do with a fn that declines, so a miss runs
// nothing and stores nothing; ok reports a cache hit.
func lookup(c *Cache, k Key) (batch.Result, bool) {
	row, out, err := c.Do(context.Background(), k, func() (batch.Result, bool) { return batch.Result{}, false })
	return row, err == nil && out == OutcomeHitMem
}

// TestKeyForContentAddressing: a catalog analysis resolves to a stable key;
// distinct catalog pairs resolve to distinct keys; an analysis whose
// descriptions are not in the corpora is simply uncacheable. The corpora
// are parsed and interned once per process, so after the first call a key
// costs no parse and no allocation (every warm serve request computes
// one), and the first calls may race (run under -race in CI).
func TestKeyForContentAddressing(t *testing.T) {
	catalog := append(proofs.Table2(), proofs.Extensions()...)
	concurrent := make([][]Key, 4)
	var wg sync.WaitGroup
	for g := range concurrent {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, a := range catalog {
				k, _ := KeyFor(a, 300)
				concurrent[g] = append(concurrent[g], k)
			}
		}(g)
	}
	wg.Wait()
	seen := map[Key]string{}
	for i, a := range catalog {
		k1, ok1 := KeyFor(a, 300)
		k2, ok2 := KeyFor(a, 300)
		if !ok1 || !ok2 {
			t.Fatalf("%s/%s: catalog analysis not cacheable", a.Instruction, a.Operator)
		}
		if k1 != k2 {
			t.Fatalf("%s/%s: key not stable across calls", a.Instruction, a.Operator)
		}
		for g := range concurrent {
			if concurrent[g][i] != k1 {
				t.Fatalf("%s/%s: goroutine %d computed a different key", a.Instruction, a.Operator, g)
			}
		}
		pair := a.Instruction + "/" + a.Operator
		if prev, dup := seen[k1]; dup {
			t.Fatalf("key collision: %s and %s share %v", prev, pair, k1)
		}
		seen[k1] = pair
		if allocs := testing.AllocsPerRun(20, func() { KeyFor(a, 300) }); allocs != 0 {
			t.Errorf("%s: KeyFor allocates %.0f objects per call; a key must cost no parse", pair, allocs)
		}
		if langops.Get(a.Operator) != langops.Get(a.Operator) || machines.Get(a.Instruction) != machines.Get(a.Instruction) {
			t.Errorf("%s: the corpora returned a different tree on a repeat lookup", pair)
		}
	}
	// The options are part of the key: a different validation count or
	// extended flag is a different row.
	a := catalog[0]
	k300, _ := KeyFor(a, 300)
	k0, _ := KeyFor(a, 0)
	if k300 == k0 {
		t.Error("validate count not part of the key")
	}
	// Unknown descriptions decline rather than hash nil.
	synthetic := *a
	synthetic.Operator = "no-such-operator"
	if _, ok := KeyFor(&synthetic, 300); ok {
		t.Error("analysis with an unknown operator reported cacheable")
	}
}

// TestGetPutRoundTrip: a Put entry comes back from a lookup with
// DurationMS zeroed and everything else intact; non-ok rows are never
// stored.
func TestGetPutRoundTrip(t *testing.T) {
	m := obs.NewRegistry()
	c, err := New(Config{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	row := okRow("scasb")
	row.DurationMS = 1234
	c.Put(k, row)
	got, ok := lookup(c, k)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if got.DurationMS != 0 {
		t.Errorf("stored DurationMS = %d, want 0 (a warm hit reports its own cost)", got.DurationMS)
	}
	want := row
	want.DurationMS = 0
	if got != want {
		t.Errorf("round trip mutated the row: got %+v want %+v", got, want)
	}
	bad := okRow("movc3")
	bad.Outcome = "panic"
	c.Put(testKey(2), bad)
	if _, ok := lookup(c, testKey(2)); ok {
		t.Error("a failure row was cached; a failure must re-run, not be served warm")
	}
	if m.Counter("cache.hit", "mem") == 0 {
		t.Error("memory hit not counted")
	}
	if m.Counter("cache.miss", "") == 0 {
		t.Error("miss not counted")
	}
}

// TestNilCache: the nil receiver is a valid no-op cache, and Do still runs fn.
func TestNilCache(t *testing.T) {
	var c *Cache
	if _, ok := lookup(c, testKey(1)); ok {
		t.Error("nil cache hit")
	}
	c.Put(testKey(1), okRow("x"))
	if c.Len() != 0 {
		t.Error("nil cache has entries")
	}
	ran := false
	row, out, err := c.Do(context.Background(), testKey(1), func() (batch.Result, bool) {
		ran = true
		return okRow("x"), true
	})
	if !ran || out != OutcomeMiss || err != nil || row.Outcome != "ok" {
		t.Errorf("nil-cache Do: ran=%v outcome=%v err=%v", ran, out, err)
	}
}

// TestMemoryLRUEviction: past the configured capacity, least-recently-used
// entries are evicted and counted, and the gauges track the live set.
func TestMemoryLRUEviction(t *testing.T) {
	m := obs.NewRegistry()
	c, err := New(Config{Entries: 16, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		c.Put(testKey(i), okRow(fmt.Sprint(i)))
	}
	if n := c.Len(); n > 16 {
		t.Errorf("cache holds %d entries past its 16-entry bound", n)
	}
	if m.Counter("cache.evicted", "") == 0 {
		t.Error("evictions not counted")
	}
	snapshot := m.Gauge("cache.entries", "mem")
	if snapshot != int64(c.Len()) {
		t.Errorf("cache.entries gauge %d disagrees with Len %d", snapshot, c.Len())
	}
	// Most-recently-inserted keys survive.
	if _, ok := lookup(c, testKey(999)); !ok {
		t.Error("most recent entry was evicted before older ones")
	}
}

// TestDogpileSingleflight is the -race coalescing test: N concurrent Do
// calls for one key cost exactly one fn run; every other caller waits and
// gets the leader's row as stored, while the leader keeps its own run's
// duration and trace ID.
func TestDogpileSingleflight(t *testing.T) {
	const n = 16
	m := obs.NewRegistry()
	c, err := New(Config{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(42)
	var runs atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{}, n)
	fn := func() (batch.Result, bool) {
		started <- struct{}{}
		runs.Add(1)
		<-gate
		row := okRow("locc")
		row.DurationMS, row.Trace = 42, "leader"
		return row, true
	}
	var wg sync.WaitGroup
	var shares atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			row, out, err := c.Do(context.Background(), k, fn)
			if err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			if row.Outcome != "ok" {
				t.Errorf("Do returned outcome %q", row.Outcome)
			}
			if out == OutcomeCoalesced {
				shares.Add(1)
			}
			if ran := out == OutcomeMiss; ran != (row.DurationMS == 42 && row.Trace == "leader") {
				t.Errorf("%v row carries duration %d, trace %q", out, row.DurationMS, row.Trace)
			}
		}()
	}
	// The leader is inside fn; once every follower has registered as
	// coalesced, release it.
	<-started
	deadline := time.Now().Add(5 * time.Second)
	for m.Counter("cache.coalesced", "") < n-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Errorf("dogpile of %d identical requests ran fn %d times, want 1", n, got)
	}
	if got := shares.Load(); got != n-1 {
		t.Errorf("%d callers reported a shared result, want %d", got, n-1)
	}
	if got := m.Counter("cache.coalesced", ""); got != n-1 {
		t.Errorf("cache.coalesced = %d, want %d", got, n-1)
	}
	// The flight's product is now cached: one more Do is a plain hit.
	if _, out, err := c.Do(context.Background(), k, func() (batch.Result, bool) {
		t.Error("fn ran for a cached key")
		return batch.Result{}, false
	}); err != nil || out != OutcomeHitMem {
		t.Errorf("post-flight Do: outcome=%v err=%v", out, err)
	}
}

// TestDoDecline: a leader whose fn declines (the shed path) propagates
// ErrNoResult — shared=false for the leader, shared=true for a waiter.
func TestDoDecline(t *testing.T) {
	c, err := New(Config{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(7)
	_, out, derr := c.Do(context.Background(), k, func() (batch.Result, bool) { return batch.Result{}, false })
	if !errors.Is(derr, ErrNoResult) || out.Shared() {
		t.Errorf("declining leader: outcome=%v err=%v, want ErrNoResult/miss", out, derr)
	}
	// A declined flight must not poison the key: the next Do runs fn.
	row, out, derr := c.Do(context.Background(), k, func() (batch.Result, bool) { return okRow("x"), true })
	if derr != nil || out != OutcomeMiss || row.Outcome != "ok" {
		t.Errorf("Do after a declined flight: outcome=%v err=%v", out, derr)
	}
}

// TestDoWaiterCanceled: a coalesced waiter whose context ends gets the
// context error instead of blocking on the leader.
func TestDoWaiterCanceled(t *testing.T) {
	c, err := New(Config{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(8)
	gate := make(chan struct{})
	started := make(chan struct{})
	go c.Do(context.Background(), k, func() (batch.Result, bool) {
		close(started)
		<-gate
		return okRow("x"), true
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, derr := c.Do(ctx, k, func() (batch.Result, bool) { return okRow("x"), true })
	if !errors.Is(derr, context.Canceled) {
		t.Errorf("canceled waiter got %v, want context.Canceled", derr)
	}
	close(gate)
}
