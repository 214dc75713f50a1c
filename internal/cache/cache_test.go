package cache

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"extra/internal/batch"
	"extra/internal/obs"
	"extra/internal/proofs"
)

func okEntry(pair string) Entry {
	return Entry{Result: batch.Result{
		Machine: "m", Instruction: pair, Language: "l", Operation: "o",
		Operator: "op", Outcome: "ok", Steps: 7, Elementary: 3, Validated: 5,
	}}
}

func testKey(i int) Key {
	k := Key{Validate: 300}
	k.Digest.Hi = uint64(i) * 0x9e3779b97f4a7c15
	k.Digest.Lo = uint64(i)
	return k
}

// TestKeyForContentAddressing: a catalog analysis resolves to a stable key;
// distinct catalog pairs resolve to distinct keys; an analysis whose
// descriptions are not in the corpora is simply uncacheable.
func TestKeyForContentAddressing(t *testing.T) {
	catalog := append(proofs.Table2(), proofs.Extensions()...)
	seen := map[Key]string{}
	for _, a := range catalog {
		k1, ok1 := KeyFor(a, 300)
		k2, ok2 := KeyFor(a, 300)
		if !ok1 || !ok2 {
			t.Fatalf("%s/%s: catalog analysis not cacheable", a.Instruction, a.Operator)
		}
		if k1 != k2 {
			t.Fatalf("%s/%s: key not stable across calls", a.Instruction, a.Operator)
		}
		pair := a.Instruction + "/" + a.Operator
		if prev, dup := seen[k1]; dup {
			t.Fatalf("key collision: %s and %s share %v", prev, pair, k1)
		}
		seen[k1] = pair
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

// TestGetPutRoundTrip: a Put entry comes back from Get with DurationMS
// zeroed and everything else intact; non-ok rows are never stored.
func TestGetPutRoundTrip(t *testing.T) {
	m := obs.NewRegistry()
	c, err := New(Config{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	ent := okEntry("scasb")
	ent.Result.DurationMS = 1234
	c.Put(k, ent)
	got, ok := c.Get(k)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if got.Result.DurationMS != 0 {
		t.Errorf("stored DurationMS = %d, want 0 (a warm hit reports its own cost)", got.Result.DurationMS)
	}
	want := ent.Result
	want.DurationMS = 0
	if got.Result != want {
		t.Errorf("round trip mutated the row: got %+v want %+v", got.Result, want)
	}
	bad := okEntry("movc3")
	bad.Result.Outcome = "panic"
	c.Put(testKey(2), bad)
	if _, ok := c.Get(testKey(2)); ok {
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
	if _, ok := c.Get(testKey(1)); ok {
		t.Error("nil cache hit")
	}
	c.Put(testKey(1), okEntry("x"))
	if c.Len() != 0 {
		t.Error("nil cache has entries")
	}
	ran := false
	ent, out, err := c.Do(context.Background(), testKey(1), func() (Entry, bool) {
		ran = true
		return okEntry("x"), true
	})
	if !ran || out != OutcomeMiss || err != nil || ent.Result.Outcome != "ok" {
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
		c.Put(testKey(i), okEntry(fmt.Sprint(i)))
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
	if _, ok := c.Get(testKey(999)); !ok {
		t.Error("most recent entry was evicted before older ones")
	}
}

// TestDogpileSingleflight is the -race coalescing test: N concurrent Do
// calls for one key cost exactly one fn run; every other caller waits and
// gets the leader's entry.
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
	fn := func() (Entry, bool) {
		started <- struct{}{}
		runs.Add(1)
		<-gate
		return okEntry("locc"), true
	}
	var wg sync.WaitGroup
	var shares atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ent, out, err := c.Do(context.Background(), k, fn)
			if err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			if ent.Result.Outcome != "ok" {
				t.Errorf("Do returned outcome %q", ent.Result.Outcome)
			}
			if out == OutcomeCoalesced {
				shares.Add(1)
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
	if _, out, err := c.Do(context.Background(), k, func() (Entry, bool) {
		t.Error("fn ran for a cached key")
		return Entry{}, false
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
	_, out, derr := c.Do(context.Background(), k, func() (Entry, bool) { return Entry{}, false })
	if !errors.Is(derr, ErrNoResult) || out.Shared() {
		t.Errorf("declining leader: outcome=%v err=%v, want ErrNoResult/miss", out, derr)
	}
	// A declined flight must not poison the key: the next Do runs fn.
	ent, out, derr := c.Do(context.Background(), k, func() (Entry, bool) { return okEntry("x"), true })
	if derr != nil || out != OutcomeMiss || ent.Result.Outcome != "ok" {
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
	go c.Do(context.Background(), k, func() (Entry, bool) {
		close(started)
		<-gate
		return okEntry("x"), true
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, derr := c.Do(ctx, k, func() (Entry, bool) { return okEntry("x"), true })
	if !errors.Is(derr, context.Canceled) {
		t.Errorf("canceled waiter got %v, want context.Canceled", derr)
	}
	close(gate)
}

// TestDiskPersistence: entries survive a process restart (a fresh Cache over
// the same directory), and the disk tier promotes hits into memory.
func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	m1 := obs.NewRegistry()
	c1, err := New(Config{Dir: dir, Metrics: m1})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(3)
	want := okEntry("mvc")
	want.Binding = json.RawMessage(`{"instruction":"mvc"}`)
	c1.Put(k, want)

	m2 := obs.NewRegistry()
	c2, err := New(Config{Dir: dir, Metrics: m2})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(k)
	if !ok {
		t.Fatal("persistent entry missed after restart")
	}
	if got.Result != want.Result || string(got.Binding) != string(want.Binding) {
		t.Errorf("persistent round trip mutated the entry: %+v", got)
	}
	if m2.Counter("cache.hit", "disk") != 1 {
		t.Error("disk hit not counted")
	}
	// Promoted: the second Get is a memory hit.
	if _, ok := c2.Get(k); !ok || m2.Counter("cache.hit", "mem") != 1 {
		t.Error("disk hit was not promoted into the memory tier")
	}
	if m2.Gauge("cache.entries", "disk") != 1 {
		t.Errorf("disk gauge %d, want 1", m2.Gauge("cache.entries", "disk"))
	}
}

// TestCorruptEntryIsAMiss: every corruption mode — truncation, bit flips in
// the payload, a forged outcome, plain garbage — is detected, counted under
// cache.corrupt with the corrupt-binding classification, deleted, and
// reported as a miss. Never an error.
func TestCorruptEntryIsAMiss(t *testing.T) {
	corruptions := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"garbage", func(b []byte) []byte { return []byte("not json at all") }},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bitflip", func(b []byte) []byte {
			// Flip a byte inside the checksummed payload (past the envelope
			// header) so the sum no longer matches.
			mid := len(b) / 2
			out := append([]byte(nil), b...)
			out[mid] ^= 0x20
			return out
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m := obs.NewRegistry()
			c, err := New(Config{Dir: dir, Metrics: m})
			if err != nil {
				t.Fatal(err)
			}
			k := testKey(4)
			c.Put(k, okEntry("cmc"))
			files, err := filepath.Glob(filepath.Join(dir, "*.json"))
			if err != nil || len(files) != 1 {
				t.Fatalf("want exactly one cache file, got %v (%v)", files, err)
			}
			data, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(files[0], tc.mut(data), 0o644); err != nil {
				t.Fatal(err)
			}
			// A fresh cache over the corrupted directory: the memory tier is
			// empty, so Get must go to disk and find the damage.
			m2 := obs.NewRegistry()
			c2, err := New(Config{Dir: dir, Metrics: m2})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := c2.Get(k); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			if got := m2.Counter("cache.corrupt", "corrupt-binding"); got != 1 {
				t.Errorf("cache.corrupt{corrupt-binding} = %d, want 1", got)
			}
			if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
				t.Error("corrupt entry not removed; it would keep tripping")
			}
			// The slot heals: a rewrite serves warm again.
			c2.Put(k, okEntry("cmc"))
			m3 := obs.NewRegistry()
			c3, err := New(Config{Dir: dir, Metrics: m3})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := c3.Get(k); !ok {
				t.Error("rewritten entry missed")
			}
		})
	}
}

// TestForgedOutcomeRejected: an on-disk entry whose payload checksums
// correctly but claims a non-ok outcome is still refused — the disk tier
// only ever serves successes.
func TestNonOKEntryNotServedByDefault(t *testing.T) {
	dir := t.TempDir()
	m := obs.NewRegistry()
	c, err := New(Config{Dir: dir, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(5)
	ent := okEntry("slt")
	ent.Result.Outcome = "panic"
	payload, _ := json.Marshal(&ent)
	env := envelope{Sum: checksum(payload), Entry: payload}
	data, _ := json.Marshal(&env)
	path := filepath.Join(dir, k.filename())
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// A default cache misses on the non-ok row — but the entry belongs to a
	// KeepFailures producer (a discovery sweep), so it is intact on disk,
	// not corruption to delete.
	if _, ok := c.Get(k); ok {
		t.Fatal("non-ok on-disk row served as a hit")
	}
	if m.Counter("cache.corrupt", "corrupt-binding") != 0 {
		t.Error("intact non-ok entry counted as corruption")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("intact non-ok entry deleted: %v", err)
	}
	// A KeepFailures cache over the same directory serves it.
	kc, err := New(Config{Dir: dir, KeepFailures: true, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := kc.Get(k)
	if !ok || got.Result.Outcome != "panic" {
		t.Fatalf("KeepFailures cache: ok=%v outcome=%q, want the persisted failure row", ok, got.Result.Outcome)
	}
	// A missing outcome is still corruption (fresh cache: the hit above
	// promoted the row into kc's memory tier).
	bad := okEntry("slt")
	bad.Result.Outcome = ""
	payload, _ = json.Marshal(&bad)
	env = envelope{Sum: checksum(payload), Entry: payload}
	data, _ = json.Marshal(&env)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	kc2, err := New(Config{Dir: dir, KeepFailures: true, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := kc2.Get(k); ok {
		t.Fatal("outcome-less entry served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt outcome-less entry not removed")
	}
}

// TestDoServesDiskTier: the singleflight leader consults the persistent
// tier before paying for fn.
func TestDoServesDiskTier(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(Config{Dir: dir, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(6)
	c1.Put(k, okEntry("bls"))
	c2, err := New(Config{Dir: dir, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ent, out, derr := c2.Do(context.Background(), k, func() (Entry, bool) {
		t.Error("fn ran despite a persistent entry")
		return Entry{}, false
	})
	if derr != nil || out != OutcomeHitDisk || ent.Result.Outcome != "ok" {
		t.Errorf("disk-tier Do: outcome=%v err=%v", out, derr)
	}
}
