// Package cache is the content-addressed analysis-result cache of the EXTRA
// pipeline. The paper's economics motivate it directly: an exotic-instruction
// analysis is expensive (a proof script or a bounded search over thousands of
// candidate states) while its result — the binding handed to the retargetable
// code generator — is small and reusable. Bik's state-space-search note makes
// the same move for instruction sequences: search once, hard-wire the found
// answer, reuse it forever. The cache keys on *content*, not names: the
// 128-bit structural digest (isps.HashPair) of the resolved operator and
// instruction descriptions, combined with the analysis options that change
// the observable row (validation input count, extended mode). Rename a
// description and the key survives; edit one character of its body and the
// key — correctly — changes, so invalidation is automatic.
//
// Two tiers:
//
//   - a sharded in-memory LRU with singleflight: concurrent identical
//     requests coalesce into one engine run, the rest wait for its result
//     (Do), so a dogpile of N identical requests costs one analysis;
//   - an optional persistent on-disk store (Config.Dir): one JSON file per
//     key, written atomically via batch.WriteFileAtomic, carrying a
//     self-checksum so torn or hand-corrupted entries are detected, counted
//     (cache.corrupt), classified like a corrupt binding document
//     (*fault.CorruptBindingError), removed, and treated as misses — never
//     served and never an error to the caller.
//
// By default only rows whose Outcome is "ok" are cached: a cached failure
// could never heal, while a cached success is content-addressed and lives
// until evicted. Stored rows have DurationMS
// zeroed, so a warm hit reports the (near-zero) serve cost rather than
// re-claiming the cold run's cost; every other byte of a warm row is
// identical to the cold run that produced it.
package cache

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"extra/internal/batch"
	"extra/internal/isps"
	"extra/internal/langops"
	"extra/internal/machines"
	"extra/internal/obs"
	"extra/internal/proofs"
)

// Key identifies one analysis result by content: the structural digest of
// the (operator, instruction) description pair plus the options that change
// the row. Keys are comparable and cheap to copy.
type Key struct {
	// Digest is isps.HashPair(operator description, instruction description).
	Digest isps.Digest
	// Validate is the differential-validation input count the row was (or
	// would be) produced under; it lands in Result.Validated, so rows run
	// under different counts are distinct entries.
	Validate int
	// Extended marks extended-mode analyses (predicate constraints).
	Extended bool
	// Salt partitions key spaces that share description digests but not
	// semantics: a discovery sweep folds its search configuration (ladder
	// depth/budget, attempt count) in here, so a row produced under a small
	// budget is never served to a sweep running a larger one. Zero — the
	// proof-catalog key space — leaves filenames and existing entries
	// untouched.
	Salt uint64
}

// KeyFor resolves the analysis' operator and instruction descriptions from
// the corpora and digests them into a cache key. The corpora hand back
// interned trees, so HashPair folds two memoized root digests instead of
// re-walking either description. ok is false when either description is
// unknown to the corpora (a synthetic test catalog entry, for example) —
// such analyses are simply uncacheable.
func KeyFor(a *proofs.Analysis, validate int) (Key, bool) {
	op := langops.Get(a.Operator)
	ins := machines.Get(a.Instruction)
	if op == nil || ins == nil {
		return Key{}, false
	}
	return Key{Digest: isps.HashPair(op, ins), Validate: validate, Extended: a.Extended}, true
}

// KeyForPair digests an explicit description pair into a cache key, for
// callers whose work items are not proof-catalog analyses — the discovery
// sweep keys on the exact (operator, instruction) trees it searches over,
// salted with its search configuration. Both descriptions must be non-nil.
func KeyForPair(op, ins *isps.Description, validate int, extended bool, salt uint64) Key {
	return Key{Digest: isps.HashPair(op, ins), Validate: validate, Extended: extended, Salt: salt}
}

// Entry is one cached analysis result: the report row, plus (when the
// producer had it in hand) the binding serialized as the compiler-interface
// document, so a warm consumer can reconstruct the full analysis product
// without re-running the engine.
type Entry struct {
	Result  batch.Result    `json:"result"`
	Binding json.RawMessage `json:"binding,omitempty"`
	// Sweep carries a producer-specific row alongside the batch-shaped one:
	// the discovery sweep stores its full report row (savings, fault class,
	// attempt count) here so a warm hit reconstructs it exactly. Opaque to
	// the cache; covered by the envelope checksum like everything else.
	Sweep json.RawMessage `json:"sweep,omitempty"`
}

// Config parameterizes a Cache.
type Config struct {
	// Entries bounds the in-memory tier; past it, least-recently-used
	// entries are evicted (cache.evicted). 0 means 512; negative means no
	// memory tier (disk only).
	Entries int
	// Dir, when non-empty, enables the persistent tier: one self-checksummed
	// JSON file per key under this directory (created if needed).
	Dir string
	// KeepFailures caches rows whatever their outcome. The default (false)
	// keeps the serving-path contract — only "ok" rows are cached, so a
	// failure re-runs on the next request — but a discovery sweep opts in:
	// its negative results ("failed", "poison") are deterministic under a
	// fixed search configuration (which the Key's Salt carries), and they
	// are precisely the expensive rows a re-launched sweep must not redo.
	KeepFailures bool
	// Metrics receives the cache.* series; nil means the process default.
	Metrics *obs.Registry
}

// ErrNoResult is returned by Do when the executing caller's fn declined to
// produce a result (for the analysis service: the leader was shed by
// admission control), so there is nothing to share with coalesced waiters.
var ErrNoResult = errors.New("cache: no result produced")

// Outcome classifies how a Do call was answered; the analysis service
// surfaces it to clients as the X-Cache response header and the load
// generator buckets latencies by it (a coalesced wait costs engine time
// and must not pollute the warm-hit percentiles).
type Outcome uint8

const (
	// OutcomeMiss: this caller was the leader and ran fn itself.
	OutcomeMiss Outcome = iota
	// OutcomeHitMem: served from the in-memory tier.
	OutcomeHitMem
	// OutcomeHitDisk: served from the persistent tier.
	OutcomeHitDisk
	// OutcomeCoalesced: served by waiting on another caller's run.
	OutcomeCoalesced
)

// Shared reports whether the answer came from the cache or another
// caller's run rather than this caller's own fn.
func (o Outcome) Shared() bool { return o != OutcomeMiss }

// Warm reports whether the answer was a genuine cache hit (either tier) —
// served at cache speed, without an engine run anywhere in the request's
// critical path.
func (o Outcome) Warm() bool { return o == OutcomeHitMem || o == OutcomeHitDisk }

func (o Outcome) String() string {
	switch o {
	case OutcomeHitMem:
		return "hit"
	case OutcomeHitDisk:
		return "hit-disk"
	case OutcomeCoalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

const (
	defaultEntries = 512
	numShards      = 8
)

// Cache is the two-tier analysis-result cache. All methods are safe for
// concurrent use; a nil *Cache is a valid no-op receiver (Get always misses,
// Do always runs fn).
type Cache struct {
	cfg      Config
	shards   [numShards]shard
	perShard int // memory-tier capacity per shard; 0 disables the tier

	memEntries atomic.Int64 // gauge backing: live in-memory entries
	memBytes   atomic.Int64 // gauge backing: approximate in-memory bytes

	diskEntries atomic.Int64 // approximate persistent-entry count
	diskBytes   atomic.Int64 // approximate persistent bytes
}

// shard is one LRU segment plus its in-flight singleflight table.
type shard struct {
	mu      sync.Mutex
	entries map[Key]*node
	head    *node // most recently used
	tail    *node // least recently used
	flights map[Key]*flight
}

// node is one memory-tier entry on its shard's intrusive LRU list.
type node struct {
	key        Key
	ent        Entry
	size       int64
	prev, next *node
}

// flight is one in-progress computation other callers can wait on.
type flight struct {
	done chan struct{}
	ent  Entry
	ok   bool
}

// New builds a Cache over cfg, creating the persistent directory when
// configured and priming the entry/byte gauges from what already persists.
func New(cfg Config) (*Cache, error) {
	c := &Cache{cfg: cfg}
	switch {
	case cfg.Entries < 0:
		c.perShard = 0
	case cfg.Entries == 0:
		c.perShard = (defaultEntries + numShards - 1) / numShards
	default:
		c.perShard = (cfg.Entries + numShards - 1) / numShards
		if c.perShard < 1 {
			c.perShard = 1
		}
	}
	for i := range c.shards {
		c.shards[i].entries = map[Key]*node{}
		c.shards[i].flights = map[Key]*flight{}
	}
	if cfg.Dir != "" {
		if err := c.initDir(); err != nil {
			return nil, err
		}
	}
	c.publishGauges()
	return c, nil
}

func (c *Cache) metrics() *obs.Registry {
	if c.cfg.Metrics != nil {
		return c.cfg.Metrics
	}
	return obs.Default()
}

// publishGauges exposes the tier sizes on the metrics registry, so /metrics
// shows the cache's footprint alongside its hit/miss counters.
func (c *Cache) publishGauges() {
	m := c.metrics()
	m.Set("cache.entries", "mem", c.memEntries.Load())
	m.Set("cache.bytes", "mem", c.memBytes.Load())
	if c.cfg.Dir != "" {
		m.Set("cache.entries", "disk", c.diskEntries.Load())
		m.Set("cache.bytes", "disk", c.diskBytes.Load())
	}
}

func (c *Cache) shardFor(k Key) *shard {
	return &c.shards[k.Digest.Lo%numShards]
}

// Get looks a key up in the memory tier and then the persistent tier
// (promoting a disk hit into memory). Counters: cache.hit{mem,disk} and
// cache.miss; per-tier lookup latencies land in cache.lookup.ns{mem,disk}
// so /metrics can attribute where cache time goes.
func (c *Cache) Get(k Key) (Entry, bool) {
	if c == nil {
		return Entry{}, false
	}
	start := time.Now()
	sh := c.shardFor(k)
	sh.mu.Lock()
	ent, ok := sh.peek(k)
	sh.mu.Unlock()
	m := c.metrics()
	m.ObserveSince("cache.lookup.ns", "mem", start)
	if ok {
		m.Inc("cache.hit", "mem")
		return ent, true
	}
	if c.cfg.Dir != "" {
		diskStart := time.Now()
		ent, ok := c.diskGet(k)
		m.ObserveSince("cache.lookup.ns", "disk", diskStart)
		if ok {
			m.Inc("cache.hit", "disk")
			c.memPut(k, ent)
			return ent, true
		}
	}
	m.Inc("cache.miss", "")
	return Entry{}, false
}

// Put stores an entry in both tiers. Only "ok" rows are cacheable unless
// KeepFailures is set — a failure row is dropped silently (cache a failure
// and you can never heal). The stored row's
// DurationMS and Trace are zeroed: a warm hit reports its own serve cost
// and belongs to the *serving* request's trace, not the producing one's.
func (c *Cache) Put(k Key, ent Entry) {
	if c == nil || (ent.Result.Outcome != "ok" && !c.cfg.KeepFailures) {
		return
	}
	ent.Result.DurationMS = 0
	ent.Result.Trace = ""
	c.memPut(k, ent)
	c.diskPut(k, ent)
}

// Do coalesces concurrent identical computations. The first caller for a key
// not already cached becomes the leader and runs fn; every concurrent caller
// for the same key waits for the leader's answer instead of running its own
// (cache.coalesced). The leader's "ok" row is inserted into the cache.
//
// Returns (entry, outcome, err):
//   - err == nil: entry is valid; outcome reports how it was answered —
//     OutcomeHitMem/OutcomeHitDisk from the cache, OutcomeCoalesced from
//     another caller's run, OutcomeMiss from this caller's own fn;
//   - err == ErrNoResult: fn declined to produce a result — on OutcomeMiss
//     this caller WAS the leader (its fn already handled the refusal), on
//     OutcomeCoalesced the leader declined and this waiter must answer for
//     itself;
//   - other err: ctx ended while waiting on another caller's run.
//
// fn returns (entry, true) on production, (zero, false) to decline.
func (c *Cache) Do(ctx context.Context, k Key, fn func() (Entry, bool)) (Entry, Outcome, error) {
	if c == nil {
		ent, ok := fn()
		if !ok {
			return Entry{}, OutcomeMiss, ErrNoResult
		}
		return ent, OutcomeMiss, nil
	}
	m := c.metrics()
	start := time.Now()
	sh := c.shardFor(k)
	sh.mu.Lock()
	if ent, ok := sh.peek(k); ok {
		sh.mu.Unlock()
		m.ObserveSince("cache.lookup.ns", "mem", start)
		m.Inc("cache.hit", "mem")
		return ent, OutcomeHitMem, nil
	}
	if f, ok := sh.flights[k]; ok {
		sh.mu.Unlock()
		m.Inc("cache.coalesced", "")
		select {
		case <-f.done:
			if !f.ok {
				return Entry{}, OutcomeCoalesced, ErrNoResult
			}
			return f.ent, OutcomeCoalesced, nil
		case <-ctx.Done():
			return Entry{}, OutcomeCoalesced, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	sh.flights[k] = f
	sh.mu.Unlock()
	defer func() {
		sh.mu.Lock()
		delete(sh.flights, k)
		sh.mu.Unlock()
		close(f.done)
	}()
	// The leader still gets the persistent tier before paying for fn.
	if c.cfg.Dir != "" {
		diskStart := time.Now()
		ent, ok := c.diskGet(k)
		m.ObserveSince("cache.lookup.ns", "disk", diskStart)
		if ok {
			m.Inc("cache.hit", "disk")
			c.memPut(k, ent)
			f.ent, f.ok = ent, true
			return ent, OutcomeHitDisk, nil
		}
	}
	m.Inc("cache.miss", "")
	ent, ok := fn()
	if !ok {
		return Entry{}, OutcomeMiss, ErrNoResult
	}
	if ent.Result.Outcome == "ok" || c.cfg.KeepFailures {
		ent.Result.DurationMS = 0
		ent.Result.Trace = ""
		c.memPut(k, ent)
		c.diskPut(k, ent)
	}
	f.ent, f.ok = ent, true
	return ent, OutcomeMiss, nil
}

// peek returns the shard's entry for k, refreshing its LRU position. The
// shard mutex must be held.
func (sh *shard) peek(k Key) (Entry, bool) {
	n, ok := sh.entries[k]
	if !ok {
		return Entry{}, false
	}
	sh.moveToFront(n)
	return n.ent, true
}

// memPut inserts (or refreshes) an entry in the memory tier, evicting from
// the shard's LRU tail past capacity.
func (c *Cache) memPut(k Key, ent Entry) {
	if c.perShard == 0 {
		return
	}
	size := entrySize(ent)
	sh := c.shardFor(k)
	sh.mu.Lock()
	if n, ok := sh.entries[k]; ok {
		c.memBytes.Add(size - n.size)
		n.ent, n.size = ent, size
		sh.moveToFront(n)
		sh.mu.Unlock()
		c.publishGauges()
		return
	}
	n := &node{key: k, ent: ent, size: size}
	sh.entries[k] = n
	sh.pushFront(n)
	c.memEntries.Add(1)
	c.memBytes.Add(size)
	var evicted int
	for len(sh.entries) > c.perShard {
		t := sh.tail
		sh.remove(t)
		delete(sh.entries, t.key)
		c.memEntries.Add(-1)
		c.memBytes.Add(-t.size)
		evicted++
	}
	sh.mu.Unlock()
	if evicted > 0 {
		c.metrics().Add("cache.evicted", "", uint64(evicted))
	}
	c.publishGauges()
}

// entrySize approximates an entry's footprint as its serialized length —
// the same bytes the persistent tier stores.
func entrySize(ent Entry) int64 {
	data, err := json.Marshal(&ent)
	if err != nil {
		return 0
	}
	return int64(len(data))
}

// Intrusive LRU plumbing; the shard mutex guards all of it.

func (sh *shard) pushFront(n *node) {
	n.prev, n.next = nil, sh.head
	if sh.head != nil {
		sh.head.prev = n
	}
	sh.head = n
	if sh.tail == nil {
		sh.tail = n
	}
}

func (sh *shard) remove(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		sh.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		sh.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (sh *shard) moveToFront(n *node) {
	if sh.head == n {
		return
	}
	sh.remove(n)
	sh.pushFront(n)
}

// Len reports the number of live in-memory entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return int(c.memEntries.Load())
}
