// Package memo is the content-addressed schedule cache: a sharded, bounded
// LRU keyed by graph.Fingerprint that memoizes scheduling results across
// calls. It is the amortization layer of the throughput pipeline — identical
// basic blocks dominate real workloads, so a compiler front-end that keeps
// re-submitting the same block should pay for scheduling once.
//
// Concurrency design:
//
//   - The key space is partitioned into ≥16 power-of-two shards, each with
//     its own mutex, LRU list, and counters, so concurrent lookups of
//     different blocks never contend on one lock. SHA-256 fingerprints are
//     uniform, so the shard index is just the key's low 64 bits masked.
//   - Each shard carries a singleflight table: when a lookup misses while
//     another goroutine is already computing the same key, the latecomer
//     waits for that in-flight computation instead of duplicating it
//     (counted as "coalesced"). Errors are never cached — every waiter of a
//     failed flight gets the error, and the next lookup recomputes.
//
// The cache stores opaque values; the facade layer is responsible for
// storing clones that do not retain caller-owned graphs and for rebinding
// clones on the way out. Soundness rests on the Fingerprint contract
// (internal/graph): equal keys describe the same scheduling instance, and
// every scheduler in this repository is deterministic, so a cached value is
// bit-identical to what recomputation would produce.
package memo

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"aisched/internal/faultinject"
	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/metrics"
	"aisched/internal/obs"
	"aisched/internal/sbudget"
)

// MetricSet is one family of always-on cache instruments (internal/metrics).
// Unlike the per-Cache Counters snapshot and the obs events — which exist per
// Scheduler / per run — a MetricSet aggregates every cache wired to it in the
// process: one striped atomic add per lookup, consumed by
// aisched.MetricsSnapshot and the /metrics endpoint. Two sets exist: the
// whole-result schedule cache (Do/DoCtx) and the per-block step cache
// (Get/Put, internal/core), so the two planes never blur in dashboards.
type MetricSet struct {
	hits, misses, evictions, coalesced, recomputed *metrics.Counter
	bytes                                          *metrics.Gauge
}

// ScheduleMetrics instruments the whole-result schedule caches. The bytes
// gauge counts approximate resident value bytes across live caches; a cache
// dropped without eviction keeps its last contribution (caches are normally
// process-lifetime).
var ScheduleMetrics = &MetricSet{
	hits:       metrics.Default.NewCounter("aisched_memo_hits_total", "schedule-cache lookups served from a memoized result"),
	misses:     metrics.Default.NewCounter("aisched_memo_misses_total", "schedule-cache lookups that computed and stored a result"),
	evictions:  metrics.Default.NewCounter("aisched_memo_evictions_total", "schedule-cache LRU evictions"),
	coalesced:  metrics.Default.NewCounter("aisched_memo_coalesced_total", "schedule-cache lookups coalesced onto an in-flight computation"),
	recomputed: metrics.Default.NewCounter("aisched_memo_recomputed_total", "coalesced waiters that recomputed after an in-flight leader failed with a personal error"),
	bytes:      metrics.Default.NewGauge("aisched_memo_resident_bytes", "approximate resident bytes of memoized schedule results"),
}

// StepMetrics instruments the per-block step caches (internal/core): the hit
// and relocation path of the fragment replay plane.
var StepMetrics = &MetricSet{
	hits:       metrics.Default.NewCounter("aisched_stepcache_hits_total", "step-cache lookups served by fragment replay"),
	misses:     metrics.Default.NewCounter("aisched_stepcache_misses_total", "step-cache lookups that ran the full merge step"),
	evictions:  metrics.Default.NewCounter("aisched_stepcache_evictions_total", "step-cache LRU evictions"),
	coalesced:  metrics.Default.NewCounter("aisched_stepcache_coalesced_total", "step-cache lookups coalesced onto an in-flight computation (unused: the step cache is Get/Put)"),
	recomputed: metrics.Default.NewCounter("aisched_stepcache_recomputed_total", "step-cache coalesced recomputes (unused: the step cache is Get/Put)"),
	bytes:      metrics.Default.NewGauge("aisched_stepcache_resident_bytes", "approximate resident bytes of cached step fragments"),
}

// Kind discriminates the result type cached under a fingerprint, so a block
// schedule and a loop steady state for the same graph never alias. Whole
// trace results are not memoized: a repeated trace replays block by block
// from the step cache (KindStep).
type Kind uint8

const (
	// KindBlock caches single-block schedules (rank + Delay_Idle_Slots).
	KindBlock Kind = iota
	// KindLoop caches §5 steady-state loop schedules.
	KindLoop
	// KindStep caches one core.Step merge/delay/chop iteration as a
	// relocatable fragment. Step keys are built with graph.Hasher (128-bit
	// non-cryptographic) rather than Fingerprint; the key's hash fills the
	// fingerprint's first 16 bytes and the rest stay zero.
	KindStep

	numKinds
)

// Key is the cache key: the instance fingerprint plus the result kind.
type Key struct {
	FP   graph.Fingerprint
	Kind Kind
}

// KeyFor builds the cache key for scheduling g on m as kind. It hashes
// exactly the machine parameters that affect scheduling (unit counts and
// window); machine names do not fragment the cache.
func KeyFor(g *graph.Graph, m *machine.Machine, kind Kind) Key {
	return Key{FP: g.Fingerprint(m.Units, m.Window), Kind: kind}
}

// Config sizes a Cache. The zero value picks the defaults.
type Config struct {
	// Capacity is the total entry budget across all shards (default 4096).
	// It is split evenly per shard, so the effective bound is approximate:
	// a pathological key distribution can evict earlier on a hot shard.
	Capacity int
	// MaxBytes bounds the approximate resident bytes of cached values across
	// all shards (default 64 MiB, split evenly per shard; negative disables
	// the byte bound). Entry count alone is a poor bound when values vary
	// widely in size — a step fragment for a 6-node block and one for a
	// 200-node suffix differ by 30× — so eviction applies whichever bound
	// trips first. Values that implement Sizer report their own footprint;
	// others are charged a fixed conservative estimate.
	MaxBytes int
	// Shards is the number of lock shards, rounded up to a power of two and
	// clamped to at least 16.
	Shards int
	// Tracer, when non-nil, receives KindCacheHit / KindCacheMiss /
	// KindCacheEvict / KindCacheCoalesce events for the metrics snapshot.
	Tracer obs.Tracer
	// Metrics selects the always-on instrument family this cache feeds
	// (nil = ScheduleMetrics).
	Metrics *MetricSet
}

// Sizer lets a cached value report its approximate resident footprint in
// bytes for the MaxBytes bound. The estimate should cover the value's
// backing arrays; exactness is not required — the bound itself is
// approximate (per-shard split, map overhead estimated).
type Sizer interface {
	ApproxBytes() int
}

// DefaultCapacity is the entry budget used when Config.Capacity is zero.
const DefaultCapacity = 4096

// DefaultMaxBytes is the resident-byte budget used when Config.MaxBytes is
// zero.
const DefaultMaxBytes = 64 << 20

// entryOverhead is the charged per-entry bookkeeping estimate: the entry
// struct, its map bucket share, and the key copy.
const entryOverhead = 176

const minShards = 16

// Counters is a point-in-time snapshot of the cache's activity, summed over
// shards. Hits + Misses + Coalesced equals the number of Do calls plus Get
// calls.
type Counters struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Coalesced uint64 `json:"coalesced"`
	// The per-kind split of Hits, Misses and Coalesced for the two kinds
	// the schedule cache holds: the Block* fields count KindBlock lookups,
	// the Loop* fields KindLoop lookups.
	BlockHits      uint64 `json:"block_hits"`
	BlockMisses    uint64 `json:"block_misses"`
	BlockCoalesced uint64 `json:"block_coalesced"`
	LoopHits       uint64 `json:"loop_hits"`
	LoopMisses     uint64 `json:"loop_misses"`
	LoopCoalesced  uint64 `json:"loop_coalesced"`
	// Bytes is the approximate resident footprint of cached values (a
	// point-in-time gauge, not a counter).
	Bytes int64 `json:"bytes"`
	// Recomputed counts coalesced waiters whose in-flight leader failed
	// with an error personal to the leader (its context was cancelled or
	// its budget ran out) and who therefore ran their own compute instead
	// of inheriting an error their caller did not cause. Each such call is
	// also counted in Coalesced.
	Recomputed uint64 `json:"recomputed"`
}

// entry is one resident value, threaded on its shard's intrusive LRU ring.
type entry struct {
	key        Key
	val        any
	bytes      int
	prev, next *entry
}

// valBytes charges v's approximate resident footprint.
func valBytes(v any) int {
	if s, ok := v.(Sizer); ok {
		return entryOverhead + s.ApproxBytes()
	}
	return entryOverhead
}

// flight is one in-progress computation; waiters block on done.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

type shard struct {
	mu       sync.Mutex
	capacity int
	byteCap  int // ≤0 means unbounded
	bytes    int
	entries  map[Key]*entry
	lru      entry // sentinel: lru.next is MRU, lru.prev is LRU
	inflight map[Key]*flight

	byKind                [numKinds]lookups
	evictions, recomputed uint64
}

// lookups counts one kind's lookups by outcome.
type lookups struct{ hits, misses, coalesced uint64 }

// Cache is a sharded bounded LRU with singleflight deduplication. Safe for
// concurrent use. The zero value is not useful; use New.
type Cache struct {
	shards []shard
	mask   uint64
	tracer obs.Tracer
	met    *MetricSet
}

// New builds a cache from cfg (zero-value fields take defaults).
func New(cfg Config) *Cache {
	capTotal := cfg.Capacity
	if capTotal <= 0 {
		capTotal = DefaultCapacity
	}
	byteTotal := cfg.MaxBytes
	if byteTotal == 0 {
		byteTotal = DefaultMaxBytes
	}
	n := cfg.Shards
	if n < minShards {
		n = minShards
	}
	// Round up to a power of two so shard selection is a mask.
	for n&(n-1) != 0 {
		n &= n - 1
		n <<= 1
	}
	perShard := (capTotal + n - 1) / n
	if perShard < 1 {
		perShard = 1
	}
	bytesPerShard := 0
	if byteTotal > 0 {
		bytesPerShard = (byteTotal + n - 1) / n
	}
	met := cfg.Metrics
	if met == nil {
		met = ScheduleMetrics
	}
	c := &Cache{shards: make([]shard, n), mask: uint64(n - 1), tracer: cfg.Tracer, met: met}
	for i := range c.shards {
		s := &c.shards[i]
		s.capacity = perShard
		s.byteCap = bytesPerShard
		s.entries = make(map[Key]*entry)
		s.inflight = make(map[Key]*flight)
		s.lru.next = &s.lru
		s.lru.prev = &s.lru
	}
	return c
}

func (c *Cache) shardFor(k Key) *shard {
	return &c.shards[binary.LittleEndian.Uint64(k.FP[:8])&c.mask]
}

func (c *Cache) emit(kind obs.Kind) {
	if c.tracer != nil {
		c.tracer.Emit(obs.Event{Kind: kind, Block: -1})
	}
}

// Do is DoCtx with a background (never-cancelled) context.
func (c *Cache) Do(k Key, compute func() (any, error)) (val any, hit bool, err error) {
	return c.DoCtx(context.Background(), k, compute)
}

// DoCtx returns the cached value for k, computing it with compute on a miss.
// hit reports whether the value came from the cache (including waiting on a
// concurrent computation of the same key) rather than from this call's own
// compute. Errors are returned to every waiter of the failed computation and
// are never cached; the next lookup for the same key recomputes.
//
// Cancellation and failure isolation:
//
//   - A waiter whose own ctx is done stops waiting and returns ctx.Err()
//     immediately; the in-flight computation is unaffected.
//   - A leader that fails with an error personal to it — context
//     cancellation or budget exhaustion — does not poison its waiters: each
//     waiter runs its own compute (under its own context/budget, which its
//     closure captures) and stores the result on success. Real scheduling
//     errors are shared with every waiter as before.
//   - A compute panic is recovered and converted into an error, so the
//     flight's done channel always closes and waiters never hang.
func (c *Cache) DoCtx(ctx context.Context, k Key, compute func() (any, error)) (val any, hit bool, err error) {
	if h := faultinject.MemoLookup; h != nil {
		h()
	}
	s := c.shardFor(k)
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		e.unlink()
		e.pushMRU(&s.lru)
		s.byKind[k.Kind].hits++
		v := e.val // insert refreshes e.val under s.mu
		s.mu.Unlock()
		c.met.hits.Inc()
		c.emit(obs.KindCacheHit)
		return v, true, nil
	}
	if f, ok := s.inflight[k]; ok {
		s.byKind[k.Kind].coalesced++
		s.mu.Unlock()
		c.met.coalesced.Inc()
		c.emit(obs.KindCacheCoalesce)
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if f.err == nil {
			return f.val, true, nil
		}
		if !personalError(f.err) {
			return nil, false, f.err
		}
		// The leader failed for reasons private to it (its caller cancelled
		// or its budget ran out); this waiter's request is still live, so
		// compute directly rather than surface an error the waiter's caller
		// did not cause. No new flight is registered — at most one wait plus
		// one compute per call, so progress is guaranteed.
		s.mu.Lock()
		s.recomputed++
		s.mu.Unlock()
		c.met.recomputed.Inc()
		v, err := runCompute(compute)
		if err != nil {
			return nil, false, err
		}
		c.store(s, k, v)
		return v, false, nil
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[k] = f
	s.byKind[k.Kind].misses++
	s.mu.Unlock()
	c.met.misses.Inc()
	c.emit(obs.KindCacheMiss)

	f.val, f.err = runCompute(compute)

	// The entry goes in under the same lock that retires the flight, so a
	// concurrent lookup for k sees one or the other, never neither.
	nb := 0
	if f.err == nil {
		nb = valBytes(f.val)
	}
	s.mu.Lock()
	delete(s.inflight, k)
	var delta, evicted int
	if f.err == nil {
		delta, evicted = s.insert(k, f.val, nb)
	}
	s.mu.Unlock()
	close(f.done)
	if f.err != nil {
		return nil, false, f.err
	}
	c.stored(delta, evicted)
	return f.val, false, nil
}

// personalError reports whether err is specific to the goroutine that
// computed it rather than to the scheduling instance: context cancellation
// and budget exhaustion depend on the caller's deadline, not the key.
func personalError(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, sbudget.ErrExhausted)
}

// runCompute invokes compute, converting a panic into an error so flights
// always complete.
func runCompute(compute func() (any, error)) (v any, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("memo: compute panicked: %v", p)
		}
	}()
	return compute()
}

// store inserts v under k and publishes the byte and eviction bookkeeping.
func (c *Cache) store(s *shard, k Key, v any) {
	nb := valBytes(v)
	s.mu.Lock()
	delta, evicted := s.insert(k, v, nb)
	s.mu.Unlock()
	c.stored(delta, evicted)
}

// insert puts v (charged nb bytes) under k, refreshing the entry if a
// concurrent recompute beat us to it, and applies both LRU bounds — entry
// count and approximate resident bytes. It returns the change in resident
// bytes and the number of evictions. The just-inserted entry is never its
// own victim: a value larger than a whole shard's byte budget still caches
// (as the shard's only resident), it just evicts everything else. Callers
// hold s.mu.
func (s *shard) insert(k Key, v any, nb int) (delta, evicted int) {
	if e, ok := s.entries[k]; ok {
		delta = nb - e.bytes
		e.val = v
		e.bytes = nb
		s.bytes += delta
		e.unlink()
		e.pushMRU(&s.lru)
		return delta, 0
	}
	e := &entry{key: k, val: v, bytes: nb}
	s.entries[k] = e
	s.bytes += nb
	e.pushMRU(&s.lru)
	delta = nb
	for (len(s.entries) > s.capacity || (s.byteCap > 0 && s.bytes > s.byteCap)) &&
		len(s.entries) > 1 {
		victim := s.lru.prev
		victim.unlink()
		delete(s.entries, victim.key)
		s.bytes -= victim.bytes
		delta -= victim.bytes
		s.evictions++
		evicted++
	}
	return delta, evicted
}

// stored publishes an insert's byte delta and evictions to the metrics and
// the tracer, outside the shard lock.
func (c *Cache) stored(delta, evicted int) {
	c.met.bytes.Add(int64(delta))
	if evicted > 0 {
		c.met.evictions.Add(uint64(evicted))
	}
	for i := 0; i < evicted; i++ {
		c.emit(obs.KindCacheEvict)
	}
}

// Get returns the cached value for k without singleflight coordination — the
// direct lookup the step cache's replay path uses: one shard lock, no
// closure, no channel, no allocation. A miss returns (nil, false) and counts
// toward Misses; the caller computes and Puts.
func (c *Cache) Get(k Key) (any, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		e.unlink()
		e.pushMRU(&s.lru)
		s.byKind[k.Kind].hits++
		v := e.val // insert refreshes e.val under s.mu
		s.mu.Unlock()
		c.met.hits.Inc()
		c.emit(obs.KindCacheHit)
		return v, true
	}
	s.byKind[k.Kind].misses++
	s.mu.Unlock()
	c.met.misses.Inc()
	c.emit(obs.KindCacheMiss)
	return nil, false
}

// Put stores v under k, refreshing an existing entry and applying both LRU
// bounds. Concurrent Puts of the same key are safe (last writer's value
// stays resident); values must be immutable once stored.
func (c *Cache) Put(k Key, v any) {
	c.store(c.shardFor(k), k, v)
}

// Len returns the number of resident entries across all shards.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Counters sums the per-shard activity counters.
func (c *Cache) Counters() Counters {
	var t Counters
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, l := range s.byKind {
			t.Hits += l.hits
			t.Misses += l.misses
			t.Coalesced += l.coalesced
		}
		b, l := s.byKind[KindBlock], s.byKind[KindLoop]
		t.BlockHits += b.hits
		t.BlockMisses += b.misses
		t.BlockCoalesced += b.coalesced
		t.LoopHits += l.hits
		t.LoopMisses += l.misses
		t.LoopCoalesced += l.coalesced
		t.Evictions += s.evictions
		t.Recomputed += s.recomputed
		t.Bytes += int64(s.bytes)
		s.mu.Unlock()
	}
	return t
}

// Bytes reports the approximate resident value bytes across all shards.
func (c *Cache) Bytes() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += int64(s.bytes)
		s.mu.Unlock()
	}
	return n
}

// Release drops every resident entry and returns their bytes to the metric
// gauge. Callers with a bounded lifetime (e.g. a closed StreamScheduler)
// release so the process-wide resident-bytes gauge tracks live caches only.
// Dropped entries do not count as evictions. The cache remains usable.
func (c *Cache) Release() {
	var freed int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		freed += int64(s.bytes)
		s.bytes = 0
		clear(s.entries)
		s.lru.next = &s.lru
		s.lru.prev = &s.lru
		s.mu.Unlock()
	}
	c.met.bytes.Add(-freed)
}

func (e *entry) unlink() {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (e *entry) pushMRU(sentinel *entry) {
	e.prev = sentinel
	e.next = sentinel.next
	sentinel.next.prev = e
	sentinel.next = e
}
