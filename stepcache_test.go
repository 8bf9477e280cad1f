package aisched

// Facade-level differential tests for the structural step cache: every
// schedule the facades return must be bit-identical with the cache on and
// off — batch and stream, every lookahead, mixed-latency and restricted
// workloads, duplicate-heavy and unique traces. FuzzStepCache extends the
// same property to arbitrary decoded instances.

import (
	"fmt"
	"math/rand"
	"testing"

	"aisched/internal/workload"

	"aisched/internal/testutil"
)

// repeatTrace concatenates g with itself `times` times — node IDs and block
// numbers rebased per copy — producing the duplicate-block workload the step
// cache is built for.
func repeatTrace(g *Graph, times int) *Graph {
	n := g.Len()
	maxBlock := 0
	for v := 0; v < n; v++ {
		if b := g.Node(NodeID(v)).Block; b > maxBlock {
			maxBlock = b
		}
	}
	out := NewGraph(n * times)
	for c := 0; c < times; c++ {
		for v := 0; v < n; v++ {
			nd := g.Node(NodeID(v))
			out.AddNode(nd.Label, nd.Exec, nd.Class, nd.Block+c*(maxBlock+1))
		}
	}
	for c := 0; c < times; c++ {
		off := NodeID(c * n)
		for v := 0; v < n; v++ {
			for _, e := range g.Out(NodeID(v)) {
				out.MustEdge(e.Src+off, e.Dst+off, e.Latency, 0)
			}
		}
	}
	return out
}

// TestStepCacheBatchDifferential: ScheduleTrace through a step-cached
// Scheduler is bit-identical to the uncached scheduler on mixed-latency
// (release-floor regime) and restricted workloads, cold and warm, unique and
// duplicate-heavy.
func TestStepCacheBatchDifferential(t *testing.T) {
	configs := map[string]workload.TraceConfig{
		"mixed":      workload.DefaultTrace(),
		"restricted": restrictedTrace(),
	}
	machines := []*Machine{SingleUnit(4), RS6000(4)}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			// The trace cache is disabled on both sides so every call walks
			// the per-block loop; only the step cache differs.
			on := NewScheduler(SchedulerOptions{CacheCapacity: -1})
			off := NewScheduler(SchedulerOptions{CacheCapacity: -1, StepCacheCapacity: -1})
			for seed := int64(1); seed <= 12; seed++ {
				g, err := workload.Trace(rand.New(rand.NewSource(seed)), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if seed%2 == 0 {
					g = repeatTrace(g, 4)
				}
				m := machines[seed%2]
				want, err := off.ScheduleTrace(g, m)
				if err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ { // cold then warm
					got, err := on.ScheduleTrace(g, m)
					if err != nil {
						t.Fatal(err)
					}
					sameTraceResult(t, fmt.Sprintf("%s seed %d pass %d", name, seed, pass), got, want)
				}
			}
			c := on.StepCacheCounters()
			if c.Hits == 0 {
				t.Fatalf("%s: no step-cache hits across the sweep (misses=%d)", name, c.Misses)
			}
		})
	}
}

func sameBlockResults(t *testing.T, tag string, got, want []*BlockResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results vs %d", tag, len(got), len(want))
	}
	for i, w := range want {
		r := got[i]
		if r.Block != w.Block || r.Lag != w.Lag || r.Degraded != w.Degraded {
			t.Fatalf("%s: result %d header (%d,%d,%q) vs (%d,%d,%q)",
				tag, i, r.Block, r.Lag, r.Degraded, w.Block, w.Lag, w.Degraded)
		}
		if fmt.Sprint(r.Order) != fmt.Sprint(w.Order) ||
			fmt.Sprint(r.Start) != fmt.Sprint(w.Start) ||
			fmt.Sprint(r.Unit) != fmt.Sprint(w.Unit) {
			t.Fatalf("%s: result %d differs\n got %v %v %v\n want %v %v %v",
				tag, i, r.Order, r.Start, r.Unit, w.Order, w.Start, w.Unit)
		}
	}
}

// TestStepCacheStreamDifferential: the streamed output is bit-identical with
// the step cache on and off for every lookahead regime, on mixed-latency and
// restricted workloads including duplicate-heavy traces.
func TestStepCacheStreamDifferential(t *testing.T) {
	ks := []int{0, 1, 4, LookaheadUnbounded}
	configs := map[string]workload.TraceConfig{
		"mixed":      workload.DefaultTrace(),
		"restricted": restrictedTrace(),
	}
	var totalHits uint64
	for name, cfg := range configs {
		for _, k := range ks {
			for seed := int64(1); seed <= 6; seed++ {
				g, err := workload.Trace(rand.New(rand.NewSource(seed)), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if seed%2 == 0 {
					g = repeatTrace(g, 4)
				}
				m := SingleUnit(4)
				tag := fmt.Sprintf("%s k=%d seed=%d", name, k, seed)

				blocks, _, err := TraceStreamBlocks(g)
				if err != nil {
					t.Fatal(err)
				}
				run := func(opt StreamOptions) ([]*BlockResult, *StreamScheduler) {
					ss := NewStreamScheduler(m, opt)
					var all []*BlockResult
					for i, b := range blocks {
						res, err := ss.Push(b)
						if err != nil {
							t.Fatalf("%s push %d: %v", tag, i, err)
						}
						all = append(all, res...)
					}
					tail, err := ss.Flush()
					if err != nil {
						t.Fatalf("%s flush: %v", tag, err)
					}
					return append(all, tail...), ss
				}
				want, _ := run(StreamOptions{Lookahead: k, StepCacheCapacity: -1})
				got, ss := run(StreamOptions{Lookahead: k})
				sameBlockResults(t, tag, got, want)
				totalHits += ss.StepCacheCounters().Hits
			}
		}
	}
	if totalHits == 0 {
		t.Fatal("no step-cache hits across the stream sweep")
	}
}

// TestStepCacheHitAllocBudget pins the hit path's allocation cost: in steady
// state on a repetitive stream, a push that replays a cached fragment stays
// within a small constant allocation budget — far below the uncached merge
// path — and the measured window really is hitting the cache.
func TestStepCacheHitAllocBudget(t *testing.T) {
	testutil.SkipIfAllocSensitive(t)
	g, err := workload.Trace(rand.New(rand.NewSource(11)), workload.DefaultTrace())
	if err != nil {
		t.Fatal(err)
	}
	blocks, _, err := TraceStreamBlocks(g)
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 12
	var long []StreamBlock
	for c := 0; c < cycles; c++ {
		off := NodeID(c * g.Len())
		for _, b := range blocks {
			nb := StreamBlock{Nodes: b.Nodes, Deps: make([]StreamDep, len(b.Deps))}
			for i, d := range b.Deps {
				nb.Deps[i] = StreamDep{Src: d.Src + off, Dst: d.Dst + off, Latency: d.Latency}
			}
			long = append(long, nb)
		}
	}
	ss := NewStreamScheduler(SingleUnit(4), StreamOptions{Lookahead: 1})
	warm := 2 * len(blocks)
	for _, b := range long[:warm] {
		if _, err := ss.Push(b); err != nil {
			t.Fatal(err)
		}
	}
	before := ss.StepCacheCounters()
	const budget = 25
	i := warm
	allocs := testing.AllocsPerRun(40, func() {
		if _, err := ss.Push(long[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	after := ss.StepCacheCounters()
	if after.Hits == before.Hits {
		t.Fatalf("measured window never hit the step cache (hits=%d misses=%d)", after.Hits, after.Misses)
	}
	if allocs > budget {
		t.Fatalf("step-cache hit push: %.0f allocs/op, budget %d", allocs, budget)
	}
	t.Logf("step-cache hit push: %.0f allocs/op (budget %d); hits %d→%d",
		allocs, budget, before.Hits, after.Hits)
}

// FuzzStepCache: for arbitrary decoded multi-block restricted instances, the
// streamed schedule is bit-identical with the step cache on and off at every
// lookahead, and at LookaheadUnbounded bit-identical to batch ScheduleTrace
// (per-block orders, starts and units). Bytes beyond the instance choose k.
func FuzzStepCache(f *testing.F) {
	f.Add([]byte{0, 5, 0, 1, 0, 1, 0, 0x80, 2, 1, 3}, byte(0))
	f.Add([]byte{3, 9, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 5, 0x82, 7}, byte(1))
	f.Add([]byte{1, 7, 0, 0, 1, 0, 1, 1, 0, 2, 4, 0x81, 6}, byte(2))
	f.Fuzz(func(t *testing.T, data []byte, kb byte) {
		g, m := decodeInstance(data, true)
		if g == nil {
			return
		}
		k := int(kb) % 3
		if k == 2 {
			k = LookaheadUnbounded
		}
		blocks, nums, err := TraceStreamBlocks(g)
		if err != nil {
			return // decoded instance not streamable (never the case, but safe)
		}
		run := func(opt StreamOptions) []*BlockResult {
			ss := NewStreamScheduler(m, opt)
			var all []*BlockResult
			for i, b := range blocks {
				res, err := ss.Push(b)
				if err != nil {
					t.Fatalf("push %d: %v", i, err)
				}
				all = append(all, res...)
			}
			tail, err := ss.Flush()
			if err != nil {
				t.Fatalf("flush: %v", err)
			}
			return append(all, tail...)
		}
		want := run(StreamOptions{Lookahead: k, StepCacheCapacity: -1})
		got := run(StreamOptions{Lookahead: k})
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d results vs %d", k, len(got), len(want))
		}
		for i, w := range want {
			r := got[i]
			if r.Block != w.Block || r.Lag != w.Lag || r.Degraded != w.Degraded ||
				fmt.Sprint(r.Order) != fmt.Sprint(w.Order) ||
				fmt.Sprint(r.Start) != fmt.Sprint(w.Start) ||
				fmt.Sprint(r.Unit) != fmt.Sprint(w.Unit) {
				t.Fatalf("k=%d result %d: cached %+v, uncached %+v", k, i, r, w)
			}
		}
		if k != LookaheadUnbounded {
			return
		}
		batch, err := ScheduleTrace(g, m)
		if err != nil {
			t.Fatalf("ScheduleTrace: %v", err)
		}
		if len(got) != len(nums) {
			t.Fatalf("%d block results for %d blocks", len(got), len(nums))
		}
		for _, r := range got {
			want := batch.BlockOrders[nums[r.Block]]
			if fmt.Sprint(r.Order) != fmt.Sprint(want) {
				t.Fatalf("block %d: streamed order %v, batch %v", r.Block, r.Order, want)
			}
			for j, id := range want {
				if r.Start[j] != batch.S.Start[id] || r.Unit[j] != batch.S.Unit[id] {
					t.Fatalf("block %d node %d: streamed (%d,%d), batch (%d,%d)", r.Block, id,
						r.Start[j], r.Unit[j], batch.S.Start[id], batch.S.Unit[id])
				}
			}
		}
	})
}
