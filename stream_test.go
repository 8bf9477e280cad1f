package aisched

// Streaming scheduler properties:
//
//   - k = LookaheadUnbounded is bit-identical to batch ScheduleTrace: same
//     per-block static orders, same absolute starts and units, same
//     makespan (the engine is the batch driver with the already-committed
//     prefix physically discarded).
//   - Every finite k yields a legal schedule (dependences, unit exclusivity,
//     block-grouped orders) whose emit lag never exceeds k.
//   - Cancelling at any push poisons the stream but never tears the emitted
//     prefix; budget exhaustion degrades the live window and keeps going.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"aisched/internal/faultinject"
	"aisched/internal/machine"
	"aisched/internal/sched"
	"aisched/internal/workload"

	"aisched/internal/testutil"
)

// streamAll pushes every block of g through a fresh StreamScheduler and
// flushes, returning the results in emission order.
func streamAll(t *testing.T, g *Graph, m *Machine, opt StreamOptions) []*BlockResult {
	t.Helper()
	blocks, _, err := TraceStreamBlocks(g)
	if err != nil {
		t.Fatalf("TraceStreamBlocks: %v", err)
	}
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

// streamSchedule reassembles the emitted BlockResults into a full Schedule
// over g and validates it (dependence latencies, unit ranges, exclusivity).
func streamSchedule(t *testing.T, g *Graph, m *Machine, results []*BlockResult) *Schedule {
	t.Helper()
	n := g.Len()
	s := &sched.Schedule{G: g, M: m, Start: make([]int, n), Unit: make([]int, n)}
	for i := range s.Start {
		s.Start[i] = sched.Unassigned
	}
	seen := 0
	for _, r := range results {
		for i, id := range r.Order {
			if s.Start[id] != sched.Unassigned {
				t.Fatalf("node %d emitted twice", id)
			}
			s.Start[id] = r.Start[i]
			s.Unit[id] = r.Unit[i]
			seen++
		}
	}
	if seen != n {
		t.Fatalf("stream emitted %d of %d nodes", seen, n)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("streamed schedule invalid: %v", err)
	}
	return s
}

// TestStreamUnboundedBitIdenticalToBatch: with the chop rule as the only
// finality source, streaming must reproduce the batch result exactly —
// orders, absolute starts, units, and makespan — across random mixed-latency
// and restricted-model traces.
func TestStreamUnboundedBitIdenticalToBatch(t *testing.T) {
	configs := map[string]workload.TraceConfig{
		"mixed":      workload.DefaultTrace(),
		"restricted": restrictedTrace(),
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 25; seed++ {
				g, err := workload.Trace(rand.New(rand.NewSource(seed)), cfg)
				if err != nil {
					t.Fatal(err)
				}
				m := SingleUnit(4)
				batch, err := ScheduleTrace(g, m)
				if err != nil {
					t.Fatal(err)
				}
				results := streamAll(t, g, m, StreamOptions{Lookahead: LookaheadUnbounded})
				_, nums, err := TraceStreamBlocks(g)
				if err != nil {
					t.Fatal(err)
				}
				if len(results) != len(nums) {
					t.Fatalf("seed %d: %d block results, want %d", seed, len(results), len(nums))
				}
				for i, r := range results {
					if r.Block != i {
						t.Fatalf("seed %d: results out of order: got block %d at %d", seed, r.Block, i)
					}
					want := batch.BlockOrders[nums[i]]
					if len(r.Order) != len(want) {
						t.Fatalf("seed %d block %d: %d nodes, want %d", seed, i, len(r.Order), len(want))
					}
					for j := range want {
						if r.Order[j] != want[j] {
							t.Fatalf("seed %d block %d: order[%d] = %d, batch has %d",
								seed, i, j, r.Order[j], want[j])
						}
						if r.Start[j] != batch.S.Start[want[j]] || r.Unit[j] != batch.S.Unit[want[j]] {
							t.Fatalf("seed %d block %d node %d: placement (%d,%d), batch (%d,%d)",
								seed, i, want[j], r.Start[j], r.Unit[j],
								batch.S.Start[want[j]], batch.S.Unit[want[j]])
						}
					}
				}
			}
		})
	}
}

// TestStreamLegalAcrossLookahead: every lookahead — fully online through
// unbounded — must emit a complete, dependence- and resource-legal schedule
// with emit lag bounded by k, on single- and multi-unit machines. Finite k
// has no batch oracle, so every BlockResult (block, order, starts, units,
// lag) is also folded into one digest per (machine, k) and pinned to the
// value the engine produced when the digests were recorded: any change to
// a streamed schedule at any k shows up here.
func TestStreamLegalAcrossLookahead(t *testing.T) {
	machines := map[string]*Machine{
		"single-w4": SingleUnit(4),
		"rs6000":    machine.RS6000(4),
	}
	wantDigest := map[string]uint64{
		"single-w4 k=0":   0xcb7ed410fcf16a91,
		"single-w4 k=1":   0x8e45fce6fe81d211,
		"single-w4 k=2":   0x3e22257693c48c57,
		"single-w4 k=4":   0x695b4fff73ac77ce,
		"single-w4 k=inf": 0x7dda68bee378dfab,
		"rs6000 k=0":      0xcb7ed410fcf16a91,
		"rs6000 k=1":      0xe69af3c88fec8db0,
		"rs6000 k=2":      0x9d7e0db2074463b6,
		"rs6000 k=4":      0x8dc929b8522d0cc5,
		"rs6000 k=inf":    0x8dc929b8522d0cc5,
	}
	for mname, m := range machines {
		for _, k := range []int{0, 1, 2, 4, LookaheadUnbounded} {
			h := fnv.New64a()
			for seed := int64(1); seed <= 10; seed++ {
				g, err := workload.Trace(rand.New(rand.NewSource(seed)), workload.DefaultTrace())
				if err != nil {
					t.Fatal(err)
				}
				results := streamAll(t, g, m, StreamOptions{Lookahead: k})
				streamSchedule(t, g, m, results)
				for _, r := range results {
					fmt.Fprint(h, r.Block, r.Order, r.Start, r.Unit, r.Lag, ";")
				}
				for i, r := range results {
					if r.Block != i {
						t.Fatalf("%s k=%d seed %d: block %d emitted at position %d", mname, k, seed, r.Block, i)
					}
					if k != LookaheadUnbounded && r.Lag > k {
						t.Fatalf("%s k=%d seed %d: block %d lag %d exceeds lookahead", mname, k, seed, r.Block, r.Lag)
					}
					if r.Degraded != "" {
						t.Fatalf("%s k=%d seed %d: unexpected degradation %q", mname, k, seed, r.Degraded)
					}
				}
			}
			tag := fmt.Sprintf("%s k=%d", mname, k)
			if k == LookaheadUnbounded {
				tag = mname + " k=inf"
			}
			if got := h.Sum64(); got != wantDigest[tag] {
				t.Errorf("%s: schedule digest %#x, want %#x", tag, got, wantDigest[tag])
			}
		}
	}
}

// TestStreamFullyOnlineImmediate: with k = 0 every push finalizes its own
// block immediately — the O(block) time-to-first-schedule guarantee.
func TestStreamFullyOnlineImmediate(t *testing.T) {
	g, err := workload.Trace(rand.New(rand.NewSource(3)), workload.DefaultTrace())
	if err != nil {
		t.Fatal(err)
	}
	blocks, _, err := TraceStreamBlocks(g)
	if err != nil {
		t.Fatal(err)
	}
	ss := NewStreamScheduler(SingleUnit(4), StreamOptions{})
	for i, b := range blocks {
		res, err := ss.Push(b)
		if err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		if len(res) != 1 || res[0].Block != i || res[0].Lag != 0 {
			t.Fatalf("push %d: want immediate finalization of block %d, got %+v", i, i, res)
		}
		if ss.SuffixLen() != 0 {
			t.Fatalf("push %d: fully online stream carries %d suffix nodes", i, ss.SuffixLen())
		}
	}
	if tail, err := ss.Flush(); err != nil || len(tail) != 0 {
		t.Fatalf("flush after fully-online stream: %v results, err %v", tail, err)
	}
}

// TestStreamOnResult: the callback sees every finalized block exactly once,
// including blocks finalized by Close.
func TestStreamOnResult(t *testing.T) {
	g, err := workload.Trace(rand.New(rand.NewSource(7)), workload.DefaultTrace())
	if err != nil {
		t.Fatal(err)
	}
	blocks, _, err := TraceStreamBlocks(g)
	if err != nil {
		t.Fatal(err)
	}
	var got []*BlockResult
	ss := NewStreamScheduler(SingleUnit(4), StreamOptions{
		Lookahead: LookaheadUnbounded,
		OnResult:  func(r *BlockResult) { got = append(got, r) },
	})
	for i, b := range blocks {
		if _, err := ss.Push(b); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(blocks) {
		t.Fatalf("OnResult saw %d blocks, want %d", len(got), len(blocks))
	}
	for i, r := range got {
		if r.Block != i {
			t.Fatalf("OnResult order: block %d at position %d", r.Block, i)
		}
	}
	if _, err := ss.Push(blocks[0]); err != ErrStreamClosed {
		t.Fatalf("push after close = %v, want ErrStreamClosed", err)
	}
	if _, err := ss.Flush(); err != ErrStreamClosed {
		t.Fatalf("flush after close = %v, want ErrStreamClosed", err)
	}
}

// TestStreamCancelEveryPush: cancelling at each successive push must poison
// the stream with the context's error while leaving every previously emitted
// block intact — a finalized prefix is never torn.
func TestStreamCancelEveryPush(t *testing.T) {
	g, err := workload.Trace(rand.New(rand.NewSource(5)), workload.DefaultTrace())
	if err != nil {
		t.Fatal(err)
	}
	blocks, _, err := TraceStreamBlocks(g)
	if err != nil {
		t.Fatal(err)
	}
	m := SingleUnit(4)
	for cancelAt := 0; cancelAt < len(blocks); cancelAt++ {
		ss := NewStreamScheduler(m, StreamOptions{Lookahead: 1})
		var emitted []*BlockResult
		var pushErr error
		for i, b := range blocks {
			ctx := context.Background()
			if i == cancelAt {
				c, cancel := context.WithCancel(ctx)
				cancel()
				ctx = c
			}
			res, err := ss.PushCtx(ctx, b)
			if i == cancelAt {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelAt %d: push error %v, want context.Canceled", cancelAt, err)
				}
				pushErr = err
				break
			}
			if err != nil {
				t.Fatalf("cancelAt %d push %d: %v", cancelAt, i, err)
			}
			emitted = append(emitted, res...)
		}
		if _, err := ss.Push(blocks[0]); err != pushErr {
			t.Fatalf("cancelAt %d: poisoned stream returned %v, want %v", cancelAt, err, pushErr)
		}
		if _, err := ss.Flush(); err != pushErr {
			t.Fatalf("cancelAt %d: flush on poisoned stream returned %v, want %v", cancelAt, err, pushErr)
		}
		// The emitted prefix must be whole blocks, in order, each complete.
		blockLens := make(map[int]int)
		for i, b := range blocks {
			blockLens[i] = len(b.Nodes)
		}
		for i, r := range emitted {
			if r.Block != i {
				t.Fatalf("cancelAt %d: emitted block %d at position %d", cancelAt, r.Block, i)
			}
			if len(r.Order) != blockLens[r.Block] {
				t.Fatalf("cancelAt %d: block %d torn: %d of %d nodes",
					cancelAt, r.Block, len(r.Order), blockLens[r.Block])
			}
		}
	}
}

// TestStreamBudgetDegradeMidStream: exhausting the budget on one mid-stream
// push finalizes the live window with the tagged baseline schedule and keeps
// the stream accepting; the overall output still covers every block and
// stays legal.
func TestStreamBudgetDegradeMidStream(t *testing.T) {
	defer faultinject.Reset()
	exhaust := false
	faultinject.BudgetExhaust = func() bool { return exhaust }

	g, err := workload.Trace(rand.New(rand.NewSource(9)), workload.DefaultTrace())
	if err != nil {
		t.Fatal(err)
	}
	blocks, _, err := TraceStreamBlocks(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) < 4 {
		t.Fatalf("need ≥4 blocks, workload produced %d", len(blocks))
	}
	m := SingleUnit(4)
	ss := NewStreamScheduler(m, StreamOptions{Lookahead: LookaheadUnbounded})
	var all []*BlockResult
	degradeAt := len(blocks) / 2
	for i, b := range blocks {
		exhaust = i == degradeAt
		res, err := ss.Push(b)
		if err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		all = append(all, res...)
		if i == degradeAt {
			// The degraded push finalizes everything live, so all blocks up
			// to and including this one must now be out, tagged.
			if len(all) != i+1 {
				t.Fatalf("degraded push %d: %d blocks emitted, want %d", i, len(all), i+1)
			}
			if all[len(all)-1].Degraded == "" {
				t.Fatalf("degraded push %d: block %d not tagged", i, all[len(all)-1].Block)
			}
		}
	}
	exhaust = false
	tail, err := ss.Flush()
	if err != nil {
		t.Fatalf("flush: %v", err)
	}
	all = append(all, tail...)
	streamSchedule(t, g, m, all)
	for i, r := range all {
		if r.Block != i {
			t.Fatalf("block %d emitted at position %d", r.Block, i)
		}
		if i > degradeAt && r.Degraded != "" {
			t.Fatalf("post-degrade block %d still tagged %q", i, r.Degraded)
		}
	}
}

// TestStreamContinuesAfterFlush: Flush is a fence, not an end — pushes after
// it start a fresh suffix placed after the flushed schedule.
func TestStreamContinuesAfterFlush(t *testing.T) {
	g, err := workload.Trace(rand.New(rand.NewSource(13)), workload.DefaultTrace())
	if err != nil {
		t.Fatal(err)
	}
	blocks, _, err := TraceStreamBlocks(g)
	if err != nil {
		t.Fatal(err)
	}
	m := SingleUnit(4)
	ss := NewStreamScheduler(m, StreamOptions{Lookahead: LookaheadUnbounded})
	var all []*BlockResult
	for i, b := range blocks {
		if i == len(blocks)/2 {
			mid, err := ss.Flush()
			if err != nil {
				t.Fatalf("mid-stream flush: %v", err)
			}
			all = append(all, mid...)
		}
		res, err := ss.Push(b)
		if err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		all = append(all, res...)
	}
	tail, err := ss.Flush()
	if err != nil {
		t.Fatal(err)
	}
	all = append(all, tail...)
	streamSchedule(t, g, m, all)
}

// TestStreamInputValidation: malformed pushes fail fast with a poisoned
// stream, and TraceStreamBlocks rejects graphs it cannot stream.
func TestStreamInputValidation(t *testing.T) {
	m := SingleUnit(4)

	ss := NewStreamScheduler(m, StreamOptions{})
	if _, err := ss.Push(StreamBlock{}); err == nil {
		t.Fatal("empty block accepted")
	}

	ss = NewStreamScheduler(m, StreamOptions{})
	bad := StreamBlock{
		Nodes: []StreamNode{{Label: "a"}},
		Deps:  []StreamDep{{Src: 0, Dst: 5, Latency: 0}},
	}
	if _, err := ss.Push(bad); err == nil {
		t.Fatal("dep targeting outside the pushed block accepted")
	}

	// Interleaved blocks cannot be streamed.
	g := NewGraph(3)
	g.SetBlock(g.AddUnit("a"), 0)
	g.SetBlock(g.AddUnit("b"), 1)
	g.SetBlock(g.AddUnit("c"), 0)
	if _, _, err := TraceStreamBlocks(g); err == nil {
		t.Fatal("interleaved block numbering accepted")
	}

	// Loop-carried edges cannot be streamed.
	g2 := NewGraph(2)
	a := g2.AddUnit("a")
	b := g2.AddUnit("b")
	g2.SetBlock(b, 1)
	g2.MustEdge(a, b, 0, 0)
	g2.MustEdge(b, a, 1, 1)
	if _, _, err := TraceStreamBlocks(g2); err == nil {
		t.Fatal("loop-carried edge accepted")
	}
}

// TestStreamPushAllocBudget pins the steady-state per-push allocation count
// on the benchsnap workload at its measured value. The engine reuses its
// arena rank context, live store, walk state and CSR scratch across pushes,
// so a push costs a small constant number of allocations — the escaping
// BlockResult plus the merge/delay schedules; one more is a regression.
func TestStreamPushAllocBudget(t *testing.T) {
	testutil.SkipIfAllocSensitive(t)
	g, err := workload.Trace(rand.New(rand.NewSource(11)), workload.DefaultTrace())
	if err != nil {
		t.Fatal(err)
	}
	blocks, _, err := TraceStreamBlocks(g)
	if err != nil {
		t.Fatal(err)
	}
	// One unending stream: the trace repeated with dependence IDs rebased to
	// each cycle's fresh stream IDs, so the push path runs in steady state.
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
	m := SingleUnit(4)
	ss := NewStreamScheduler(m, StreamOptions{Lookahead: 1})
	// Warm: stream the first cycles so every scratch buffer has grown.
	warm := 2 * len(blocks)
	for _, b := range long[:warm] {
		if _, err := ss.Push(b); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 14
	i := warm
	allocs := testing.AllocsPerRun(40, func() {
		if _, err := ss.Push(long[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > budget {
		t.Fatalf("stream push: %.0f allocs/op, budget %d", allocs, budget)
	}
	t.Logf("stream push: %.0f allocs/op (budget %d)", allocs, budget)
}

// TestStreamConcurrentClients drives one shared StreamScheduler from many
// goroutines — pushers feeding disjoint stream-ID ranges interleaved with
// Makespan/SuffixLen readers — so the race detector covers the facade's
// locking (pushes serialize; results never tear). Block content is
// dependence-free across pushers because interleaving makes cross-push
// stream-ID ordering nondeterministic; the test asserts only the invariants
// that survive arbitrary interleaving: no error, every block finalized
// exactly once.
func TestStreamConcurrentClients(t *testing.T) {
	m := SingleUnit(2)
	const (
		pushers   = 4
		perPusher = 16
	)
	var finalized atomic.Int64
	ss := NewStreamScheduler(m, StreamOptions{
		Lookahead: 1,
		OnResult:  func(*BlockResult) { finalized.Add(1) },
	})
	var wg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPusher; i++ {
				blk := StreamBlock{Nodes: []StreamNode{
					{Label: "a", Exec: 1}, {Label: "b", Exec: 2},
				}}
				if _, err := ss.Push(blk); err != nil {
					t.Errorf("pusher %d: %v", p, err)
					return
				}
				_ = ss.Makespan()
				_ = ss.SuffixLen()
			}
		}(p)
	}
	wg.Wait()
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := finalized.Load(), int64(pushers*perPusher); got != want {
		t.Fatalf("finalized %d blocks, want %d", got, want)
	}
}
