package aisched

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"aisched/internal/faultinject"
	"aisched/internal/workload"
)

// relabel rebuilds g node-for-node (same IDs, attributes, and edges) with
// different labels and a shuffled edge insertion order — the front-end
// rebuilding the same block down a different path. Must hit the cache.
func relabel(g *Graph, r *rand.Rand) *Graph {
	h := NewGraph(g.Len() + 3)
	for v := 0; v < g.Len(); v++ {
		nd := g.Node(NodeID(v))
		h.AddNode(fmt.Sprintf("relabelled-%d", v), nd.Exec, nd.Class, nd.Block)
	}
	var es []Edge
	for v := 0; v < g.Len(); v++ {
		es = append(es, g.Out(NodeID(v))...)
	}
	for _, i := range r.Perm(len(es)) {
		h.MustEdge(es[i].Src, es[i].Dst, es[i].Latency, es[i].Distance)
	}
	return h
}

func sameSchedule(t *testing.T, what string, a, b *Schedule) {
	t.Helper()
	if !reflect.DeepEqual(a.Start, b.Start) || !reflect.DeepEqual(a.Unit, b.Unit) {
		t.Fatalf("%s: schedules differ\n%v\n%v", what, a, b)
	}
}

func sameTraceResult(t *testing.T, what string, a, b *TraceResult) {
	t.Helper()
	if !reflect.DeepEqual(a.Order, b.Order) || !reflect.DeepEqual(a.BlockOrders, b.BlockOrders) {
		t.Fatalf("%s: orders differ", what)
	}
	sameSchedule(t, what, a.S, b.S)
}

func sameSteady(t *testing.T, what string, a, b *LoopSteady) {
	t.Helper()
	if !reflect.DeepEqual(a.Order, b.Order) || a.Makespan != b.Makespan || a.II != b.II {
		t.Fatalf("%s: steady states differ: %+v vs %+v", what, a, b)
	}
	sameSchedule(t, what, a.S, b.S)
}

// TestSchedulerDifferentialBitIdentical: for every kind, the Scheduler's
// results — cold, warm (a cache hit for blocks and loops, a step-cache
// replay for traces), and from a relabelled rebuild of the same graph — are
// bit-identical to the direct uncached package calls, and every returned
// schedule is rebound to the caller's own graph and machine pointers.
func TestSchedulerDifferentialBitIdentical(t *testing.T) {
	m := SingleUnit(4)
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		tg, err := workload.Trace(r, workload.DefaultTrace())
		if err != nil {
			t.Fatal(err)
		}
		lg, err := workload.Loop(r, workload.DefaultLoop())
		if err != nil {
			t.Fatal(err)
		}
		sc := NewScheduler(SchedulerOptions{})

		// Trace kind.
		direct, err := ScheduleTrace(tg, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []struct {
			name string
			g    *Graph
		}{{"cold", tg}, {"warm", tg}, {"relabelled", relabel(tg, r)}} {
			g := pass.g
			got, err := sc.ScheduleTrace(g, m)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, pass.name, err)
			}
			sameTraceResult(t, fmt.Sprintf("seed %d trace/%s", seed, pass.name), direct, got)
			if got.S.G != g || got.S.M != m {
				t.Fatalf("seed %d trace/%s: result not rebound to caller's graph/machine", seed, pass.name)
			}
		}

		// Block kind (the whole trace graph as one scheduling unit).
		dblock, err := ScheduleBlock(tg, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []string{"cold", "warm"} {
			got, err := sc.ScheduleBlock(tg, m)
			if err != nil {
				t.Fatal(err)
			}
			sameSchedule(t, fmt.Sprintf("seed %d block/%s", seed, pass), dblock, got)
			if got.G != tg || got.M != m {
				t.Fatalf("seed %d block/%s: result not rebound", seed, pass)
			}
		}

		// Loop kind.
		dloop, err := ScheduleLoop(lg, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []string{"cold", "warm"} {
			got, err := sc.ScheduleLoop(lg, m)
			if err != nil {
				t.Fatal(err)
			}
			sameSteady(t, fmt.Sprintf("seed %d loop/%s", seed, pass), dloop, got)
			if got.S.G != lg || got.S.M != m {
				t.Fatalf("seed %d loop/%s: result not rebound", seed, pass)
			}
		}

		// Exactly one block and one loop computation, each warm pass a hit;
		// traces never touch the schedule cache.
		if got := sc.CacheCounters(); got.BlockMisses != 1 || got.BlockHits != 1 ||
			got.LoopMisses != 1 || got.LoopHits != 1 || got.Misses != 2 || got.Hits != 2 {
			t.Fatalf("seed %d: counters %+v, want one block and one loop miss and hit each", seed, got)
		}
	}
}

// TestSchedulerResultsAreIndependentClones: mutating a returned schedule
// must not corrupt the schedule cache or the step cache.
func TestSchedulerResultsAreIndependentClones(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g, err := workload.Trace(r, workload.DefaultTrace())
	if err != nil {
		t.Fatal(err)
	}
	m := SingleUnit(4)
	sc := NewScheduler(SchedulerOptions{})
	first, err := sc.ScheduleTrace(g, m)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int(nil), first.S.Start...)
	first.S.Start[0] = -99
	first.Order[0] = NodeID(-99)
	second, err := sc.ScheduleTrace(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second.S.Start, want) {
		t.Fatal("mutating a returned trace result leaked into the step cache")
	}
	b1, err := sc.ScheduleBlock(g, m)
	if err != nil {
		t.Fatal(err)
	}
	want = append([]int(nil), b1.Start...)
	b1.Start[0] = -99
	b2, err := sc.ScheduleBlock(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b2.Start, want) {
		t.Fatal("mutating a returned block schedule leaked into the cache")
	}
}

func TestSchedulerCacheDisabled(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g, err := workload.Trace(r, workload.DefaultTrace())
	if err != nil {
		t.Fatal(err)
	}
	m := SingleUnit(4)
	sc := NewScheduler(SchedulerOptions{CacheCapacity: -1})
	direct, err := ScheduleTrace(g, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sc.ScheduleTrace(g, m)
	if err != nil {
		t.Fatal(err)
	}
	sameTraceResult(t, "uncached scheduler", direct, got)
	if c := sc.CacheCounters(); c != (CacheCounters{}) {
		t.Fatalf("disabled cache reported activity: %+v", c)
	}
}

func TestSchedulerErrorNotCached(t *testing.T) {
	g := NewGraph(2)
	a := g.AddUnit("a")
	b := g.AddUnit("b")
	g.MustEdge(a, b, 0, 0)
	g.MustEdge(b, a, 0, 0) // loop-independent cycle: every scheduler rejects
	m := SingleUnit(4)
	sc := NewScheduler(SchedulerOptions{})
	for i := 0; i < 2; i++ {
		if _, err := sc.ScheduleBlock(g, m); err == nil {
			t.Fatal("cyclic graph scheduled without error")
		}
	}
	if got := sc.CacheCounters(); got.BlockMisses != 2 || got.BlockHits != 0 || got.Misses != 2 || got.Hits != 0 {
		t.Fatalf("errors must not be cached: %+v", got)
	}
}

// TestScheduleBatchMatchesSerial: a mixed batch with duplicates returns, in
// input order, exactly what serial uncached calls return — and duplicates
// are computed once.
func TestScheduleBatchMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	m := SingleUnit(4)
	mw := RS6000(6)
	var items []BatchItem
	for i := 0; i < 6; i++ {
		tg, err := workload.Trace(r, workload.DefaultTrace())
		if err != nil {
			t.Fatal(err)
		}
		lg, err := workload.Loop(r, workload.DefaultLoop())
		if err != nil {
			t.Fatal(err)
		}
		items = append(items,
			BatchItem{G: tg, M: m, Kind: BatchTrace},
			BatchItem{G: tg, M: mw, Kind: BatchTrace}, // same graph, other machine
			BatchItem{G: tg, M: m, Kind: BatchBlock},
			BatchItem{G: lg, M: m, Kind: BatchLoop},
			BatchItem{G: relabel(tg, r), M: m, Kind: BatchTrace}, // duplicate via fingerprint
		)
	}
	got := ScheduleBatch(items)
	if len(got) != len(items) {
		t.Fatalf("got %d results for %d items", len(got), len(items))
	}
	for i, it := range items {
		if got[i].Err != nil {
			t.Fatalf("item %d: %v", i, got[i].Err)
		}
		switch it.Kind {
		case BatchTrace:
			want, err := ScheduleTrace(it.G, it.M)
			if err != nil {
				t.Fatal(err)
			}
			sameTraceResult(t, fmt.Sprintf("item %d", i), want, got[i].Trace)
		case BatchBlock:
			want, err := ScheduleBlock(it.G, it.M)
			if err != nil {
				t.Fatal(err)
			}
			sameSchedule(t, fmt.Sprintf("item %d", i), want, got[i].Block)
		case BatchLoop:
			want, err := ScheduleLoop(it.G, it.M)
			if err != nil {
				t.Fatal(err)
			}
			sameSteady(t, fmt.Sprintf("item %d", i), want, got[i].Loop)
		}
	}
}

// TestScheduleBatchConcurrencyAndCoalescing hammers one Scheduler with a
// duplicate-heavy batch of trace and block items (run under -race by make
// check) and checks the bookkeeping: the traces are scheduled exactly once
// per distinct instance and every other copy is deduplicated; every block
// request is a hit, miss, or coalesce, and block misses equal the number of
// distinct instances.
func TestScheduleBatchConcurrencyAndCoalescing(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	m := SingleUnit(4)
	const distinct, copies = 5, 24
	var graphs []*Graph
	for i := 0; i < distinct; i++ {
		g, err := workload.Trace(r, workload.DefaultTrace())
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	var items []BatchItem
	for c := 0; c < copies; c++ {
		for _, g := range graphs {
			items = append(items, BatchItem{G: relabel(g, r), M: m, Kind: BatchTrace})
		}
		for _, g := range graphs {
			items = append(items, BatchItem{G: relabel(g, r), M: m, Kind: BatchBlock})
		}
	}
	sc := NewScheduler(SchedulerOptions{})
	res := sc.ScheduleBatch(items)
	for i, g := range graphs {
		want, err := ScheduleTrace(g, m)
		if err != nil {
			t.Fatal(err)
		}
		wantBlock, err := ScheduleBlock(g, m)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < copies; c++ {
			br := res[2*c*distinct+i]
			if br.Err != nil {
				t.Fatal(br.Err)
			}
			sameTraceResult(t, fmt.Sprintf("copy %d of graph %d", c, i), want, br.Trace)
			bb := res[(2*c+1)*distinct+i]
			if bb.Err != nil {
				t.Fatal(bb.Err)
			}
			sameSchedule(t, fmt.Sprintf("block copy %d of graph %d", c, i), wantBlock, bb.Block)
		}
	}
	got := sc.CacheCounters()
	if got.TraceDeduped != distinct*(copies-1) {
		t.Fatalf("deduplicated %d trace items, want %d: %d computations for %d distinct traces (%+v)",
			got.TraceDeduped, distinct*(copies-1), distinct*copies-int(got.TraceDeduped), distinct, got)
	}
	if got.BlockMisses != distinct || got.Misses != distinct {
		t.Fatalf("block misses = %d, want %d (%+v)", got.BlockMisses, distinct, got)
	}
	if got.BlockHits+got.BlockMisses+got.BlockCoalesced != distinct*copies ||
		got.Hits+got.Misses+got.Coalesced != distinct*copies {
		t.Fatalf("block requests unaccounted for: %+v over %d block items", got, distinct*copies)
	}
}

// TestScheduleProgram: the program pipeline matches scheduling each selected
// trace serially, and block bookkeeping maps graph blocks to CFG blocks.
func TestScheduleProgram(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	src := workload.RandomProgram(r, 8)
	c, err := CompileC(src)
	if err != nil {
		t.Fatal(err)
	}
	m := SingleUnit(4)
	ps, err := ScheduleProgram(c, m)
	if err != nil {
		t.Fatal(err)
	}

	cg, err := BuildCFG(c)
	if err != nil {
		t.Fatal(err)
	}
	traces := cg.SelectTraces()
	if len(ps.Traces) != len(traces) {
		t.Fatalf("scheduled %d traces, CFG selected %d", len(ps.Traces), len(traces))
	}
	for i, tr := range traces {
		want, err := ScheduleTrace(BuildTraceGraph(cg.TraceInstrs(tr)), m)
		if err != nil {
			t.Fatal(err)
		}
		sameTraceResult(t, fmt.Sprintf("trace %d", i), want, ps.Traces[i].Res)
		// Blocks records exactly the non-empty CFG blocks, in trace order,
		// and the graph's block indices address into it.
		var nonEmpty []int
		for _, bi := range tr {
			if len(cg.Blocks[bi].Instrs) > 0 {
				nonEmpty = append(nonEmpty, bi)
			}
		}
		if !reflect.DeepEqual(ps.Traces[i].Blocks, nonEmpty) {
			t.Fatalf("trace %d: Blocks = %v, want %v", i, ps.Traces[i].Blocks, nonEmpty)
		}
		for v := 0; v < ps.Traces[i].G.Len(); v++ {
			if b := ps.Traces[i].G.Node(NodeID(v)).Block; b < 0 || b >= len(nonEmpty) {
				t.Fatalf("trace %d node %d: block %d out of range", i, v, b)
			}
		}
	}
}

func TestScheduleBatchEmptyAndErrors(t *testing.T) {
	if got := ScheduleBatch(nil); len(got) != 0 {
		t.Fatalf("nil batch returned %d results", len(got))
	}
	res := ScheduleBatch([]BatchItem{{G: nil, M: SingleUnit(4), Kind: BatchTrace}})
	if res[0].Err == nil {
		t.Fatal("nil graph item must error, not panic")
	}
	g := NewGraph(1)
	g.AddUnit("a")
	res = ScheduleBatch([]BatchItem{{G: g, M: SingleUnit(4), Kind: BatchKind(99)}})
	if res[0].Err == nil {
		t.Fatal("unknown kind must error")
	}
}

// TestScheduleBatchDedupTraces: duplicate trace items in one batch — the
// same graph, relabelled rebuilds, an equivalent renamed machine — are
// scheduled once, and every copy is bit-identical to the package-level
// call, rebound to its own graph and machine, and independently mutable. A
// degraded leader is never shared: its duplicates schedule themselves.
func TestScheduleBatchDedupTraces(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	m := SingleUnit(4)
	renamed := &Machine{Name: "renamed", Units: m.Units, Window: m.Window}
	other := SingleUnit(3) // another window: a different instance
	var items []BatchItem
	for i := 0; i < 3; i++ {
		g, err := workload.Trace(r, workload.DefaultTrace())
		if err != nil {
			t.Fatal(err)
		}
		items = append(items,
			BatchItem{G: g, M: m, Kind: BatchTrace},
			BatchItem{G: g, M: m, Kind: BatchTrace},
			BatchItem{G: relabel(g, r), M: renamed, Kind: BatchTrace},
			BatchItem{G: relabel(g, r), M: other, Kind: BatchTrace},
			BatchItem{G: g, M: m, Kind: BatchBlock},
		)
	}
	sc := NewScheduler(SchedulerOptions{})
	res := sc.ScheduleBatch(items)
	check := func(what string) {
		t.Helper()
		for i, it := range items {
			if it.Kind != BatchTrace {
				continue
			}
			want, err := ScheduleTrace(it.G, it.M)
			if err != nil {
				t.Fatal(err)
			}
			got := res[i].Trace
			if res[i].Err != nil || got == nil {
				t.Fatalf("%s: item %d: %v", what, i, res[i].Err)
			}
			sameTraceResult(t, fmt.Sprintf("%s: item %d", what, i), want, got)
			if got.S.G != it.G || got.S.M != it.M {
				t.Fatalf("%s: item %d not rebound to its own graph and machine", what, i)
			}
		}
	}
	check("fresh")
	// Two duplicates per graph: the second copy of g and its rebuild on the
	// renamed machine. The other-window rebuild is its own instance.
	if got := sc.CacheCounters().TraceDeduped; got != 6 {
		t.Fatalf("TraceDeduped = %d, want 6", got)
	}
	// Scribble over every leader's result: no copy may share its storage.
	for i := 0; i < len(items); i += 5 {
		tr := res[i].Trace
		for k := range tr.S.Start {
			tr.S.Start[k] = -1
		}
		tr.Order[0] = NodeID(-1)
		for _, o := range tr.BlockOrders {
			o[0] = NodeID(-1)
		}
		fresh, err := ScheduleTrace(items[i].G, items[i].M)
		if err != nil {
			t.Fatal(err)
		}
		res[i].Trace = fresh
	}
	check("after mutating the leaders")

	// Degraded leader: exhaust the budget at the first checkpoint only, so
	// the leader (the one worker picks it up first) degrades and its
	// duplicates, which schedule themselves, come back in full.
	defer faultinject.Reset()
	var fired atomic.Bool
	faultinject.BudgetExhaust = func() bool { return fired.CompareAndSwap(false, true) }
	g := items[0].G
	dups := []BatchItem{{G: g, M: m}, {G: g, M: m}, {G: relabel(g, r), M: m}}
	sc = NewScheduler(SchedulerOptions{Workers: 1})
	res = sc.ScheduleBatch(dups)
	faultinject.Reset()
	if res[0].Err != nil || res[0].Degraded() == "" {
		t.Fatalf("leader: err=%v degraded=%q, want a degraded result", res[0].Err, res[0].Degraded())
	}
	want, err := ScheduleTrace(g, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(dups); i++ {
		if res[i].Err != nil || res[i].Degraded() != "" {
			t.Fatalf("duplicate %d: err=%v degraded=%q, want its own full result", i, res[i].Err, res[i].Degraded())
		}
		sameTraceResult(t, fmt.Sprintf("duplicate %d of a degraded leader", i), want, res[i].Trace)
		if res[i].Trace.S.G != dups[i].G {
			t.Fatalf("duplicate %d not rebound", i)
		}
	}
	if got := sc.CacheCounters().TraceDeduped; got != 0 {
		t.Fatalf("TraceDeduped = %d after a degraded leader, want 0", got)
	}
}
