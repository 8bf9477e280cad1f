package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"aisched"
	"aisched/internal/core"
	"aisched/internal/graph"
	"aisched/internal/hw"
	"aisched/internal/idle"
	"aisched/internal/rank"
	"aisched/internal/sched"
)

// workloadSpec registers one workload.
type workloadSpec struct {
	make func(seed int64) runner
	// prefixOps is the fixed number of ops every end-to-end run completes,
	// however fast the code is. cycles_per_block and heap_peak_mb are taken
	// over exactly these ops, so they do not move with throughput.
	prefixOps int
	op        string // what one op is, for the run metadata
}

var workloadSpecs = map[string]workloadSpec{
	"trace-long": {make: newTraceLong, prefixOps: 400,
		op: "Scheduler.ScheduleTrace on one 128-block LongTrace, SingleUnit(4)"},
	"program": {make: newProgram, prefixOps: 800,
		op: "CompileC + Scheduler.ScheduleProgram + ScheduleLoop per single-block loop, RS6000(4)"},
	"stream-dup": {make: newStreamDup, prefixOps: 100 * chunkBlocks,
		op: "StreamScheduler.Push at Lookahead 2, SingleUnit(4); Flush every 64 pushes"},
}

func workloadNames() []string {
	var names []string
	for n := range workloadSpecs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// warmSeed seeds every run's warm-up inputs: set-up does the same work
// whatever the run's seed, so its time does not move with the seed.
const warmSeed = 0

// Seed streams: each workload draws the inputs of op i, its warm-up inputs
// and its check samples from disjoint streams of one seed.
const (
	streamOps = iota + 1
	streamWarm
	streamSample
	streamLibrary
)

// rng returns the generator of item i of stream s under seed: a splitmix64
// mix, so neighbouring seeds and indices give unrelated inputs.
func rng(seed int64, s, i int) *rand.Rand {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(s)<<40 + uint64(i)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z >> 1)))
}

// sampled reports whether op i is in the seeded sample of one op in every
// `every` that gets the costlier checks.
func sampled(seed int64, i, every int) bool {
	return rng(seed, streamSample, i).Intn(every) == 0
}

// checkTrace is the output check of one trace schedule s with emitted
// static order. It fails the op unless the result is full (not degraded),
// the predicted schedule is dependence- and resource-valid
// (Schedule.Validate), the static order is emittable code, and the window
// simulator runs it. It returns the simulated completion.
//
// It also compares the simulated completion with the predicted makespan
// and, when full is set, runs the rest of sched.CheckLegal at the machine's
// window: the Definition 2.3 Window and Ordering Constraints, quadratic in
// the trace length. Those three are counted in r.legal, not as failures:
// the predicted schedules of mixed-latency and multi-unit traces break them
// at the commit that introduced this benchmark (README.md, "Output
// checks"), and the repository's own contract for predictions is Validate,
// with the simulator as the arbiter of dynamic behaviour.
func (r *round) checkTrace(g *graph.Graph, m *aisched.Machine, s *sched.Schedule, order []graph.NodeID, full bool) (int, error) {
	if s.Degraded != "" {
		return 0, fmt.Errorf("degraded result: %s", s.Degraded)
	}
	if err := checkEmittable(g, order); err != nil {
		return 0, err
	}
	if full {
		sp := r.tr.begin("sched.checklegal")
		err := s.Validate()
		win := sched.CheckWindowConstraint(s, m.Window) != nil
		ord := sched.CheckOrderingConstraint(s) != nil
		r.tr.end(sp)
		if err != nil {
			return 0, err
		}
		r.legal.addConstraints(win, ord)
	} else if err := s.Validate(); err != nil {
		return 0, err
	}
	sp := r.tr.begin("hw.simulate")
	sim, err := hw.SimulateTrace(g, m, order)
	r.tr.end(sp)
	if err != nil {
		return 0, err
	}
	r.legal.schedules++
	if sim.Completion > s.Makespan() {
		r.legal.overrun++
	}
	return sim.Completion, nil
}

// checkEmittable checks that order is code a compiler can emit for g
// (Definition 2.1): a permutation of g's nodes, block-contiguous in
// ascending block order, with every intra-block dependence pointing forward.
func checkEmittable(g *graph.Graph, order []graph.NodeID) error {
	n := g.Len()
	if len(order) != n {
		return fmt.Errorf("static order has %d of %d instructions", len(order), n)
	}
	pos := make([]int, n)
	seen := make([]bool, n)
	last := -1 << 30
	for i, v := range order {
		if int(v) < 0 || int(v) >= n || seen[v] {
			return fmt.Errorf("static order is not a permutation")
		}
		seen[v] = true
		pos[v] = i
		b := g.Node(v).Block
		if b < last {
			return fmt.Errorf("static order is not block-contiguous")
		}
		last = b
	}
	for v := 0; v < n; v++ {
		for _, e := range g.Out(graph.NodeID(v)) {
			if e.Distance == 0 && g.Node(e.Src).Block == g.Node(e.Dst).Block && pos[e.Src] > pos[e.Dst] {
				return fmt.Errorf("static order places %d before its predecessor %d", e.Dst, e.Src)
			}
		}
	}
	return nil
}

// legalTally counts the checked schedules that the simulator completes
// later than predicted, and, among those run through the full
// sched.CheckLegal, the ones that break the Window or Ordering Constraint.
type legalTally struct {
	schedules, overrun       int64
	constrained, window, ord int64
}

func (t *legalTally) addConstraints(window, ordering bool) {
	t.constrained++
	if window {
		t.window++
	}
	if ordering {
		t.ord++
	}
}

func (t *legalTally) merge(o legalTally) {
	t.schedules += o.schedules
	t.overrun += o.overrun
	t.constrained += o.constrained
	t.window += o.window
	t.ord += o.ord
}

// fracs reports the three shares by metric name.
func (t *legalTally) fracs() map[string]float64 {
	return map[string]float64{
		"sched.window_violation_frac":   div(float64(t.window), float64(t.constrained)),
		"sched.ordering_violation_frac": div(float64(t.ord), float64(t.constrained)),
		"hw.overrun_frac":               div(float64(t.overrun), float64(t.schedules)),
	}
}

// sameResult compares two trace results bit for bit: predicted order,
// per-block static orders, start cycles and units.
func sameResult(got, want *core.Result) error {
	if !slices.Equal(got.Order, want.Order) {
		return fmt.Errorf("predicted order differs from the sequential walk")
	}
	if len(got.BlockOrders) != len(want.BlockOrders) {
		return fmt.Errorf("%d block orders, sequential walk has %d", len(got.BlockOrders), len(want.BlockOrders))
	}
	for b, o := range want.BlockOrders {
		if !slices.Equal(got.BlockOrders[b], o) {
			return fmt.Errorf("block %d order differs from the sequential walk", b)
		}
	}
	if !slices.Equal(got.S.Start, want.S.Start) || !slices.Equal(got.S.Unit, want.S.Unit) {
		return fmt.Errorf("placement differs from the sequential walk")
	}
	return nil
}

// layerTally accumulates the per-layer sizes the probes see.
type layerTally struct {
	blocks, rankNodes, idleSlots int64 // over probed traces
	walkBlocks                   int64
}

// probeTrace times the layers under Algorithm Lookahead on one trace, each
// called directly so its cost is visible on its own:
//
//   - memo.fingerprint: graph.Fingerprint, the schedule cache's key;
//   - rank.block and idle.delay: rank.NewCtx + Ctx.Run, then
//     idle.DelayIdleSlotsCtx, on each block's induced subgraph;
//   - core.walk: core.LookaheadOpts with the parallel path off and no step
//     cache — the plain sequential walk.
//
// emitted is the schedule the facade returned; its idle slots are counted.
func probeTrace(tr *spanLog, t *layerTally, g *graph.Graph, m *aisched.Machine, emitted *sched.Schedule) error {
	sp := tr.begin("memo.fingerprint")
	g.Fingerprint(m.Units, m.Window)
	tr.end(sp)

	byBlock := map[int]map[graph.NodeID]bool{}
	for v := 0; v < g.Len(); v++ {
		b := g.Node(graph.NodeID(v)).Block
		if byBlock[b] == nil {
			byBlock[b] = map[graph.NodeID]bool{}
		}
		byBlock[b][graph.NodeID(v)] = true
	}
	for _, keep := range byBlock {
		sub, _ := g.Induced(keep)
		sp = tr.begin("rank.block")
		rc, err := rank.NewCtx(sub, m)
		var rr *rank.Result
		if err == nil {
			rr, err = rc.Run(rank.UniformDeadlines(sub.Len(), rank.Big), nil)
		}
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("rank probe: %w", err)
		}
		sp = tr.begin("idle.delay")
		_, _, err = idle.DelayIdleSlotsCtx(rc, rr.S, rank.UniformDeadlines(sub.Len(), rr.S.Makespan()), nil, nil)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("idle probe: %w", err)
		}
		t.rankNodes += int64(sub.Len())
	}
	t.blocks += int64(len(byBlock))
	t.idleSlots += int64(len(emitted.IdleSlots()))

	sp = tr.begin("core.walk")
	_, err := core.LookaheadOpts(g, m, core.Options{Parallel: -1})
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("walk probe: %w", err)
	}
	t.walkBlocks += int64(len(byBlock))
	return nil
}
