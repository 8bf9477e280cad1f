package core

// Speculative parallel trace scheduling: fingerprint-verified segment
// speculation plus a pipelined per-block precompute stage.
//
// Algorithm Lookahead is inherently sequential — block i's merge consumes
// the carried suffix emitted by block i−1 — so single-trace latency scales
// linearly with trace length on one core no matter how fast the per-block
// step gets. This file breaks that chain for long traces without giving up
// bit-identical output:
//
//  1. A parallel precompute stage builds the per-block artifacts that
//     depend only on the block, never on the carried suffix — baseline
//     per-block ranks (an intra-block longest-path relaxation) whose
//     depth/size ratio scores how "barrier-like" a block is — across
//     GOMAXPROCS workers before the merge walk starts.
//
//  2. The trace is partitioned into segments at candidate cut points
//     chosen at barrier-scored blocks. Each speculative worker schedules
//     its segment under an ASSUMED carried-suffix state and zero release
//     floors: it starts from the empty suffix a couple of blocks early
//     (warm-up blocks whose output is discarded — at a natural barrier the
//     carried state converges to a history-independent, frame-relative
//     pattern by the time the worker reaches its cut).
//
//  3. At each join the driver verifies the speculation in O(suffix +
//     cross-cut floors), which is O(1) per block: the actual carried-suffix
//     structural fingerprint (node identities, frame-relative deadlines and
//     finish times, clamped release floors, carried makespan) must equal
//     the worker's assumed entry fingerprint, and the release floors owed
//     to the segment's nodes must agree after rebasing (sched.ReleasesEqual
//     — floors at or below the frame base are inert on both sides because
//     Step.Run clamps them to zero and the step key hashes only positive
//     floors). On a match the speculated fragments are accepted wholesale:
//     by the same purity argument that gates Step.RunMemo, identical view
//     content + identical frame-relative carried state + identical clamped
//     floors make every subsequent StepIn — and therefore every StepOut —
//     bit-identical, so the worker's committed placements are the sequential
//     walk's placements shifted by one uniform time delta. On a mismatch the
//     driver recomputes the segment sequentially from its true state (the
//     worker's step-cache insertions still make that recompute cheap).
//
// The parallel path engages only where it is provably transparent: no
// custom Tie (a knob for reproducing the paper's worked examples, kept on
// the sequential walk as the step cache keeps it off replay), no Tracer
// (workers emit no events and event order would be meaningless), no Budget
// (speculative passes must not charge a request's rank-pass budget, and a
// cancellable request keeps the fully-checkpointed sequential path), and
// node IDs already grouped by block in ascending order (segments are
// contiguous ID ranges — the same canonical-layout property the step cache
// requires). Everything else falls through to the sequential walk unchanged.

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"aisched/internal/faultinject"
	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/metrics"
	"aisched/internal/sched"
)

// Speculation telemetry: always-on process-wide counters, exported through
// internal/metrics like every other engine counter. SpecCounters snapshots
// them for the CLI's per-run printout.
var (
	mSpecRuns = metrics.Default.NewCounter("aisched_spec_runs_total",
		"ScheduleTrace calls that took the speculative parallel path")
	mSpecSegments = metrics.Default.NewCounter("aisched_spec_segments_total",
		"trace segments scheduled speculatively by parallel workers")
	mSpecHits = metrics.Default.NewCounter("aisched_spec_hits_total",
		"speculated segments whose assumed entry state verified at the join (accepted wholesale)")
	mSpecMisses = metrics.Default.NewCounter("aisched_spec_misses_total",
		"speculated segments rejected at the join (entry state mismatch; recomputed sequentially)")
	mSpecFallbackBlocks = metrics.Default.NewCounter("aisched_spec_fallback_blocks_total",
		"blocks recomputed sequentially after a rejected speculation")
)

// SpecStats is a snapshot of the speculative trace scheduler's process-wide
// counters (see SpecCounters).
type SpecStats struct {
	// Runs counts ScheduleTrace calls that took the parallel path.
	Runs uint64
	// Segments counts speculatively scheduled segments; Hits of them
	// verified at the join and were accepted wholesale, Misses were
	// rejected and recomputed (FallbackBlocks blocks in total).
	Segments, Hits, Misses, FallbackBlocks uint64
}

// SpecCounters snapshots the speculation counters. They are process-wide
// (metrics.Default), so callers wanting per-run numbers diff two snapshots.
func SpecCounters() SpecStats {
	return SpecStats{
		Runs:           mSpecRuns.Value(),
		Segments:       mSpecSegments.Value(),
		Hits:           mSpecHits.Value(),
		Misses:         mSpecMisses.Value(),
		FallbackBlocks: mSpecFallbackBlocks.Value(),
	}
}

// specFPSeed seeds the carried-suffix state fingerprint compared at every
// join, disjoint from the step-cache seeds in stepcache.go by construction.
const specFPSeed = 0x51e9cafe03

// Parallel-path tuning. The auto thresholds are deliberately conservative:
// below ~a hundred blocks the sequential walk finishes in tens of
// microseconds and goroutine fan-out is pure overhead (and the facade's
// benchmark workloads stay deterministically on the sequential path).
const (
	// parAutoMinGroups is the minimum block count for the auto (Parallel=0)
	// path.
	parAutoMinGroups = 96
	// parAutoGroupsPerSeg is the target segment length for auto partitioning.
	parAutoGroupsPerSeg = 32
	// parForcedMinGroups is the minimum block count when a worker count is
	// forced (Parallel>0) — tests use small traces to cover every width.
	parForcedMinGroups = 4
	// specWarmupGroups is the warm-up: how many blocks before its cut a
	// worker starts merging from the empty suffix so the carried state can
	// converge before the segment proper begins.
	specWarmupGroups = 2
)

// precompute fills the per-block barrier scores, fanning the blocks over
// GOMAXPROCS goroutines. Each score depends only on its block, so the stage
// needs no coordination beyond an atomic work counter.
func (gr *blockGroups) precompute(view graph.AdjView) {
	ng := gr.ngroups()
	gr.score = growSlice(gr.score, ng)
	nw := runtime.GOMAXPROCS(0)
	if nw > ng {
		nw = ng
	}
	if nw < 1 {
		nw = 1
	}
	var next atomic.Int64
	done := make(chan struct{}, nw)
	for w := 0; w < nw; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			var rankBuf []int
			for {
				g := int(next.Add(1)) - 1
				if g >= ng {
					return
				}
				gr.score[g], rankBuf = precomputeGroup(view, gr.off[g], gr.off[g+1], rankBuf)
			}
		}()
	}
	for w := 0; w < nw; w++ {
		<-done
	}
}

// precomputeGroup computes one block's baseline ranks and barrier score
// over its node range [lo, hi). The baseline rank of a node is its longest
// latency path from a block source (a forward relaxation over ascending IDs
// — exact for the generators' low-to-high edges, a fine heuristic
// otherwise, since scores only steer cut placement and never affect
// correctness); the barrier score prefers blocks whose critical path
// dominates their work (serial latency chains force a history-independent
// carried tail) and penalizes edges escaping the block (they become release
// floors that speculation must guess).
func precomputeGroup(view graph.AdjView, lo, hi int, rankBuf []int) (int64, []int) {
	size := hi - lo
	rankBuf = growSlice(rankBuf, size)
	ranks := rankBuf
	clear(ranks)
	cycles := 0
	depth := 0
	crossOut := 0
	for v := lo; v < hi; v++ {
		exec := int(view.Exec[v])
		cycles += exec
		if f := ranks[v-lo] + exec; f > depth {
			depth = f
		}
		for ei := view.Off[v]; ei < view.Off[v+1]; ei++ {
			dst := int(view.Dst[ei])
			if dst < lo || dst >= hi {
				crossOut++
				continue
			}
			if r := ranks[v-lo] + exec + int(view.Lat[ei]); r > ranks[dst-lo] {
				ranks[dst-lo] = r
			}
		}
	}
	if cycles < 1 {
		cycles = 1
	}
	score := int64(depth)*1024/int64(cycles) - 512*int64(crossOut)
	return score, rankBuf
}

// parPlan is one parallel run's partition: the block grouping and the cut
// points (group indices; segment k is groups [cuts[k], cuts[k+1])).
type parPlan struct {
	groups *blockGroups
	cuts   []int
}

// parallelPlan decides whether the parallel path applies to the trace
// grouped as gr and, if so, builds the partition. Returns nil to keep the
// sequential walk. The gates are ordered cheapest-first so the common
// small-trace call pays one integer compare and nothing else.
func parallelPlan(csr *graph.CSR, opt *Options, gr *blockGroups) *parPlan {
	minGroups := parAutoMinGroups
	if opt.Parallel > 0 {
		minGroups = parForcedMinGroups
	}
	if opt.Parallel < 0 || csr.Len() < minGroups {
		return nil
	}
	if opt.Tie != nil || opt.Tracer != nil || opt.Budget != nil {
		return nil
	}
	procs := runtime.GOMAXPROCS(0)
	if opt.Parallel == 0 && procs < 2 {
		return nil
	}
	if !gr.ordered || gr.ngroups() < minGroups {
		return nil
	}
	ng := gr.ngroups()
	nseg := procs
	if opt.Parallel > 0 {
		nseg = opt.Parallel
		if max := ng / 2; nseg > max {
			nseg = max
		}
	} else if max := ng / parAutoGroupsPerSeg; nseg > max {
		nseg = max
	}
	if nseg < 2 {
		return nil
	}
	gr.precompute(csr.View())
	cuts := chooseCuts(gr, nseg)
	if len(cuts) < 3 {
		return nil
	}
	return &parPlan{groups: gr, cuts: cuts}
}

// chooseCuts places nseg−1 cut points: each starts at the equal-partition
// boundary and snaps within a small window to the group with the best
// barrier score, so segments begin right after the most barrier-like block
// nearby. Returned as [0, c_1, …, ng]; degenerate windows drop their cut.
func chooseCuts(gr *blockGroups, nseg int) []int {
	ng := gr.ngroups()
	snap := ng / (4 * nseg)
	if snap > 8 {
		snap = 8
	}
	cuts := make([]int, 0, nseg+1)
	cuts = append(cuts, 0)
	for i := 1; i < nseg; i++ {
		ideal := i * ng / nseg
		lo, hi := ideal-snap, ideal+snap
		if min := cuts[len(cuts)-1] + 2; lo < min {
			lo = min
		}
		if hi > ng-2 {
			hi = ng - 2
		}
		if lo > hi {
			continue
		}
		best := lo
		for c := lo + 1; c <= hi; c++ {
			// The barrier block is the one immediately before the cut.
			if gr.score[c-1] > gr.score[best-1] {
				best = c
			}
		}
		cuts = append(cuts, best)
	}
	cuts = append(cuts, ng)
	return cuts
}

// stateFP fingerprints the walk's carried-suffix state in its canonical
// frame-relative form: suffix length, carried makespan, and per suffix node
// (in carry order) its identity, deadline, finish time, and clamped release
// floor. Two walks whose stateFP and segment release floors agree produce
// bit-identical continuations — the join verification's whole basis.
func (w *traceWalk) stateFP() graph.Hash128 {
	var h graph.Hasher
	h.Reset(specFPSeed)
	h.Int(len(w.oldIDs))
	h.Int(w.oldMakespan)
	for _, id := range w.oldIDs {
		h.Int(int(id))
		h.Int(w.dOld[id])
		h.Int(w.fOld[id])
		h.Int(sched.ClampRelease(w.relAbs[id], w.timeBase))
	}
	return h.Sum()
}

// specWorker is one speculative segment: a private walk over groups
// [gLo, gHi) under an assumed entry state, plus the snapshot of that
// assumption the driver verifies at the join.
type specWorker struct {
	walk     traceWalk
	scratch  *laScratch
	gLo, gHi int

	entryFP  graph.Hash128
	cutBase  int
	entryRel []int // assumed absolute floors over the segment's node range

	err  error
	done chan struct{}
}

// run executes the speculation: the empty suffix, warmed up over the blocks
// just before the cut. Any panic becomes a per-segment error and a
// sequential recompute — one poisoned speculation never takes down the
// request.
func (wk *specWorker) run(csr *graph.CSR, m *machine.Machine, opt *Options, gr *blockGroups) {
	defer close(wk.done)
	defer func() {
		if p := recover(); p != nil {
			wk.err = fmt.Errorf("core: speculative segment panicked: %v", p)
		}
	}()
	wk.scratch = laPool.Get().(*laScratch)
	wk.walk.init(csr, m, opt, gr, wk.scratch)
	if err := wk.walk.runGroups(max(wk.gLo-specWarmupGroups, 0), wk.gLo); err != nil {
		wk.err = err
		return
	}
	// Snapshot the assumption the driver will verify: the suffix state
	// fingerprint, the frame base, and the floors assumed over the
	// segment's own nodes (warm-up commits write them; everything else is
	// zero). Then discard the warm-up output and schedule the segment.
	wk.entryFP = wk.walk.stateFP()
	wk.cutBase = wk.walk.timeBase
	lo, hi := gr.off[wk.gLo], gr.off[wk.gHi]
	wk.entryRel = append(wk.entryRel[:0], wk.walk.relAbs[lo:hi]...)
	wk.walk.emitted = wk.walk.emitted[:0]
	wk.walk.logFloors = true
	wk.err = wk.walk.runGroups(wk.gLo, wk.gHi)
}

// release returns the worker's scratch to the pool. Only called by the
// driver after the worker is done and its state fully consumed.
func (wk *specWorker) release() {
	wk.walk.finish()
	laPool.Put(wk.scratch)
	wk.scratch = nil
}

// lookaheadParallel is the speculative parallel driver: on the freshly
// initialised walk drv it schedules segment 0 itself while workers
// speculate segments 1..k, then joins them in order — verify, splice on
// match, recompute on mismatch — and assembles the same Result the
// sequential walk would have produced.
func lookaheadParallel(g *graph.Graph, m *machine.Machine, opt Options, csr *graph.CSR, plan *parPlan, drv *traceWalk) (*Result, error) {
	mSpecRuns.Inc()
	gr := plan.groups
	nseg := len(plan.cuts) - 1

	workers := make([]*specWorker, nseg) // [0] stays nil: the driver owns segment 0
	for k := 1; k < nseg; k++ {
		wk := &specWorker{gLo: plan.cuts[k], gHi: plan.cuts[k+1], done: make(chan struct{})}
		workers[k] = wk
		go wk.run(csr, m, &opt, gr)
	}
	// Whatever happens below, every worker must finish and give its scratch
	// back before we return (they reference pooled state). The done receive
	// orders the driver's reads after all of the worker's writes.
	defer func() {
		for _, wk := range workers {
			if wk == nil {
				continue
			}
			<-wk.done
			if wk.scratch != nil {
				wk.release()
			}
		}
	}()

	if err := drv.runGroups(plan.cuts[0], plan.cuts[1]); err != nil {
		return nil, err
	}

	for k := 1; k < nseg; k++ {
		wk := workers[k]
		<-wk.done
		mSpecSegments.Inc()
		accept := wk.err == nil
		if accept {
			if h := faultinject.SpecVerify; h != nil && h() {
				accept = false
			}
		}
		if accept {
			lo, hi := gr.off[wk.gLo], gr.off[wk.gHi]
			accept = drv.stateFP() == wk.entryFP &&
				sched.ReleasesEqual(drv.relAbs[lo:hi], drv.timeBase, wk.entryRel, wk.cutBase)
		}
		if accept {
			mSpecHits.Inc()
			drv.splice(wk)
		} else {
			mSpecMisses.Inc()
			mSpecFallbackBlocks.Add(uint64(wk.gHi - wk.gLo))
			if err := drv.runGroups(wk.gLo, wk.gHi); err != nil {
				return nil, err
			}
		}
		wk.release()
		workers[k] = nil
	}

	drv.flush()
	drv.finish()
	return assembleResult(g, m, csr, drv.scratch, drv.emitted, drv.absStart, drv.absUnit)
}

// splice accepts a verified speculation wholesale: the worker's committed
// placements land shifted by the uniform join delta, its floor-write log
// max-merges into the driver's floors, and the driver adopts the worker's
// exit state (suffix, frame base, and the step cache's carried suffix
// fingerprint) as its own.
func (drv *traceWalk) splice(wk *specWorker) {
	w := &wk.walk
	delta := drv.timeBase - wk.cutBase
	for _, v := range w.emitted {
		drv.absStart[v] = w.absStart[v] + delta
		drv.absUnit[v] = w.absUnit[v]
	}
	drv.emitted = append(drv.emitted, w.emitted...)
	drv.oldIDs = append(drv.oldIDs[:0], w.oldIDs...)
	drv.maxOld = w.maxOld
	drv.oldMakespan = w.oldMakespan
	for _, id := range w.oldIDs {
		drv.dOld[id] = w.dOld[id]
		drv.fOld[id] = w.fOld[id]
		drv.absStart[id] = w.absStart[id] + delta
		drv.absUnit[id] = w.absUnit[id]
	}
	for _, fw := range w.floorLog {
		if r := fw.r + delta; r > drv.relAbs[fw.dst] {
			drv.relAbs[fw.dst] = r
		}
	}
	drv.timeBase = w.timeBase + delta
	drv.scratch.step.suffFP = w.scratch.step.suffFP
	drv.scratch.step.suffOK = w.scratch.step.suffOK
}
