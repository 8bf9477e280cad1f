// Package stream implements the incremental driver for Algorithm Lookahead:
// a trace is scheduled block by block as it arrives, instead of materialized
// up front.
//
// The batch driver (core.LookaheadOpts) is already one-pass — each merge
// sees only the carried suffix of the previous chopped schedule plus the
// next block — so streaming requires no new scheduling theory, only new
// plumbing: the engine keeps just the live nodes (carried suffix + the block
// being pushed) in compacted arrays, rebuilds the flat adjacency view per
// push, and funnels every push through the same core.Step (merge +
// Delay_Idle_Slots + chop) the batch driver uses. Committed chop prefixes
// are emitted immediately; a block's BlockResult is delivered as soon as
// every one of its instructions has been committed. Time-to-first-schedule
// drops from O(trace) to O(block), and memory is bounded by the suffix plus
// the configured lookahead window.
//
// Lookahead k bounds how long finality may be deferred: when block i is
// pushed, every block that arrived at least k pushes ago is force-finalized
// (its remaining suffix nodes are committed in schedule order, even without
// a qualifying chop slot). k = 0 is fully online — each block is final the
// moment it is scheduled, so merges never anticipate across blocks; k =
// Unbounded defers entirely to the chop rule, which makes the streamed
// output bit-identical to the batch result. Intermediate k trades emit lag
// and memory for schedule quality — the semi-online lookahead sweep of
// EXPERIMENTS.md S1.
package stream

import (
	"fmt"
	"math"

	"aisched/internal/baseline"
	"aisched/internal/core"
	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/obs"
	"aisched/internal/sbudget"
	"aisched/internal/sched"
)

// Unbounded disables force-finalization: only the chop rule commits
// instructions, and the streamed output is bit-identical to batch
// scheduling.
const Unbounded = math.MaxInt

// Node is one instruction of a pushed block.
type Node struct {
	Label string
	Exec  int
	Class int
}

// Dep is one dependence edge into the block being pushed: Dst must be a node
// of the current block, Src any already-pushed node (including the current
// block). IDs are stream IDs — nodes are numbered sequentially in push
// order, so the i-th node ever pushed has ID i. Edges whose source has
// already been committed never enter a merge view (the batch merge's induced
// old ∪ new view excludes committed nodes identically); their latency
// instead becomes a release floor on the destination, anchored at the
// source's committed finish time.
type Dep struct {
	Src, Dst graph.NodeID
	Latency  int
}

// Block is one basic block of the arriving trace.
type Block struct {
	Nodes []Node
	Deps  []Dep
}

// BlockResult is one finalized block: its static instruction order (the
// subpermutation the compiler emits) plus the predicted absolute placement
// of each instruction in the stitched trace schedule.
type BlockResult struct {
	// Block is the block's stream index (0-based push order).
	Block int
	// Order is the block's final static instruction order, in stream IDs.
	Order []graph.NodeID
	// Start and Unit are the predicted absolute start cycles and units,
	// parallel to Order.
	Start []int
	Unit  []int
	// Lag is the number of pushes between the block's arrival and its
	// emission: 0 means it was finalized by its own push.
	Lag int
	// Degraded is empty for a full anticipatory result; when a push budget
	// was exhausted it carries the reason and the block's order is the
	// baseline critical-path list schedule (PR 4 semantics: degrade, don't
	// error, keep streaming).
	Degraded string
}

// Options tunes a streaming scheduler.
type Options struct {
	// Lookahead is the semi-online lookahead k (see the package comment):
	// 0 (the zero value) is fully online, Unbounded is batch-identical.
	// Negative values are treated as 0.
	Lookahead int
	// Tracer, when non-nil, receives a KindStreamPush event per push, a
	// KindStreamEmit event per finalized block, and the per-merge events of
	// core.Step (merge, loosen, pin, chop, idle-slot moves).
	Tracer obs.Tracer
	// StepCache, when non-nil, memoizes whole merge + delay + chop push
	// iterations keyed by structural fingerprints (see core/stepcache.go).
	// The stream's view layout is canonical by construction — carried suffix
	// first in ascending stream-ID order, then the pushed block — so every
	// push is cacheable (tracer-attached pushes bypass, to keep per-pass
	// events). Results are bit-identical with and without it.
	StepCache *core.StepCache
}

// blockAcc accumulates one in-flight block's emission.
type blockAcc struct {
	res       BlockResult
	arrivedAt int // push index at which the block arrived
	remaining int // nodes not yet committed
}

// Scheduler is the incremental trace scheduler. Not safe for concurrent use;
// the aisched facade serializes access.
type Scheduler struct {
	m  *machine.Machine
	k  int
	tr obs.Tracer
	sc *core.StepCache

	step   core.Step
	stepIn core.StepIn

	nextID graph.NodeID // next stream ID to assign
	pushed int          // number of blocks pushed so far

	// Live node store, view-indexed; live order is ascending stream ID
	// (carried suffix first, then the pushed block), which makes the view
	// node order agree with the batch driver's sorted old ∪ new IDs.
	gid    []graph.NodeID
	exec   []int32
	class  []int32
	blockN []int32
	labels []string
	dOld   []int
	fOld   []int
	rel    []int // carried release times (frame-relative; see core.StepIn.ROld)
	absS   []int // tentative absolute placement of carried nodes
	absU   []int
	isOld  []bool

	// Live adjacency (CSR over live indices).
	eOff []int32
	eDst []graph.NodeID
	eLat []int32

	// keep marks the live indices carried into the next push; carryOrder
	// lists them in schedule (permutation) order.
	keep       []bool
	carryOrder []graph.NodeID

	// fin[id] is the absolute finish time of committed stream ID id — the
	// ledger that turns a dependence on a long-gone instruction into a
	// release floor at ingest. One int per instruction ever pushed: the only
	// whole-stream state the engine keeps (everything else is bounded by the
	// live window).
	fin []int

	// Double buffers: ingest compacts into the n* arrays, then swaps.
	nGid    []graph.NodeID
	nExec   []int32
	nClass  []int32
	nBlockN []int32
	nLabels []string
	nDOld   []int
	nFOld   []int
	nRel    []int
	nAbsS   []int
	nAbsU   []int
	nEOff   []int32
	nEDst   []graph.NodeID
	nELat   []int32

	remap  []int32 // previous live index → new live index, or −1
	toLive []int32 // stream ID − gidBase → live index, or −1
	degCnt []int32 // edge-count/cursor scratch for the CSR build

	tie []graph.NodeID

	oldMakespan int
	timeBase    int

	blocks []*blockAcc // in-flight blocks, front first

	err error // sticky failure; set by cancellation or internal errors
}

// New returns an empty streaming scheduler for machine m.
func New(m *machine.Machine, opt Options) *Scheduler {
	k := opt.Lookahead
	if k < 0 {
		k = 0
	}
	return &Scheduler{m: m, k: k, tr: opt.Tracer, sc: opt.StepCache}
}

// SuffixLen reports the number of carried (not yet final) instructions.
func (e *Scheduler) SuffixLen() int { return len(e.carryOrder) }

// Pushed reports the number of blocks pushed so far.
func (e *Scheduler) Pushed() int { return e.pushed }

// Makespan reports the predicted completion time of everything pushed so
// far, including the carried suffix's tentative placement.
func (e *Scheduler) Makespan() int { return e.timeBase + e.oldMakespan }

// Err returns the sticky error that poisoned the stream, if any.
func (e *Scheduler) Err() error { return e.err }

// Push feeds the next block. It returns the blocks finalized by this push
// (often none; possibly several), in block order. bud, when non-nil, bounds
// the push (PR 4 semantics): on budget exhaustion the entire live window —
// carried suffix and the new block — is finalized with the baseline
// critical-path schedule, tagged Degraded, and the stream keeps accepting
// pushes. On cancellation or malformed input the stream is poisoned: the
// error is returned now and by every later call.
func (e *Scheduler) Push(b Block, bud *sbudget.State) ([]*BlockResult, error) {
	if e.err != nil {
		return nil, e.err
	}
	if len(b.Nodes) == 0 {
		return nil, e.poison(fmt.Errorf("stream: empty block %d", e.pushed))
	}
	pushIdx := e.pushed
	if err := e.ingest(b); err != nil {
		return nil, e.poison(err)
	}
	n := len(e.gid)
	nOld := n - len(b.Nodes)

	e.tie = growSlice(e.tie, n)
	for i := range e.tie {
		e.tie[i] = graph.NodeID(i)
	}
	view := graph.AdjView{
		N: n, Off: e.eOff, Dst: e.eDst, Lat: e.eLat,
		Exec: e.exec, Class: e.class, Block: e.blockN, Labels: e.labels,
	}
	for _, l := range e.eLat {
		if int(l) > view.MaxLat {
			view.MaxLat = int(l)
		}
	}
	e.blocks = append(e.blocks, &blockAcc{
		res:       BlockResult{Block: pushIdx},
		arrivedAt: pushIdx,
		remaining: len(b.Nodes),
	})
	e.pushed++

	e.stepIn = core.StepIn{
		View: view, M: e.m, Tie: e.tie, IsOld: e.isOld,
		DOld: e.dOld, FOld: e.fOld, ROld: e.rel,
		OldCount: nOld, OldMakespan: e.oldMakespan,
		Block: pushIdx, Tracer: e.tr, Budget: bud,
	}
	out, err := e.step.RunMemo(&e.stepIn, e.sc, true)
	if err != nil {
		if reason := sbudget.Reason(err); reason != "" {
			return e.degrade(reason)
		}
		return nil, e.poison(err)
	}
	s, d := out.S, out.D

	// Commit the chopped prefix, then force-finalize what the lookahead
	// window no longer covers: every block that arrived more than k pushes
	// ago must leave the suffix, so the cut extends to the last finish time
	// of any such straggler (committing newer nodes scheduled before it — a
	// quality concession, never a correctness one: the committed set stays
	// a prefix of the schedule's time order, like any chop).
	base := out.Base
	for _, si := range out.Minus {
		e.commit(si, s.Start[si]+e.timeBase, s.Unit[si])
	}
	cut := -1
	if e.k != Unbounded {
		for _, si := range out.Plus {
			if int(e.blockN[si]) <= pushIdx-e.k {
				if f := s.Finish(si); f > cut {
					cut = f
				}
			}
		}
	}
	e.keep = growSlice(e.keep, n)
	clear(e.keep)
	e.carryOrder = e.carryOrder[:0]
	for _, si := range out.Plus {
		if cut >= 0 && s.Finish(si) <= cut {
			e.commit(si, s.Start[si]+e.timeBase, s.Unit[si])
			continue
		}
		e.keep[si] = true
		e.carryOrder = append(e.carryOrder, si)
	}
	if cut > base {
		base = cut
	}
	// Carry release times (mirror of the batch driver): rebase, then raise
	// each carried destination of an edge whose source was just committed —
	// by the chop or by the forced cut — so the latency outlives the edge's
	// removal from the view. A forced cut has no idle slot granting slack, so
	// even 0/1-latency streams can owe a positive release here.
	for si := 0; si < n; si++ {
		if e.rel[si] -= base; e.rel[si] < 0 {
			e.rel[si] = 0
		}
	}
	for si := 0; si < n; si++ {
		if e.keep[si] {
			continue
		}
		f := s.Finish(graph.NodeID(si))
		for ei := e.eOff[si]; ei < e.eOff[si+1]; ei++ {
			if r := f + int(e.eLat[ei]) - base; r > e.rel[e.eDst[ei]] {
				e.rel[e.eDst[ei]] = r
			}
		}
	}
	for _, si := range e.carryOrder {
		e.dOld[si] = d[si] - base
		e.fOld[si] = s.Finish(si) - base
		// Tentative placement; overwritten if a later merge reorders it.
		e.absS[si] = s.Start[si] + e.timeBase
		e.absU[si] = s.Unit[si]
	}
	e.oldMakespan = s.Makespan() - base
	e.timeBase += base

	if e.tr != nil {
		e.tr.Emit(obs.Event{Kind: obs.KindStreamPush, Block: pushIdx,
			Node: graph.None, From: nOld, To: len(b.Nodes), N: e.oldMakespan})
	}
	return e.pop(pushIdx), nil
}

// Flush finalizes the carried suffix at its tentative placement — exactly
// the batch driver's trailing emission — and returns every remaining block.
// The stream stays usable: later pushes start a fresh suffix after the
// flushed schedule.
func (e *Scheduler) Flush() ([]*BlockResult, error) {
	if e.err != nil {
		return nil, e.err
	}
	for _, si := range e.carryOrder {
		e.commit(si, e.absS[si], e.absU[si])
	}
	e.carryOrder = e.carryOrder[:0]
	clear(e.keep)
	e.timeBase += e.oldMakespan
	e.oldMakespan = 0
	return e.pop(e.pushed), nil
}

// poison records a fatal error; every later call returns it.
func (e *Scheduler) poison(err error) error {
	e.err = err
	return err
}

// commit finalizes live node si at absolute (start, unit).
func (e *Scheduler) commit(si graph.NodeID, start, unit int) {
	a := e.blocks[int(e.blockN[si])-e.blocks[0].res.Block]
	a.res.Order = append(a.res.Order, e.gid[si])
	a.res.Start = append(a.res.Start, start)
	a.res.Unit = append(a.res.Unit, unit)
	a.remaining--
	e.fin[e.gid[si]] = start + int(e.exec[si])
}

// pop emits every fully committed block at the front of the in-flight list.
func (e *Scheduler) pop(pushIdx int) []*BlockResult {
	var out []*BlockResult
	for len(e.blocks) > 0 && e.blocks[0].remaining == 0 {
		a := e.blocks[0]
		e.blocks = e.blocks[1:]
		a.res.Lag = pushIdx - a.arrivedAt
		if e.tr != nil {
			e.tr.Emit(obs.Event{Kind: obs.KindStreamEmit, Block: a.res.Block,
				Node: graph.None, N: a.res.Lag})
		}
		out = append(out, &a.res)
	}
	return out
}

// degrade finalizes the whole live window with the baseline critical-path
// list schedule (per-block, no anticipation), tags every affected block, and
// leaves the stream empty and accepting.
func (e *Scheduler) degrade(reason string) ([]*BlockResult, error) {
	n := len(e.gid)
	tg := graph.New(n)
	for i := 0; i < n; i++ {
		tg.AddNode(e.labels[i], int(e.exec[i]), int(e.class[i]), int(e.blockN[i]))
	}
	for v := 0; v < n; v++ {
		for ei := e.eOff[v]; ei < e.eOff[v+1]; ei++ {
			tg.MustEdge(graph.NodeID(v), e.eDst[ei], int(e.eLat[ei]), 0)
		}
	}
	order, err := baseline.ScheduleTrace(baseline.CriticalPath{}, tg, e.m)
	if err != nil {
		return nil, e.poison(err)
	}
	// The carried releases still apply: latencies owed to already-emitted
	// instructions must hold in the degraded placement too.
	s, err := sched.ListScheduleRelease(tg, e.m, order, e.rel[:n])
	if err != nil {
		return nil, e.poison(err)
	}
	for _, a := range e.blocks {
		a.res.Degraded = reason
	}
	for _, si := range order {
		e.commit(si, s.Start[si]+e.timeBase, s.Unit[si])
	}
	e.carryOrder = e.carryOrder[:0]
	e.keep = growSlice(e.keep, n)
	clear(e.keep)
	e.oldMakespan = 0
	e.timeBase += s.Makespan()
	return e.pop(e.pushed - 1), nil
}

// ingest compacts the live store down to the carried suffix and appends
// block b: node attributes, carried deadlines/finishes, and the rebuilt
// flat adjacency over live indices.
func (e *Scheduler) ingest(b Block) error {
	nPrev := len(e.gid)
	nKept := len(e.carryOrder)
	n := nKept + len(b.Nodes)

	// Compact kept nodes into the double buffers, preserving ascending
	// stream-ID order (keep-mask filter of an ascending array).
	e.remap = growSlice(e.remap, nPrev)
	remap := e.remap
	e.nGid = growSlice(e.nGid, n)
	e.nExec = growSlice(e.nExec, n)
	e.nClass = growSlice(e.nClass, n)
	e.nBlockN = growSlice(e.nBlockN, n)
	e.nLabels = growSlice(e.nLabels, n)
	e.nDOld = growSlice(e.nDOld, n)
	e.nFOld = growSlice(e.nFOld, n)
	e.nRel = growSlice(e.nRel, n)
	e.nAbsS = growSlice(e.nAbsS, n)
	e.nAbsU = growSlice(e.nAbsU, n)
	w := 0
	for i := 0; i < nPrev; i++ {
		if !e.keep[i] {
			remap[i] = -1
			continue
		}
		remap[i] = int32(w)
		e.nGid[w] = e.gid[i]
		e.nExec[w] = e.exec[i]
		e.nClass[w] = e.class[i]
		e.nBlockN[w] = e.blockN[i]
		e.nLabels[w] = e.labels[i]
		e.nDOld[w] = e.dOld[i]
		e.nFOld[w] = e.fOld[i]
		e.nRel[w] = e.rel[i]
		e.nAbsS[w] = e.absS[i]
		e.nAbsU[w] = e.absU[i]
		w++
	}
	if w != nKept {
		return fmt.Errorf("stream: carried %d of %d suffix nodes", w, nKept)
	}
	firstNew := e.nextID
	for i, nd := range b.Nodes {
		exec := nd.Exec
		if exec < 1 {
			exec = 1
		}
		e.nGid[w+i] = firstNew + graph.NodeID(i)
		e.nExec[w+i] = int32(exec)
		e.nClass[w+i] = int32(nd.Class)
		e.nBlockN[w+i] = int32(e.pushed)
		e.nLabels[w+i] = nd.Label
		e.nRel[w+i] = 0
	}
	e.nextID += graph.NodeID(len(b.Nodes))
	for len(e.fin) < int(e.nextID) {
		e.fin = append(e.fin, 0)
	}

	// Swap the node stores; the previous arrays become next push's scratch.
	e.gid, e.nGid = e.nGid[:n], e.gid
	e.exec, e.nExec = e.nExec[:n], e.exec
	e.class, e.nClass = e.nClass[:n], e.class
	e.blockN, e.nBlockN = e.nBlockN[:n], e.blockN
	e.labels, e.nLabels = e.nLabels[:n], e.labels
	e.dOld, e.nDOld = e.nDOld[:n], e.dOld
	e.fOld, e.nFOld = e.nFOld[:n], e.fOld
	e.rel, e.nRel = e.nRel[:n], e.rel
	e.absS, e.nAbsS = e.nAbsS[:n], e.absS
	e.absU, e.nAbsU = e.nAbsU[:n], e.absU
	e.isOld = growSlice(e.isOld, n)
	for i := 0; i < n; i++ {
		e.isOld[i] = i < nKept
	}

	// Stream-ID → live-index window for dependence ingestion. Live IDs all
	// lie in [gidBase, nextID): the window spans at most the suffix's
	// blocks (≤ k+1) plus the new one, which is the memory bound.
	gidBase := e.nextID - graph.NodeID(n)
	if n > 0 {
		gidBase = e.gid[0]
	}
	win := int(e.nextID - gidBase)
	e.toLive = growSlice(e.toLive, win)
	toLive := e.toLive
	for i := range toLive {
		toLive[i] = -1
	}
	for i := 0; i < n; i++ {
		toLive[e.gid[i]-gidBase] = int32(i)
	}

	// Rebuild the live CSR: carried edges among kept nodes (remapped), plus
	// the new block's dependences. Count, prefix-sum, fill.
	e.degCnt = growSlice(e.degCnt, n)
	deg := e.degCnt
	clear(deg)
	for v := 0; v < nPrev; v++ {
		sv := remap[v]
		if sv < 0 {
			continue
		}
		for ei := e.eOff[v]; ei < e.eOff[v+1]; ei++ {
			if remap[e.eDst[ei]] >= 0 {
				deg[sv]++
			}
		}
	}
	for _, dp := range b.Deps {
		if dp.Dst < firstNew || dp.Dst >= e.nextID {
			return fmt.Errorf("stream: dep %d→%d targets outside block %d [%d,%d)",
				dp.Src, dp.Dst, e.pushed, firstNew, e.nextID)
		}
		if dp.Src < 0 || dp.Src >= e.nextID {
			return fmt.Errorf("stream: dep source %d not yet pushed (next ID %d)", dp.Src, e.nextID)
		}
		if dp.Latency < 0 {
			return fmt.Errorf("stream: dep %d→%d has negative latency", dp.Src, dp.Dst)
		}
		sv := int32(-1)
		if dp.Src >= gidBase {
			sv = toLive[dp.Src-gidBase]
		}
		if sv < 0 {
			// Source already committed: the edge never reaches a merge view
			// (the batch driver's induced old ∪ new view excludes it just the
			// same), so its latency becomes a release floor on the
			// destination, read from the finish ledger.
			dl := toLive[dp.Dst-gidBase]
			if r := e.fin[dp.Src] + dp.Latency - e.timeBase; r > e.rel[dl] {
				e.rel[dl] = r
			}
			continue
		}
		deg[sv]++
	}
	e.nEOff = growSlice(e.nEOff, n+1)
	eOff := e.nEOff
	sum := int32(0)
	for i := 0; i < n; i++ {
		eOff[i] = sum
		sum += deg[i]
	}
	eOff[n] = sum
	e.nEDst = growSlice(e.nEDst, int(sum))
	e.nELat = growSlice(e.nELat, int(sum))
	eDst, eLat := e.nEDst, e.nELat
	cursor := deg // reuse the count scratch as per-node fill cursors
	copy(cursor, eOff[:n])
	for v := 0; v < nPrev; v++ {
		sv := remap[v]
		if sv < 0 {
			continue
		}
		for ei := e.eOff[v]; ei < e.eOff[v+1]; ei++ {
			dv := remap[e.eDst[ei]]
			if dv < 0 {
				continue
			}
			c := cursor[sv]
			eDst[c] = graph.NodeID(dv)
			eLat[c] = e.eLat[ei]
			cursor[sv]++
		}
	}
	for _, dp := range b.Deps {
		if dp.Src < gidBase {
			continue
		}
		sv := toLive[dp.Src-gidBase]
		if sv < 0 {
			continue // committed source: turned into a release floor above
		}
		c := cursor[sv]
		eDst[c] = graph.NodeID(toLive[dp.Dst-gidBase])
		eLat[c] = int32(dp.Latency)
		cursor[sv]++
	}
	e.eOff, e.nEOff = eOff, e.eOff
	e.eDst, e.nEDst = eDst, e.eDst
	e.eLat, e.nELat = eLat, e.eLat
	return nil
}

func growSlice[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
