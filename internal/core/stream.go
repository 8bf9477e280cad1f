package core

// Streaming: Algorithm Lookahead fed one block at a time, instead of a
// materialized trace.
//
// The walk is already one-pass — each merge sees only the carried suffix of
// the previous chopped schedule plus the next block — so a stream is the
// same traceWalk the batch driver runs, advanced once per push. What the
// stream adds is its node store: it keeps just the live nodes (carried
// suffix + the block being pushed) in compacted arrays, rebuilds their flat
// adjacency per push, and renumbers the walk with them (traceWalk.compact).
// Committed nodes are emitted immediately; a block's BlockResult is
// delivered as soon as every one of its instructions has been committed.
// Time-to-first-schedule drops from O(trace) to O(block), and memory is
// bounded by the suffix plus the configured lookahead window.
//
// Lookahead k bounds how long finality may be deferred: when block i is
// pushed, every block that arrived at least k pushes ago is force-finalized
// (its remaining suffix nodes are committed in schedule order, even without
// a qualifying chop slot). k = 0 is fully online — each block is final the
// moment it is scheduled, so merges never anticipate across blocks; k =
// LookaheadUnbounded defers entirely to the chop rule, which makes the
// streamed output bit-identical to the batch result. Intermediate k trades
// emit lag and memory for schedule quality — the semi-online lookahead
// sweep of EXPERIMENTS.md S1.

import (
	"fmt"
	"math"

	"aisched/internal/baseline"
	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/obs"
	"aisched/internal/sbudget"
	"aisched/internal/sched"
)

// LookaheadUnbounded disables force-finalization: only the chop rule
// commits instructions, and the streamed output is bit-identical to batch
// scheduling.
const LookaheadUnbounded = math.MaxInt

// StreamNode is one instruction of a pushed block.
type StreamNode struct {
	Label string
	Exec  int
	Class int
}

// StreamDep is one dependence edge into the block being pushed: Dst must be
// a node of the current block, Src any already-pushed node (including the
// current block). IDs are stream IDs — nodes are numbered sequentially in
// push order, so the i-th node ever pushed has ID i. Edges whose source has
// already been committed never enter a merge view (the batch merge's
// induced old ∪ new view excludes committed nodes identically); their
// latency instead becomes a release floor on the destination, anchored at
// the source's committed finish time.
type StreamDep struct {
	Src, Dst graph.NodeID
	Latency  int
}

// StreamBlock is one basic block of the arriving trace.
type StreamBlock struct {
	Nodes []StreamNode
	Deps  []StreamDep
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

// blockAcc accumulates one in-flight block's emission.
type blockAcc struct {
	res       BlockResult
	arrivedAt int // push index at which the block arrived
	remaining int // nodes not yet committed
}

// Stream is the incremental trace scheduler. Not safe for concurrent use;
// the aisched facade serializes access.
type Stream struct {
	k       int
	walk    traceWalk // walk IDs are live indices
	scratch laScratch

	nextID graph.NodeID // next stream ID to assign
	pushed int          // number of blocks pushed so far

	// Live node store, indexed by live index; live order is ascending
	// stream ID (carried suffix first, then the pushed block), which makes
	// the view node order agree with the batch walk's sorted old ∪ new IDs.
	gid    []graph.NodeID
	exec   []int32
	class  []int32
	blockN []int32
	labels []string
	ids    []graph.NodeID // identity: the view → walk ID map

	// Live adjacency (CSR over live indices), double-buffered: ingest
	// rebuilds it into the n* arrays from the previous one, then swaps.
	eOff, nEOff []int32
	eDst, nEDst []graph.NodeID
	eLat, nELat []int32

	// fin[id] is the absolute finish time of committed stream ID id — the
	// ledger that turns a dependence on a long-gone instruction into a
	// release floor at ingest. One int per instruction ever pushed: the only
	// whole-stream state the engine keeps (everything else is bounded by the
	// live window).
	fin []int

	remap  []int32 // previous live index → new live index, or −1
	toLive []int32 // stream ID − gidBase → live index, or −1
	degCnt []int32 // edge-count/cursor scratch for the CSR build

	blocks []*blockAcc // in-flight blocks, front first

	err error // sticky failure; set by cancellation or internal errors
}

// NewStream returns an empty streaming scheduler for machine m with
// lookahead k (negative values are treated as 0). tr, when non-nil,
// receives a KindStreamPush event per push, a KindStreamEmit event per
// finalized block, and the per-merge events of Step. sc, when non-nil,
// memoizes whole push iterations: the live store keeps the carried suffix
// first in ascending stream-ID order, so every push is in canonical layout
// and cacheable (tracer-attached pushes bypass, to keep per-pass events).
// Results are bit-identical with and without it.
func NewStream(m *machine.Machine, k int, tr obs.Tracer, sc *StepCache) *Stream {
	e := &Stream{k: max(k, 0)}
	e.walk = traceWalk{scratch: &e.scratch, m: m, sc: sc, tracer: tr, maxOld: -1}
	return e
}

// SuffixLen reports the number of carried (not yet final) instructions.
func (e *Stream) SuffixLen() int { return len(e.walk.oldIDs) }

// Makespan reports the predicted completion time of everything pushed so
// far, including the carried suffix's tentative placement.
func (e *Stream) Makespan() int { return e.walk.timeBase + e.walk.oldMakespan }

// Err returns the sticky error that poisoned the stream, if any.
func (e *Stream) Err() error { return e.err }

// Push feeds the next block. It returns the blocks finalized by this push
// (often none; possibly several), in block order. bud, when non-nil, bounds
// the push (PR 4 semantics): on budget exhaustion the entire live window —
// carried suffix and the new block — is finalized with the baseline
// critical-path schedule, tagged Degraded, and the stream keeps accepting
// pushes. On cancellation or malformed input the stream is poisoned: the
// error is returned now and by every later call.
func (e *Stream) Push(b StreamBlock, bud *sbudget.State) ([]*BlockResult, error) {
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
	view := graph.AdjView{
		N: n, Off: e.eOff, Dst: e.eDst, Lat: e.eLat,
		Exec: e.exec, Class: e.class, Block: e.blockN, Labels: e.labels,
	}
	for _, l := range e.eLat {
		view.MaxLat = max(view.MaxLat, int(l))
	}
	e.blocks = append(e.blocks, &blockAcc{
		res:       BlockResult{Block: pushIdx},
		arrivedAt: pushIdx,
		remaining: len(b.Nodes),
	})
	e.pushed++

	// Every block that arrived more than k pushes ago must leave the suffix.
	w := &e.walk
	w.gview, w.budget = view, bud
	if err := w.advance(view, e.ids, pushIdx, pushIdx-e.k); err != nil {
		if reason := sbudget.Reason(err); reason != "" {
			return e.degrade(reason)
		}
		return nil, e.poison(err)
	}
	if w.tracer != nil {
		w.tracer.Emit(obs.Event{Kind: obs.KindStreamPush, Block: pushIdx,
			Node: graph.None, From: nOld, To: len(b.Nodes), N: w.oldMakespan})
	}
	return e.emit(pushIdx), nil
}

// Flush finalizes the carried suffix at its tentative placement — exactly
// the batch walk's trailing emission — and returns every remaining block.
// The stream stays usable: later pushes start a fresh suffix after the
// flushed schedule.
func (e *Stream) Flush() ([]*BlockResult, error) {
	if e.err != nil {
		return nil, e.err
	}
	e.walk.flush()
	return e.emit(e.pushed), nil
}

// poison records a fatal error; every later call returns it.
func (e *Stream) poison(err error) error {
	e.err = err
	return err
}

// emit hands the walk's newly committed nodes to their blocks and pops
// every fully committed block at the front of the in-flight list.
func (e *Stream) emit(pushIdx int) []*BlockResult {
	w := &e.walk
	for _, li := range w.emitted {
		a := e.blocks[int(e.blockN[li])-e.blocks[0].res.Block]
		a.res.Order = append(a.res.Order, e.gid[li])
		a.res.Start = append(a.res.Start, w.absStart[li])
		a.res.Unit = append(a.res.Unit, w.absUnit[li])
		a.remaining--
		e.fin[e.gid[li]] = w.absStart[li] + int(e.exec[li])
	}
	w.emitted = w.emitted[:0]
	var out []*BlockResult
	for len(e.blocks) > 0 && e.blocks[0].remaining == 0 {
		a := e.blocks[0]
		e.blocks = e.blocks[1:]
		a.res.Lag = pushIdx - a.arrivedAt
		if w.tracer != nil {
			w.tracer.Emit(obs.Event{Kind: obs.KindStreamEmit, Block: a.res.Block,
				Node: graph.None, N: a.res.Lag})
		}
		out = append(out, &a.res)
	}
	return out
}

// degrade finalizes the whole live window with the baseline critical-path
// list schedule (per-block, no anticipation), tags every affected block, and
// leaves the stream empty and accepting.
func (e *Stream) degrade(reason string) ([]*BlockResult, error) {
	w := &e.walk
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
	order, err := baseline.ScheduleTrace(baseline.CriticalPath{}, tg, w.m)
	if err != nil {
		return nil, e.poison(err)
	}
	// The carried releases still apply: latencies owed to already-emitted
	// instructions must hold in the degraded placement too.
	rel := make([]int, n)
	for i := range rel {
		rel[i] = sched.ClampRelease(w.relAbs[i], w.timeBase)
	}
	s, err := sched.ListScheduleRelease(tg, w.m, order, rel)
	if err != nil {
		return nil, e.poison(err)
	}
	for _, a := range e.blocks {
		a.res.Degraded = reason
	}
	for _, si := range order {
		w.commit(si, s.Start[si], s.Unit[si])
	}
	w.oldIDs, w.maxOld = w.oldIDs[:0], -1
	w.oldMakespan = 0
	w.timeBase += s.Makespan()
	return e.emit(e.pushed - 1), nil
}

// ingest compacts the live store down to the carried suffix and appends
// block b: node attributes, the walk's per-node state (traceWalk.compact),
// release floors owed by committed sources, and the rebuilt flat adjacency
// over live indices.
func (e *Stream) ingest(b StreamBlock) error {
	nPrev := len(e.gid)
	nKept := len(e.walk.oldIDs)
	n := nKept + len(b.Nodes)

	// Compact kept nodes in place, preserving ascending stream-ID order
	// (remap is increasing and never moves a node up).
	e.remap = growSlice(e.remap, nPrev)
	remap := e.remap
	e.walk.compact(remap, n)
	for i, li := range remap {
		if li >= 0 {
			e.gid[li], e.exec[li], e.class[li] = e.gid[i], e.exec[i], e.class[i]
			e.blockN[li], e.labels[li] = e.blockN[i], e.labels[i]
		}
	}
	e.gid, e.exec, e.class = growKeep(e.gid, nKept, n), growKeep(e.exec, nKept, n), growKeep(e.class, nKept, n)
	e.blockN, e.labels = growKeep(e.blockN, nKept, n), growKeep(e.labels, nKept, n)
	e.ids = growKeep(e.ids, nKept, n)
	firstNew := e.nextID
	for i, nd := range b.Nodes {
		li := nKept + i
		e.gid[li] = firstNew + graph.NodeID(i)
		e.exec[li] = int32(max(nd.Exec, 1))
		e.class[li] = int32(nd.Class)
		e.blockN[li] = int32(e.pushed)
		e.labels[li] = nd.Label
		e.ids[li] = graph.NodeID(li)
	}
	e.nextID += graph.NodeID(len(b.Nodes))
	e.fin = growKeep(e.fin, len(e.fin), int(e.nextID))

	// Stream-ID → live-index window for dependence ingestion. Live IDs all
	// lie in [gidBase, nextID): the window spans at most the suffix's
	// blocks (≤ k+1) plus the new one, which is the memory bound.
	gidBase := e.gid[0]
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
			// (the batch walk's induced old ∪ new view excludes it just the
			// same), so its latency becomes a release floor on the
			// destination, read from the finish ledger.
			dl := toLive[dp.Dst-gidBase]
			e.walk.relAbs[dl] = max(e.walk.relAbs[dl], e.fin[dp.Src]+dp.Latency)
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
