package sched

import (
	"fmt"
	"math"

	"aisched/internal/graph"
	"aisched/internal/machine"
)

// ListSchedule runs the greedy list scheduler: at each cycle t, walk the
// priority list front to back and start every ready instruction for which a
// functional unit of its class is free. An instruction is ready at cycle t
// when every distance-0 predecessor u satisfies finish(u) + latency ≤ t.
// The implementation is event-driven (see ListScheduler.Run): it visits only
// the cycles at which an instruction becomes ready or a unit frees, and
// walks only the ready instructions, in priority order.
//
// This single routine serves three roles in the paper:
//   - step 3 of the Rank Algorithm (greedy scheduling of the rank-ordered
//     list, §2.1),
//   - the baseline prioritized-list schedulers (§6, Warren/Gibbons-Muchnick
//     style, with different priority orders),
//   - the Ordering Constraint oracle of Definition 2.3 ("S is obtainable as
//     a greedy schedule from priority list L").
//
// The priority list must contain each node exactly once. An error is
// returned if the list is malformed or the graph's loop-independent subgraph
// is cyclic.
func ListSchedule(g *graph.Graph, m *machine.Machine, priority []graph.NodeID) (*Schedule, error) {
	ls, err := NewListScheduler(g, m)
	if err != nil {
		return nil, err
	}
	return ls.Run(priority)
}

// ListScheduleRelease is ListSchedule with per-node release times (see
// ListScheduler.SetRelease); rel may be nil. It serves the naive reference
// pipelines of the differential tests — hot paths hold a ListScheduler.
func ListScheduleRelease(g *graph.Graph, m *machine.Machine, priority []graph.NodeID, rel []int) (*Schedule, error) {
	ls, err := NewListScheduler(g, m)
	if err != nil {
		return nil, err
	}
	ls.SetRelease(rel)
	return ls.Run(priority)
}

// ListScheduler runs the greedy list scheduler repeatedly over one graph
// view and machine, reusing the readiness scratch between runs. It is the
// allocation-free core behind ListSchedule; the Rank Algorithm context
// (internal/rank) holds one per graph so the hundreds of reschedules of a
// Delay_Idle_Slots pass share the same buffers. Reset rebinds it to a new
// view without allocating once the scratch has grown to size.
type ListScheduler struct {
	// Flat adjacency and attributes, borrowed from the bound AdjView.
	n      int
	off    []int32
	dst    []graph.NodeID
	lat    []int32
	exec   []int32
	class  []int32
	labels []string

	// g is the graph behind the view when the caller has one (nil for
	// induced subgraph views); it is stored on produced Schedules so that
	// graph-dependent methods (Validate, Subpermutation) keep working.
	g *graph.Graph
	m *machine.Machine

	// indeg is the distance-0 in-degree template copied into remaining at
	// the start of every run.
	indeg     []int
	earliest  []int
	remaining []int
	unitFree  []int
	// ppos[v] is v's position in the priority list of the current run.
	// ready holds the positions of the nodes that may start at the visited
	// cycle; waiting is a min-heap, keyed by earliest, of the released
	// nodes whose earliest start is still ahead.
	ppos    []int32
	ready   graph.Bitset
	waiting []int32
	// rel, when non-nil, holds per-node release times seeding earliest at
	// the start of every run (see SetRelease).
	rel []int
	// ubase/ucount cache unitBase per class present in the view.
	ubase  []int
	ucount []int

	// visits and examined count the cycles the last Run visited and the
	// ready entries it examined: the work bounds its tests pin.
	visits, examined int
}

// NewListScheduler validates that g's loop-independent subgraph is acyclic
// and returns a scheduler whose Run can be called any number of times.
func NewListScheduler(g *graph.Graph, m *machine.Machine) (*ListScheduler, error) {
	if !g.IsAcyclic() {
		return nil, fmt.Errorf("sched: loop-independent subgraph is cyclic")
	}
	return NewListSchedulerAcyclic(g, m), nil
}

// NewListSchedulerAcyclic is NewListScheduler for callers that have already
// established that g's loop-independent subgraph is acyclic (typically by
// computing a topological order), skipping the redundant validation pass.
// Run on a cyclic graph fails once no node is left to release.
func NewListSchedulerAcyclic(g *graph.Graph, m *machine.Machine) *ListScheduler {
	ls := &ListScheduler{}
	ls.Reset(graph.NewCSR(g).View(), m, g)
	return ls
}

// Reset rebinds the scheduler to a new (acyclic) adjacency view. g may be
// nil when the view is an induced subgraph with no standalone *Graph; the
// produced Schedules then rely on the recorded exec times instead of G.
// Scratch is grown as needed and otherwise reused.
func (ls *ListScheduler) Reset(view graph.AdjView, m *machine.Machine, g *graph.Graph) {
	n := view.N
	ls.n = n
	ls.off, ls.dst, ls.lat = view.Off, view.Dst, view.Lat
	ls.exec, ls.class, ls.labels = view.Exec, view.Class, view.Labels
	ls.g, ls.m = g, m
	ls.rel = nil

	if cap(ls.indeg) < n {
		// One block for the three per-node counters.
		counters := make([]int, 3*n)
		ls.indeg = counters[:n:n]
		ls.earliest = counters[n : 2*n : 2*n]
		ls.remaining = counters[2*n:]
		ls.ppos = make([]int32, n)
		ls.ready = graph.NewBitset(n)
		ls.waiting = make([]int32, 0, n)
	}
	ls.indeg = ls.indeg[:n]
	ls.earliest = ls.earliest[:n]
	ls.remaining = ls.remaining[:n]
	ls.ppos = ls.ppos[:n]
	ls.ready = ls.ready[:(n+63)/64]
	clear(ls.indeg)
	for _, d := range ls.dst[:view.Off[n]] {
		ls.indeg[d]++
	}

	if tot := m.TotalUnits(); cap(ls.unitFree) < tot {
		ls.unitFree = make([]int, tot)
	} else {
		ls.unitFree = ls.unitFree[:tot]
	}

	maxClass := 0
	for _, c := range view.Class {
		if int(c) > maxClass {
			maxClass = int(c)
		}
	}
	if cap(ls.ubase) < maxClass+1 {
		ls.ubase = make([]int, maxClass+1)
		ls.ucount = make([]int, maxClass+1)
	}
	ls.ubase = ls.ubase[:maxClass+1]
	ls.ucount = ls.ucount[:maxClass+1]
	for c := 0; c <= maxClass; c++ {
		ls.ubase[c], ls.ucount[c] = unitBase(m, machine.UnitClass(c))
	}
}

// SetRelease installs per-node release times: node v may not start before
// rel[v], exactly as if an already-emitted predecessor's finish + latency
// landed there. The slice is retained (not copied) and read by every Run
// until the next Reset or SetRelease(nil); its length must match the bound
// view. Values ≤ 0 are no constraint. Anticipatory scheduling uses this to
// keep latencies sound across chop commits: edges from a committed prefix
// into the carried suffix leave the merge's view, so their lower bounds ride
// along as release times instead.
func (ls *ListScheduler) SetRelease(rel []int) { ls.rel = rel }

// Run greedily schedules the priority list (see ListSchedule). Only the
// returned Schedule is freshly allocated; all bookkeeping is reused.
//
// Run is event-driven. A node is released when its last predecessor is
// placed and waits in a heap until its earliest start arrives; it is then
// ready, recorded by priority position in a bitset. Each visited cycle
// moves the due nodes to ready and walks ready in priority order, placing
// every node whose class has a free unit, until no unit is free. The next
// visited cycle is the first pending earliest start or, while nodes stay
// ready, the first time a busy unit frees. This is exactly the cycle-by-
// cycle scan of the whole list: execution times are ≥ 1 and latencies ≥ 0,
// so a node placed at t never makes another node ready at t, and nothing a
// scan could place changes between two visited cycles. Every visited cycle
// after the first is an earliest start or a unit's finish time, so a run
// visits at most 2n+1 cycles and costs O((n + e) log n + n·units), plus
// the ready entries a multi-class machine skips while their units are busy.
func (ls *ListScheduler) Run(priority []graph.NodeID) (*Schedule, error) {
	n := ls.n
	if len(priority) != n {
		return nil, fmt.Errorf("sched: priority list has %d entries for %d nodes", len(priority), n)
	}
	ppos := ls.ppos
	for i := range ppos {
		ppos[i] = -1
	}
	for i, id := range priority {
		if id < 0 || int(id) >= n || ppos[id] >= 0 {
			return nil, fmt.Errorf("sched: priority list is not a permutation (node %d)", id)
		}
		ppos[id] = int32(i)
	}

	s := &Schedule{G: ls.g, M: ls.m, Start: make([]int, n), Unit: make([]int, n), exec: ls.exec}
	for i := range s.Start {
		s.Start[i] = Unassigned
		s.Unit[i] = Unassigned
	}
	// earliest[v]: max over placed preds of finish+latency, floored at the
	// release time when one is set; remaining[v] counts unplaced preds.
	earliest := ls.earliest
	if ls.rel != nil {
		if len(ls.rel) != n {
			return nil, fmt.Errorf("sched: %d release times for %d nodes", len(ls.rel), n)
		}
		copy(earliest, ls.rel)
	} else {
		clear(earliest)
	}
	remaining := ls.remaining
	copy(remaining, ls.indeg)
	// unitFree[u]: cycle at which global unit u becomes free.
	unitFree := ls.unitFree
	clear(unitFree)
	ready := ls.ready
	clear(ready)
	waiting := ls.waiting[:0]
	nready := 0
	// noUnit is the lowest priority position of a ready node whose class
	// has no units; the scan would reach it in the cycle it became ready.
	noUnit := -1
	for v := 0; v < n; v++ {
		if remaining[v] == 0 {
			waiting = pushWaiting(waiting, earliest, int32(v))
		}
	}

	ls.visits, ls.examined = 0, 0
	for t, scheduled := 0, 0; scheduled < n; {
		ls.visits++
		for len(waiting) > 0 && earliest[waiting[0]] <= t {
			v := waiting[0]
			waiting = popWaiting(waiting, earliest)
			p := int(ppos[v])
			ready.Set(p)
			nready++
			if ls.ucount[ls.class[v]] == 0 && (noUnit < 0 || p < noUnit) {
				noUnit = p
			}
		}
		if noUnit >= 0 {
			v := priority[noUnit]
			return nil, fmt.Errorf("sched: node %d (%s) has class %d with no units",
				v, ls.labels[v], ls.class[v])
		}
		free := 0
		for _, f := range unitFree {
			if f <= t {
				free++
			}
		}
		for p := ready.NextSet(0); p >= 0 && free > 0; p = ready.NextSet(p + 1) {
			ls.examined++
			v := int(priority[p])
			base, count := ls.ubase[ls.class[v]], ls.ucount[ls.class[v]]
			unit := -1
			for u := base; u < base+count; u++ {
				if unitFree[u] <= t {
					unit = u
					break
				}
			}
			if unit < 0 {
				continue
			}
			ready.Clear(p)
			nready--
			free--
			s.Start[v] = t
			s.Unit[v] = unit
			fin := t + int(ls.exec[v])
			unitFree[unit] = fin
			scheduled++
			for e := ls.off[v]; e < ls.off[v+1]; e++ {
				d := ls.dst[e]
				if r := fin + int(ls.lat[e]); r > earliest[d] {
					earliest[d] = r
				}
				if remaining[d]--; remaining[d] == 0 {
					waiting = pushWaiting(waiting, earliest, int32(d))
				}
			}
		}
		next := math.MaxInt
		if len(waiting) > 0 {
			next = earliest[waiting[0]]
		}
		if nready > 0 {
			for _, f := range unitFree {
				if f > t && f < next {
					next = f
				}
			}
		}
		if next == math.MaxInt && scheduled < n {
			return nil, fmt.Errorf("sched: loop-independent subgraph is cyclic (%d of %d nodes scheduled)", scheduled, n)
		}
		t = next
	}
	return s, nil
}

// pushWaiting adds v to the min-heap h keyed by earliest. h never outgrows
// its capacity n: a node is released once per run.
func pushWaiting(h []int32, earliest []int, v int32) []int32 {
	h = append(h, v)
	key := earliest[v]
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if earliest[h[p]] <= key {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = v
	return h
}

// popWaiting removes the root of the min-heap h keyed by earliest.
func popWaiting(h []int32, earliest []int) []int32 {
	last := h[len(h)-1]
	h = h[:len(h)-1]
	n := len(h)
	if n == 0 {
		return h
	}
	key := earliest[last]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && earliest[h[c+1]] < earliest[h[c]] {
			c++
		}
		if earliest[h[c]] >= key {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return h
}

// GreedyEquals reports whether running the greedy list scheduler on the
// given priority list reproduces schedule s exactly (same start times). This
// is the Ordering Constraint test of Definition 2.3.
func GreedyEquals(s *Schedule, priority []graph.NodeID) (bool, error) {
	t, err := ListSchedule(s.G, s.M, priority)
	if err != nil {
		return false, err
	}
	for v := range s.Start {
		if s.Start[v] != t.Start[v] {
			return false, nil
		}
	}
	return true, nil
}

// SourceOrder returns the identity priority list (original program order).
func SourceOrder(g *graph.Graph) []graph.NodeID {
	out := make([]graph.NodeID, g.Len())
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
}
