package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"aisched/internal/graph"
	"aisched/internal/idle"
	"aisched/internal/machine"
	"aisched/internal/rank"
	"aisched/internal/sched"
)

// Differential test: LookaheadOpts on the context-based engine (shared
// rank.Ctx per induced subgraph, incremental re-ranks on loosen/fallback,
// ctx-driven Delay_Idle_Slots, binary-search chop) must be bit-identical to
// referenceLookahead below, which rebuilds the pipeline from the retained
// naive pieces exactly as the pre-context implementation did.

// referenceLookahead mirrors LookaheadOpts using rank.ReferenceCompute /
// rank.ReferenceRun, idle.ReferenceDelayIdleSlots and a linear-scan chop.
func referenceLookahead(g *graph.Graph, m *machine.Machine, opt Options) (*Result, error) {
	if g.Len() == 0 {
		return &Result{Order: nil, BlockOrders: map[int][]graph.NodeID{}, S: sched.New(g, m)}, nil
	}
	if !g.IsAcyclic() {
		return nil, fmt.Errorf("core: trace graph has a loop-independent cycle")
	}
	blocks := sched.Blocks(g)
	byBlock := make(map[int][]graph.NodeID)
	for v := 0; v < g.Len(); v++ {
		b := g.Node(graph.NodeID(v)).Block
		byBlock[b] = append(byBlock[b], graph.NodeID(v))
	}
	tiePos := make([]int, g.Len())
	if opt.Tie != nil {
		for i, id := range opt.Tie {
			tiePos[id] = i
		}
	} else {
		for i := range tiePos {
			tiePos[i] = i
		}
	}
	var emitted []graph.NodeID
	var oldIDs []graph.NodeID
	dOld := map[graph.NodeID]int{}
	fOld := map[graph.NodeID]int{}
	relAbs := make([]int, g.Len()) // absolute releases from committed latencies
	oldMakespan := 0
	var plusOrder []graph.NodeID
	timeBase := 0
	absStart := make([]int, g.Len())
	absUnit := make([]int, g.Len())
	for i := range absStart {
		absStart[i] = sched.Unassigned
		absUnit[i] = sched.Unassigned
	}
	for _, b := range blocks {
		newIDs := byBlock[b]
		keep := make(map[graph.NodeID]bool, len(oldIDs)+len(newIDs))
		for _, id := range oldIDs {
			keep[id] = true
		}
		for _, id := range newIDs {
			keep[id] = true
		}
		sub, ids := g.Induced(keep)
		toSub := make(map[graph.NodeID]graph.NodeID, len(ids))
		for si, oi := range ids {
			toSub[oi] = graph.NodeID(si)
		}
		isOld := make([]bool, sub.Len())
		for _, id := range oldIDs {
			isOld[toSub[id]] = true
		}
		tie := subTie(ids, tiePos)
		rel := make([]int, sub.Len())
		for si, oi := range ids {
			rel[si] = relAbs[oi] - timeBase
		}

		res0, err := rank.ReferenceRunRel(sub, m, rank.UniformDeadlines(sub.Len(), rank.Big), tie, rel)
		if err != nil {
			return nil, err
		}
		t := res0.S.Makespan()
		d := make([]int, sub.Len())
		for si := 0; si < sub.Len(); si++ {
			if isOld[si] {
				d[si] = dOld[ids[si]]
				if oldMakespan < d[si] {
					d[si] = oldMakespan
				}
			} else {
				d[si] = t
			}
		}
		// mergeRounds mirrors Step.mergeRounds: re-rank under the assigned
		// deadlines, loosen the new deadlines until feasible, then the §4.2
		// heuristic fallback syncing deadlines to achieved finishes.
		mergeRounds := func(d []int) (*sched.Schedule, error) {
			res, err := rank.ReferenceRunRel(sub, m, d, tie, rel)
			if err != nil {
				return nil, err
			}
			for bump := 0; !res.Feasible && bump <= maxBump(sub); bump++ {
				for si := 0; si < sub.Len(); si++ {
					if !isOld[si] {
						d[si]++
					}
				}
				res, err = rank.ReferenceRunRel(sub, m, d, tie, rel)
				if err != nil {
					return nil, err
				}
			}
			for tries := 0; !res.Feasible && tries < 30; tries++ {
				changed := false
				for si := 0; si < sub.Len(); si++ {
					if f := res.S.Finish(graph.NodeID(si)); f > d[si] {
						d[si] = f
						changed = true
					}
				}
				if !changed {
					break
				}
				res, err = rank.ReferenceRunRel(sub, m, d, tie, rel)
				if err != nil {
					return nil, err
				}
			}
			if !res.Feasible {
				for si := 0; si < sub.Len(); si++ {
					if f := res.S.Finish(graph.NodeID(si)); f > d[si] {
						d[si] = f
					}
				}
			}
			return res.S, nil
		}
		s, err := mergeRounds(d)
		if err != nil {
			return nil, err
		}
		if !opt.SkipDelay {
			s, d, err = idle.ReferenceDelayIdleSlotsRel(s, m, d, tie, rel)
			if err != nil {
				return nil, err
			}
		}
		// Window-realizability repair, mirroring Step.Run: in the restricted
		// model, if the predicted execution is unreachable from the static
		// order under the anchored W-window, redo the merge with old deadlines
		// pinned to carried finish times.
		if referenceRestricted(sub, m) && !referenceWindowRealizable(s, sub, m.Window) {
			dSave := append([]int(nil), d...)
			sSave := s
			for si := 0; si < sub.Len(); si++ {
				if isOld[si] {
					d[si] = fOld[ids[si]]
				} else {
					d[si] = t
				}
			}
			s2, err := mergeRounds(d)
			if err != nil {
				return nil, err
			}
			if !opt.SkipDelay {
				s2, d, err = idle.ReferenceDelayIdleSlotsRel(s2, m, d, tie, rel)
				if err != nil {
					return nil, err
				}
			}
			if referenceWindowRealizable(s2, sub, m.Window) {
				s = s2
			} else {
				s = sSave
				copy(d, dSave)
			}
		}
		minus, plus, base := referenceChop(s, m.Window)
		for _, si := range minus {
			oi := ids[si]
			emitted = append(emitted, oi)
			absStart[oi] = s.Start[si] + timeBase
			absUnit[oi] = s.Unit[si]
			// Mirror LookaheadOpts: record the committed node's latency
			// lower bounds as absolute releases on its destinations.
			f := absStart[oi] + g.Node(oi).Exec
			for _, e := range g.Out(oi) {
				if e.Distance != 0 {
					continue
				}
				if r := f + e.Latency; r > relAbs[e.Dst] {
					relAbs[e.Dst] = r
				}
			}
		}
		oldIDs = oldIDs[:0]
		dOld = map[graph.NodeID]int{}
		fOld = map[graph.NodeID]int{}
		plusOrder = plusOrder[:0]
		for _, si := range plus {
			oi := ids[si]
			oldIDs = append(oldIDs, oi)
			dOld[oi] = d[si] - base
			fOld[oi] = s.Finish(si) - base
			plusOrder = append(plusOrder, oi)
			absStart[oi] = s.Start[si] + timeBase
			absUnit[oi] = s.Unit[si]
		}
		oldMakespan = s.Makespan() - base
		timeBase += base
	}
	emitted = append(emitted, plusOrder...)
	if len(emitted) != g.Len() {
		return nil, fmt.Errorf("core: emitted %d of %d instructions", len(emitted), g.Len())
	}
	final := sched.New(g, m)
	copy(final.Start, absStart)
	copy(final.Unit, absUnit)
	out := &Result{Order: emitted, BlockOrders: map[int][]graph.NodeID{}, S: final}
	for _, id := range emitted {
		b := g.Node(id).Block
		out.BlockOrders[b] = append(out.BlockOrders[b], id)
	}
	return out, nil
}

// referenceRestricted mirrors Step.restrictedModel on the induced subgraph.
func referenceRestricted(sub *graph.Graph, m *machine.Machine) bool {
	if m.TotalUnits() != 1 {
		return false
	}
	for v := 0; v < sub.Len(); v++ {
		if sub.Node(graph.NodeID(v)).Exec != 1 {
			return false
		}
		for _, e := range sub.Out(graph.NodeID(v)) {
			if e.Latency > 1 {
				return false
			}
		}
	}
	return true
}

// referenceWindowRealizable is the naive mirror of Step.windowRealizable:
// every node must lie within w static positions of the statically-oldest
// instruction still unissued at its start time.
func referenceWindowRealizable(s *sched.Schedule, sub *graph.Graph, w int) bool {
	n := sub.Len()
	static := make([]graph.NodeID, n)
	byTime := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		static[i] = graph.NodeID(i)
		byTime[i] = graph.NodeID(i)
	}
	sort.Slice(static, func(i, j int) bool {
		a, b := static[i], static[j]
		if sub.Node(a).Block != sub.Node(b).Block {
			return sub.Node(a).Block < sub.Node(b).Block
		}
		return s.Start[a] < s.Start[b]
	})
	pos := make([]int, n)
	for i, id := range static {
		pos[id] = i
	}
	sort.Slice(byTime, func(i, j int) bool { return s.Start[byTime[i]] < s.Start[byTime[j]] })
	minPos := n
	for i := n - 1; i >= 0; i-- {
		p := pos[byTime[i]]
		if p < minPos {
			minPos = p
		}
		if p-minPos >= w {
			return false
		}
	}
	return true
}

// referenceChop is chop with the original per-slot linear rescan of the
// permutation in place of the binary search.
func referenceChop(s *sched.Schedule, w int) (minus, plus []graph.NodeID, base int) {
	perm := s.Permutation()
	if len(perm) < w {
		return nil, perm, 0
	}
	j := -1
	for _, t := range s.IdleSlots() {
		after := 0
		for _, id := range perm {
			if s.Start[id] > t {
				after++
			}
		}
		if after >= w && t > j {
			j = t
		}
	}
	if j < 0 {
		return nil, perm, 0
	}
	for _, id := range perm {
		if s.Finish(id) <= j {
			minus = append(minus, id)
		} else {
			plus = append(plus, id)
		}
	}
	if len(minus) == 0 {
		return nil, perm, 0
	}
	return minus, plus, j + 1
}

// randomTrace builds an acyclic multi-block trace with forward edges only.
func randomDiffTrace(r *rand.Rand, n, nblocks int, p float64, classes int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), 1+r.Intn(2), r.Intn(classes), i*nblocks/n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.MustEdge(graph.NodeID(i), graph.NodeID(j), r.Intn(3), 0)
			}
		}
	}
	return g
}

// randomInterleavedTrace builds an acyclic trace whose block numbering
// interleaves node IDs (node i is in block i mod k), with edges only from a
// lower-or-equal block to a higher-or-equal one — a layout the walk must
// regroup by block before visiting it.
func randomInterleavedTrace(r *rand.Rand, n, k int, p float64, classes int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), 1+r.Intn(2), r.Intn(classes), i%k)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			// (block, ID) order is a topological order, so the trace stays
			// acyclic.
			if bi, bj := i%k, j%k; (bi < bj || bi == bj && i < j) && r.Float64() < p {
				g.MustEdge(graph.NodeID(i), graph.NodeID(j), r.Intn(3), 0)
			}
		}
	}
	return g
}

// TestDifferentialLookaheadMatchesReference holds LookaheadOpts bit-identical
// to referenceLookahead on random block-grouped traces, plus two inputs per
// seed that exercise the walk's non-default paths: a trace with interleaved
// block numbering, and a reversed custom Tie.
func TestDifferentialLookaheadMatchesReference(t *testing.T) {
	cases := []struct {
		m       *machine.Machine
		classes int
	}{
		{machine.SingleUnit(4), 3},
		{machine.RS6000(4), 3},
		{machine.Superscalar(2, 4), 1},
		{machine.SingleUnit(2), 1},
	}
	for seed := int64(0); seed < 40; seed++ {
		cs := cases[seed%int64(len(cases))]
		r := rand.New(rand.NewSource(seed))
		g := randomDiffTrace(r, 4+r.Intn(20), 1+r.Intn(4), 0.3, cs.classes)
		opt := Options{SkipDelay: seed%5 == 4}
		interleaved := randomInterleavedTrace(r, 4+r.Intn(20), 2+r.Intn(3), 0.3, cs.classes)
		reversed := opt
		reversed.Tie = make([]graph.NodeID, g.Len())
		for i := range reversed.Tie {
			reversed.Tie[i] = graph.NodeID(g.Len() - 1 - i)
		}
		requireMatchesReference(t, fmt.Sprintf("seed %d", seed), g, cs.m, opt)
		requireMatchesReference(t, fmt.Sprintf("seed %d interleaved", seed), interleaved, cs.m, opt)
		requireMatchesReference(t, fmt.Sprintf("seed %d reversed tie", seed), g, cs.m, reversed)
	}
}

// requireMatchesReference asserts LookaheadOpts and referenceLookahead agree
// on g to the bit: emission order, placements, and per-block static orders.
func requireMatchesReference(t *testing.T, tag string, g *graph.Graph, m *machine.Machine, opt Options) {
	t.Helper()
	want, err := referenceLookahead(g, m, opt)
	if err != nil {
		t.Fatalf("%s: reference: %v", tag, err)
	}
	got, err := LookaheadOpts(g, m, opt)
	if err != nil {
		t.Fatalf("%s: optimized: %v", tag, err)
	}
	if fmt.Sprint(got.Order) != fmt.Sprint(want.Order) {
		t.Fatalf("%s on %s: orders differ\n got %v\n want %v",
			tag, m.Name, got.Order, want.Order)
	}
	for v := 0; v < g.Len(); v++ {
		if got.S.Start[v] != want.S.Start[v] || got.S.Unit[v] != want.S.Unit[v] {
			t.Fatalf("%s on %s: schedule differs at node %d: (%d,%d) vs (%d,%d)",
				tag, m.Name, v, got.S.Start[v], got.S.Unit[v], want.S.Start[v], want.S.Unit[v])
		}
	}
	var gb, wb []int
	for b := range got.BlockOrders {
		gb = append(gb, b)
	}
	for b := range want.BlockOrders {
		wb = append(wb, b)
	}
	sort.Ints(gb)
	sort.Ints(wb)
	if fmt.Sprint(gb) != fmt.Sprint(wb) {
		t.Fatalf("%s: block sets differ: %v vs %v", tag, gb, wb)
	}
	for _, b := range gb {
		if fmt.Sprint(got.BlockOrders[b]) != fmt.Sprint(want.BlockOrders[b]) {
			t.Fatalf("%s: block %d orders differ\n got %v\n want %v",
				tag, b, got.BlockOrders[b], want.BlockOrders[b])
		}
	}
}
