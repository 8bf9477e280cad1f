package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"aisched/internal/cfg"
	"aisched/internal/deps"
	"aisched/internal/graph"
	"aisched/internal/isa"
	"aisched/internal/machine"
	"aisched/internal/minic"
	"aisched/internal/obs"
	"aisched/internal/rank"
	"aisched/internal/sbudget"
	"aisched/internal/workload"
)

// mergeRoundsLinear is Step.mergeRounds without the steady-state jump:
// every loosening round re-ranks and reschedules. It is the oracle the
// jumping loop must match.
func mergeRoundsLinear(st *Step, in *StepIn, d, ranks []int, newMask graph.Bitset, repin bool) (*rank.Result, error) {
	rc := st.rc
	view := in.View
	sn := view.N
	if err := rc.ComputeInto(ranks, d); err != nil {
		return nil, err
	}
	res, err := rc.RunRanks(ranks, d, in.Tie)
	if err != nil {
		return nil, err
	}
	mb := 1
	if view.MaxLat > mb {
		mb = view.MaxLat
	}
	mb = 4 * (sn + mb + 2)
	for bump := 0; !res.Feasible && bump <= mb; bump++ {
		if tr := in.Tracer; tr != nil && !repin {
			tr.Emit(obs.Event{Kind: obs.KindMergeLoosen, Block: in.Block,
				Node: graph.None, N: bump + 1})
		}
		for si := 0; si < sn; si++ {
			if !in.IsOld[si] {
				d[si]++
			}
		}
		rc.Update(ranks, d, newMask)
		res, err = rc.RunRanks(ranks, d, in.Tie)
		if err != nil {
			return nil, err
		}
	}
	changedMask := graph.NewBitset(sn)
	for tries := 0; !res.Feasible && tries < 30; tries++ {
		clear(changedMask)
		changed := false
		for si := 0; si < sn; si++ {
			if f := res.S.Finish(graph.NodeID(si)); f > d[si] {
				d[si] = f
				changedMask.Set(si)
				changed = true
			}
		}
		if !changed {
			break
		}
		rc.Update(ranks, d, changedMask)
		res, err = rc.RunRanks(ranks, d, in.Tie)
		if err != nil {
			return nil, err
		}
	}
	if !res.Feasible {
		for si := 0; si < sn; si++ {
			if f := res.S.Finish(graph.NodeID(si)); f > d[si] {
				d[si] = f
			}
		}
	}
	return res, nil
}

// mergeInstance is one captured mergeRounds call: a deep copy of its step
// input (without tracer and budget) and its assigned deadlines.
type mergeInstance struct {
	in    StepIn
	d     []int
	repin bool
}

// captureMerges runs walk with mergeObserver installed and returns every
// merge instance the walk's steps saw.
func captureMerges(walk func()) []mergeInstance {
	var out []mergeInstance
	mergeObserver = func(in *StepIn, d []int, repin bool) {
		c := *in
		v := in.View
		c.View = graph.AdjView{N: v.N, Off: slices.Clone(v.Off), Dst: slices.Clone(v.Dst),
			Lat: slices.Clone(v.Lat), Exec: slices.Clone(v.Exec), Class: slices.Clone(v.Class),
			Block: slices.Clone(v.Block), Labels: slices.Clone(v.Labels), MaxLat: v.MaxLat}
		c.Tie = slices.Clone(in.Tie)
		c.IsOld = slices.Clone(in.IsOld[:v.N])
		c.DOld = slices.Clone(in.DOld)
		c.FOld = slices.Clone(in.FOld)
		c.ROld = slices.Clone(in.ROld)
		c.Tracer, c.Budget = nil, nil
		out = append(out, mergeInstance{in: c, d: slices.Clone(d), repin: repin})
	}
	defer func() { mergeObserver = nil }()
	walk()
	return out
}

// mergeOutcome is everything a merge produces that the two loops must agree
// on, plus the work counters they must not.
type mergeOutcome struct {
	d, ranks, start, unit []int
	feasible              bool
	loosens               []int // N of each KindMergeLoosen event
	err                   string
	passes, listRuns      int
}

// replayMerge runs inst on a fresh Step, bound exactly as Step.Run binds its
// rank context, through the jumping loop or the linear oracle.
func replayMerge(inst *mergeInstance, linear bool, budget *sbudget.State) mergeOutcome {
	in := inst.in
	sn := in.View.N
	rec := obs.NewRecorder()
	in.Tracer, in.Budget = rec, budget
	st := &Step{rc: rank.NewReusable()}
	if err := st.rc.Reset(in.View, in.M, nil); err != nil {
		return mergeOutcome{err: err.Error()}
	}
	st.rc.SetBudget(budget)
	if in.ROld != nil {
		rel := make([]int, sn)
		for si := range rel {
			rel[si] = max(in.ROld[si], 0)
		}
		st.rc.SetRelease(rel)
	}
	d := slices.Clone(inst.d)
	ranks := make([]int, sn)
	newMask := graph.NewBitset(sn)
	for si, old := range in.IsOld {
		if !old {
			newMask.Set(si)
		}
	}
	var res *rank.Result
	var err error
	if linear {
		res, err = mergeRoundsLinear(st, &in, d, ranks, newMask, inst.repin)
	} else {
		res, err = st.mergeRounds(&in, d, ranks, newMask, st.rc.Closed(newMask), inst.repin)
	}
	out := mergeOutcome{d: d, ranks: ranks}
	out.passes, out.listRuns = st.rc.WorkCounts()
	for _, e := range rec.Events() {
		if e.Kind == obs.KindMergeLoosen {
			if e.Block != in.Block {
				out.err = fmt.Sprintf("loosen event for block %d in block %d", e.Block, in.Block)
			}
			out.loosens = append(out.loosens, e.N)
		}
	}
	if err != nil {
		out.err += err.Error()
		return out
	}
	out.start, out.unit, out.feasible = res.S.Start, res.S.Unit, res.Feasible
	return out
}

// diffOutcome reports the first disagreement between two merge outcomes.
func diffOutcome(got, want mergeOutcome) error {
	switch {
	case got.err != want.err:
		return fmt.Errorf("error %q, want %q", got.err, want.err)
	case !slices.Equal(got.d, want.d):
		return fmt.Errorf("deadlines %v, want %v", got.d, want.d)
	case !slices.Equal(got.ranks, want.ranks):
		return fmt.Errorf("ranks %v, want %v", got.ranks, want.ranks)
	case !slices.Equal(got.start, want.start) || !slices.Equal(got.unit, want.unit):
		return fmt.Errorf("schedule %v/%v, want %v/%v", got.start, got.unit, want.start, want.unit)
	case got.feasible != want.feasible:
		return fmt.Errorf("feasible %v, want %v", got.feasible, want.feasible)
	case !slices.Equal(got.loosens, want.loosens):
		return fmt.Errorf("loosen events %v, want %v", got.loosens, want.loosens)
	case got.passes != want.passes:
		return fmt.Errorf("%d rank passes, want %d", got.passes, want.passes)
	}
	return nil
}

// walkMerges captures the merge instances of one sequential Lookahead walk.
func walkMerges(tb testing.TB, g *graph.Graph, m *machine.Machine) []mergeInstance {
	tb.Helper()
	var err error
	insts := captureMerges(func() { _, err = LookaheadOpts(g, m, Options{Parallel: -1}) })
	if err != nil {
		tb.Fatal(err)
	}
	return insts
}

// programTraces compiles n random mini-C programs and returns the dependence
// graph of every selected trace.
func programTraces(tb testing.TB, r *rand.Rand, n int) []*graph.Graph {
	tb.Helper()
	var out []*graph.Graph
	for p := 0; p < n; p++ {
		c, err := minic.Compile(workload.RandomProgram(r, 24))
		if err != nil {
			tb.Fatal(err)
		}
		cg, err := cfg.FromCompiled(c)
		if err != nil {
			tb.Fatal(err)
		}
		for _, tr := range cg.SelectTraces() {
			var blocks [][]isa.Instr
			for _, bi := range tr {
				if bs := cg.Blocks[bi].Instrs; len(bs) > 0 {
					blocks = append(blocks, bs)
				}
			}
			out = append(out, deps.BuildTrace(blocks))
		}
	}
	return out
}

// mergeCorpus is the oracle test's instance set: compiled programs, long
// traces and default traces walked on RS6000(4), Superscalar(2,4) and
// SingleUnit(4). Superscalar(2,4) has only fixed-point units, so it runs the
// single-class traces.
func mergeCorpus(t *testing.T) []mergeInstance {
	t.Helper()
	r := rand.New(rand.NewSource(1414))
	multi := programTraces(t, r, 12)
	var single []*graph.Graph
	for i := 0; i < 2; i++ {
		g, err := workload.LongTrace(r, workload.DefaultLongTrace(48))
		if err != nil {
			t.Fatal(err)
		}
		single = append(single, g)
	}
	for i := 0; i < 30; i++ {
		tc := workload.DefaultTrace()
		if i%2 == 1 {
			tc.Classes, tc.MaxExec = 3, 2
		}
		g, err := workload.Trace(r, tc)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			multi = append(multi, g)
		} else {
			single = append(single, g)
		}
	}
	var insts []mergeInstance
	for _, m := range []*machine.Machine{machine.RS6000(4), machine.Superscalar(2, 4), machine.SingleUnit(4)} {
		graphs := single
		if m.Name != machine.Superscalar(2, 4).Name {
			graphs = append(graphs, multi...)
		}
		for _, g := range graphs {
			insts = append(insts, walkMerges(t, g, m)...)
		}
	}
	return insts
}

func TestMergeSteadyJumpMatchesLinear(t *testing.T) {
	insts := mergeCorpus(t)
	if len(insts) < 1000 {
		t.Fatalf("corpus has %d merge instances, want ≥ 1000", len(insts))
	}
	repins, jumped := 0, 0
	for i := range insts {
		inst := &insts[i]
		for _, repin := range []bool{inst.repin, !inst.repin} {
			if repin {
				repins++
			}
			c := *inst
			c.repin = repin
			want := replayMerge(&c, true, nil)
			got := replayMerge(&c, false, nil)
			if err := diffOutcome(got, want); err != nil {
				t.Fatalf("instance %d (block %d, %d nodes, %s, repin %v): %v",
					i, c.in.Block, c.in.View.N, c.in.M.Name, repin, err)
			}
			if got.listRuns < want.listRuns {
				jumped++
			}
		}
	}
	if jumped == 0 {
		t.Fatal("the steady-state jump never fired on the corpus")
	}
	t.Logf("%d instances, %d repin replays, %d replays jumped", len(insts), repins, jumped)
}

// TestMergeSteadyJumpBudget cuts the rank-pass budget of an exhausting merge
// at every pass: both loops must fail at the same pass with the same error
// and leave the same deadlines, ranks and events behind.
func TestMergeSteadyJumpBudget(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var inst *mergeInstance
	var full mergeOutcome
	for _, g := range programTraces(t, r, 8) {
		for _, c := range walkMerges(t, g, machine.RS6000(4)) {
			want, got := replayMerge(&c, true, nil), replayMerge(&c, false, nil)
			// An exhausting instance runs every loosening round; the jump
			// must have shortened it.
			v := c.in.View
			if len(want.loosens) == 4*(v.N+max(v.MaxLat, 1)+2)+1 && got.listRuns < want.listRuns {
				inst, full = &c, want
				break
			}
		}
		if inst != nil {
			break
		}
	}
	if inst == nil {
		t.Fatal("no exhausting merge instance in the corpus")
	}
	for k := 1; k <= full.passes; k++ {
		bw := sbudget.New(context.Background(), 0, k)
		bg := sbudget.New(context.Background(), 0, k)
		want := replayMerge(inst, true, bw)
		got := replayMerge(inst, false, bg)
		if err := diffOutcome(got, want); err != nil {
			t.Fatalf("budget %d of %d passes: %v", k, full.passes, err)
		}
		if bg.Passes() != bw.Passes() {
			t.Fatalf("budget %d: charged %d passes, want %d", k, bg.Passes(), bw.Passes())
		}
		if (want.err == "") != (k == full.passes) {
			t.Fatalf("budget %d of %d passes: error %q", k, full.passes, want.err)
		}
	}
}

// TestMergeWorkCounters pins the jump's work on a seeded program corpus on
// RS6000(4): exactly the oracle's rank passes, and at least 4× fewer list
// scheduler runs.
func TestMergeWorkCounters(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	var oPasses, oRuns, jPasses, jRuns, rounds, merges int
	for _, g := range programTraces(t, r, 40) {
		for _, c := range walkMerges(t, g, machine.RS6000(4)) {
			want, got := replayMerge(&c, true, nil), replayMerge(&c, false, nil)
			oPasses += want.passes
			oRuns += want.listRuns
			jPasses += got.passes
			jRuns += got.listRuns
			rounds += len(want.loosens)
			merges++
		}
	}
	t.Logf("%d merges: %d loosening rounds; rank passes %d (oracle %d); list runs %d (oracle %d)",
		merges, rounds, jPasses, oPasses, jRuns, oRuns)
	if jPasses != oPasses {
		t.Fatalf("charged %d rank passes, oracle %d", jPasses, oPasses)
	}
	if 4*jRuns > oRuns {
		t.Fatalf("%d list runs, oracle %d: want ≥ 4× fewer", jRuns, oRuns)
	}
}

func FuzzMergeLoosen(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(3), uint8(0))
	f.Add(int64(2), uint8(30), uint8(5), uint8(1))
	f.Add(int64(3), uint8(12), uint8(2), uint8(2))
	f.Add(int64(4), uint8(40), uint8(6), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n, nblocks, mach uint8) {
		cases := []struct {
			m       *machine.Machine
			classes int
		}{
			{machine.RS6000(4), 3},
			{machine.Superscalar(2, 4), 1},
			{machine.SingleUnit(4), 3},
			{machine.SingleUnit(2), 1},
		}
		cs := cases[int(mach)%len(cases)]
		r := rand.New(rand.NewSource(seed))
		g := randomDiffTrace(r, 2+int(n)%48, 1+int(nblocks)%8, 0.1+0.4*r.Float64(), cs.classes)
		for i, c := range walkMerges(t, g, cs.m) {
			c.repin = c.repin || i%3 == 2
			if err := diffOutcome(replayMerge(&c, false, nil), replayMerge(&c, true, nil)); err != nil {
				t.Fatalf("instance %d (block %d): %v", i, c.in.Block, err)
			}
		}
	})
}
