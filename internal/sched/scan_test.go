package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"aisched/internal/graph"
	"aisched/internal/machine"
)

// scanRun is the front-to-back scan ListScheduler.Run replaced, kept as the
// oracle for the event-driven scheduler: every visited cycle walks the
// whole priority list, starting each released, due node whose class has a
// free unit, and a cycle that starts nothing fast-forwards to the next time
// any released node could start. It reads only the bound view, the release
// times and the unit layout of ls, and returns how many priority entries it
// examined.
func scanRun(ls *ListScheduler, priority []graph.NodeID) (start, unit []int, examined int, err error) {
	n := ls.n
	if len(priority) != n {
		return nil, nil, 0, fmt.Errorf("sched: priority list has %d entries for %d nodes", len(priority), n)
	}
	seen := make([]bool, n)
	for _, id := range priority {
		if id < 0 || int(id) >= n || seen[id] {
			return nil, nil, 0, fmt.Errorf("sched: priority list is not a permutation (node %d)", id)
		}
		seen[id] = true
	}
	start, unit = make([]int, n), make([]int, n)
	for i := range start {
		start[i], unit[i] = Unassigned, Unassigned
	}
	earliest := make([]int, n)
	if ls.rel != nil {
		if len(ls.rel) != n {
			return nil, nil, 0, fmt.Errorf("sched: %d release times for %d nodes", len(ls.rel), n)
		}
		copy(earliest, ls.rel)
	}
	remaining := append([]int(nil), ls.indeg...)
	unitFree := make([]int, ls.m.TotalUnits())

	scheduled := 0
	for t := 0; scheduled < n; t++ {
		progress := false
		for _, id := range priority {
			examined++
			v := int(id)
			if start[v] != Unassigned || remaining[v] > 0 || earliest[v] > t {
				continue
			}
			base, count := ls.ubase[ls.class[v]], ls.ucount[ls.class[v]]
			if count == 0 {
				return nil, nil, examined, fmt.Errorf("sched: node %d (%s) has class %d with no units",
					v, ls.labels[v], ls.class[v])
			}
			u := -1
			for k := base; k < base+count; k++ {
				if unitFree[k] <= t {
					u = k
					break
				}
			}
			if u < 0 {
				continue
			}
			start[v], unit[v] = t, u
			fin := t + int(ls.exec[v])
			unitFree[u] = fin
			scheduled++
			progress = true
			for e := ls.off[v]; e < ls.off[v+1]; e++ {
				d := ls.dst[e]
				remaining[d]--
				if r := fin + int(ls.lat[e]); r > earliest[d] {
					earliest[d] = r
				}
			}
		}
		if !progress && scheduled < n {
			next := -1
			for _, id := range priority {
				v := int(id)
				if start[v] != Unassigned || remaining[v] > 0 {
					continue
				}
				cand := earliest[v]
				base, count := ls.ubase[ls.class[v]], ls.ucount[ls.class[v]]
				uf := -1
				for k := base; k < base+count; k++ {
					if uf == -1 || unitFree[k] < uf {
						uf = unitFree[k]
					}
				}
				if uf > cand {
					cand = uf
				}
				if next == -1 || cand < next {
					next = cand
				}
			}
			if next <= t {
				next = t + 1
			}
			t = next - 1
		}
	}
	return start, unit, examined, nil
}

// scanMachine is one machine of the scan differential with the number of
// unit classes its random nodes draw from.
type scanMachine struct {
	m       *machine.Machine
	classes int
}

// scanMachines covers the folded single unit, one unit per class, a
// two-wide single class, and a machine whose class 1 has no units (every
// node drawn there is a "no units" error at the cycle it becomes ready).
func scanMachines() []scanMachine {
	return []scanMachine{
		{machine.SingleUnit(4), 3},
		{machine.RS6000(4), 3},
		{machine.Superscalar(2, 4), 1},
		{machine.NewMachine("gap", []int{2, 0, 1}, 4), 3},
	}
}

// randomScanDAG draws a DAG with execution times 1–3, latencies 0–3 and
// unit classes 0..classes-1.
func randomScanDAG(r *rand.Rand, n, classes int, p float64) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), 1+r.Intn(3), r.Intn(classes), 0)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.MustEdge(graph.NodeID(i), graph.NodeID(j), r.Intn(4), 0)
			}
		}
	}
	return g
}

// checkAgainstScan runs ls on priority and fails unless the start times,
// units and error match the scan oracle's. It returns the oracle's
// examined-entry count and whether the run succeeded.
func checkAgainstScan(t *testing.T, what string, ls *ListScheduler, priority []graph.NodeID) (int, bool) {
	t.Helper()
	wantStart, wantUnit, scanned, wantErr := scanRun(ls, priority)
	s, err := ls.Run(priority)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, scan error %v", what, err, wantErr)
	}
	if err != nil {
		if err.Error() != wantErr.Error() {
			t.Fatalf("%s: error %q, scan error %q", what, err, wantErr)
		}
		return scanned, false
	}
	for v := range wantStart {
		if s.Start[v] != wantStart[v] || s.Unit[v] != wantUnit[v] {
			t.Fatalf("%s: node %d at %d on unit %d, scan %d on %d\n start %v\n scan  %v",
				what, v, s.Start[v], s.Unit[v], wantStart[v], wantUnit[v], s.Start, wantStart)
		}
	}
	return scanned, true
}

func TestListSchedulerMatchesScan(t *testing.T) {
	machines := scanMachines()
	// One reused scheduler per machine: Reset onto graphs that grow and
	// shrink also pins that no scratch leaks between bindings.
	ls := make([]ListScheduler, len(machines))
	errs := 0
	for seed := int64(0); seed < 1200; seed++ {
		r := rand.New(rand.NewSource(seed))
		mi := int(seed) % len(machines)
		sm := machines[mi]
		g := randomScanDAG(r, 1+r.Intn(24), sm.classes, 0.05+0.4*r.Float64())
		n := g.Len()
		ls[mi].Reset(graph.NewCSR(g).View(), sm.m, g)
		if r.Intn(3) > 0 {
			rel := make([]int, n)
			for i := range rel {
				rel[i] = r.Intn(12) - 4
			}
			ls[mi].SetRelease(rel)
		}
		priority := SourceOrder(g)
		r.Shuffle(n, func(i, j int) { priority[i], priority[j] = priority[j], priority[i] })
		if _, ok := checkAgainstScan(t, fmt.Sprintf("seed %d on %s", seed, sm.m.Name), &ls[mi], priority); !ok {
			errs++
		}
	}
	if errs == 0 {
		t.Fatal("no run hit the no-units error; the zero-unit machine is not exercised")
	}
}

// TestListSchedulerWorkBounds pins Run's work, the deterministic signal
// behind its speed: at most 2n+1 visited cycles (each after the first is an
// earliest start or a unit's finish time), and on single-class machines at
// most n examined ready entries — each one is placed, as the walk stops
// once no unit is free. The scan examines n entries per visited cycle, so
// it breaks the second bound on any schedule that spans two cycles.
func TestListSchedulerWorkBounds(t *testing.T) {
	machines := scanMachines()
	scanOver := 0
	for seed := int64(0); seed < 600; seed++ {
		r := rand.New(rand.NewSource(seed))
		sm := machines[int(seed)%3] // the machines where every node has units
		g := randomScanDAG(r, 1+r.Intn(40), sm.classes, 0.02+0.3*r.Float64())
		n := g.Len()
		ls := NewListSchedulerAcyclic(g, sm.m)
		if r.Intn(2) == 0 {
			rel := make([]int, n)
			for i := range rel {
				rel[i] = r.Intn(3*n) - n
			}
			ls.SetRelease(rel)
		}
		priority := SourceOrder(g)
		r.Shuffle(n, func(i, j int) { priority[i], priority[j] = priority[j], priority[i] })
		scanned, ok := checkAgainstScan(t, fmt.Sprintf("seed %d on %s", seed, sm.m.Name), ls, priority)
		if !ok {
			t.Fatalf("seed %d: run failed", seed)
		}
		visits, examined := ls.Work()
		if visits > 2*n+1 {
			t.Fatalf("seed %d on %s: %d visited cycles for %d nodes, bound %d", seed, sm.m.Name, visits, n, 2*n+1)
		}
		if sm.classes == 1 || sm.m.SingleUnitOnly() {
			if examined > n {
				t.Fatalf("seed %d on %s: %d ready entries examined for %d nodes", seed, sm.m.Name, examined, n)
			}
			if scanned > n {
				scanOver++
			}
		}
	}
	if scanOver == 0 {
		t.Fatal("the scan oracle never examined more than n entries; the bound does not discriminate")
	}
}

// TestListSchedulerRunAllocsOnlySchedule: a steady-state Run allocates the
// returned Schedule and its two slices, nothing else.
func TestListSchedulerRunAllocsOnlySchedule(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := randomScanDAG(r, 40, 3, 0.2)
	ls := NewListSchedulerAcyclic(g, machine.RS6000(4))
	priority := SourceOrder(g)
	if _, err := ls.Run(priority); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(50, func() { _, _ = ls.Run(priority) }); a != 3 {
		t.Fatalf("Run allocates %v times per call, want 3 (Schedule, Start, Unit)", a)
	}
}

// TestListSchedulerCyclicFails: on a cyclic graph that skipped validation,
// Run stops with an error once nothing is left to release.
func TestListSchedulerCyclicFails(t *testing.T) {
	g := graph.New(3)
	for i := 0; i < 3; i++ {
		g.AddUnit(fmt.Sprintf("n%d", i))
	}
	g.MustEdge(1, 2, 0, 0)
	g.MustEdge(2, 1, 0, 0)
	if _, err := NewListSchedulerAcyclic(g, machine.SingleUnit(1)).Run(SourceOrder(g)); err == nil {
		t.Fatal("Run scheduled a cyclic graph")
	}
}

// FuzzListScheduler: the event-driven Run must match the scan oracle on
// start times, units and errors. Layout:
//
//	data[0]          → machine (scanMachines)
//	data[1]          → node count n ∈ [1,16]
//	data[2:2+2n]     → per node two bytes: exec = 1 + a%3, class = (a/3)
//	                   folded to the machine's classes; release =
//	                   int8(b)/8 (so some ≤ 0); b == 0 on every node means
//	                   no release vector
//	data[2+2n]       → seed of the priority permutation
//	rest, in pairs   → edges: a = latency<<6 | src, b = dst; the edge
//	                   src%n → dst%n is added iff src < dst (always a DAG)
func FuzzListScheduler(f *testing.F) {
	f.Add([]byte{0, 4, 0, 0, 1, 0, 2, 0, 0, 0, 9, 0, 1, 1<<6 | 1, 2})
	f.Add([]byte{1, 6, 2, 8, 3, 0xF0, 5, 16, 1, 0, 4, 24, 0, 0, 3, 2 << 6, 1, 1, 3, 3<<6 | 2, 5})
	f.Add([]byte{2, 5, 0, 0, 1, 0, 2, 0, 0, 0, 1, 0, 77, 0, 4, 1, 4})
	f.Add([]byte{3, 4, 0, 0, 3, 8, 1, 0, 4, 0, 5, 0, 1, 1<<6 | 1, 3})
	machines := scanMachines()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		sm := machines[int(data[0])%len(machines)]
		n := 1 + int(data[1])%16
		if len(data) < 3+2*n {
			return
		}
		g := graph.New(n)
		rel := make([]int, n)
		anyRel := false
		for i := 0; i < n; i++ {
			a, b := data[2+2*i], data[3+2*i]
			g.AddNode(fmt.Sprintf("n%d", i), 1+int(a)%3, int(a/3)%sm.classes, 0)
			rel[i] = int(int8(b)) / 8
			anyRel = anyRel || b != 0
		}
		for p := 3 + 2*n; p+1 < len(data); p += 2 {
			src, dst := int(data[p]&0x3F)%n, int(data[p+1])%n
			if src < dst {
				g.MustEdge(graph.NodeID(src), graph.NodeID(dst), int(data[p]>>6), 0)
			}
		}
		ls := NewListSchedulerAcyclic(g, sm.m)
		if anyRel {
			ls.SetRelease(rel)
		}
		priority := SourceOrder(g)
		r := rand.New(rand.NewSource(int64(data[2+2*n])))
		r.Shuffle(n, func(i, j int) { priority[i], priority[j] = priority[j], priority[i] })
		if _, ok := checkAgainstScan(t, sm.m.Name, ls, priority); ok {
			if visits, _ := ls.Work(); visits > 2*n+1 {
				t.Fatalf("%d visited cycles for %d nodes", visits, n)
			}
		}
	})
}
