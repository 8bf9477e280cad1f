package rank

import (
	"fmt"
	"math/rand"
	"testing"

	"aisched/internal/graph"
	"aisched/internal/machine"
)

// Tests for the one-packing rank kernel (Ctx.packSlack): the slack it reads
// off a single earliest-fit placement must be exactly the largest ancestor
// completion time ReferenceCompute's bisection over referencePackFeasible
// probes accepts, on every descendant set the Compute sweep produces.

// randomKernelDAG builds a DAG with execution times 1–4, unit classes
// 0..classes-1 and latencies 0–3: the longer instructions are what make
// earliest-fit leave holes a later descendant cannot use.
func randomKernelDAG(r *rand.Rand, n int, p float64, classes int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), 1+r.Intn(4), r.Intn(classes), 0)
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

// tightDeadlines draws every deadline from a range about the size of the
// graph, a few below zero, so descendant packings contend and some ranks
// fall below their node's execution time.
func tightDeadlines(r *rand.Rand, n int) []int {
	d := make([]int, n)
	for i := range d {
		d[i] = r.Intn(2*n+4) - 2
	}
	return d
}

func TestPackSlackMatchesReferenceBisection(t *testing.T) {
	machines := diffMachines()
	capped, packed := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		dm := machines[seed%int64(len(machines))]
		m := dm.m
		r := rand.New(rand.NewSource(seed))
		g := randomKernelDAG(r, 2+r.Intn(14), 0.15+0.5*r.Float64(), dm.classes)
		d := tightDeadlines(r, g.Len())
		c, err := NewCtx(g, m)
		if err != nil {
			t.Fatalf("seed %d: NewCtx: %v", seed, err)
		}
		// The Compute sweep, opened up to inspect every packing.
		ranks := append([]int(nil), d...)
		for i := len(c.order) - 1; i >= 0; i-- {
			v := c.order[i]
			if len(c.runs[v]) == 0 {
				continue
			}
			run, hi, window := c.packInput(v, d, ranks)
			b := c.packSlack(run, ranks, window)
			ds := c.descendants(run, ranks)
			for at := b - 3; at <= b+3; at++ {
				if got := referencePackFeasible(ds, m, at); got != (at <= b) {
					t.Fatalf("seed %d on %s, node %d: slack %d but reference feasibility at %d is %v",
						seed, m.Name, v, b, at, got)
				}
			}
			// The placement bound behind the closed form: the slack never
			// drops more than maxLat + total − 1 below hi, so the floor
			// hi − 2·(total + maxLat + 2) the reference bisection starts
			// from is always feasible and its "< lo" branch never fires.
			total, maxLat := 0, 0
			for _, u := range ds {
				total += u.exec
				maxLat = max(maxLat, u.lat)
			}
			if b < hi-(maxLat+total-1) {
				t.Fatalf("seed %d on %s, node %d: slack %d more than maxLat+total-1 = %d below hi %d",
					seed, m.Name, v, b, maxLat+total-1, hi)
			}
			if b < hi {
				packed++
			} else {
				capped++
			}
			c.rankNode(v, d, ranks)
		}
		want, err := ReferenceCompute(g, m, d)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		got, err := c.Compute(d)
		if err != nil {
			t.Fatalf("seed %d: Compute: %v", seed, err)
		}
		if !sameInts(ranks, want) || !sameInts(got, want) {
			t.Fatalf("seed %d on %s: ranks differ\n sweep %v\n ctx   %v\n ref   %v", seed, m.Name, ranks, got, want)
		}
	}
	// Both reachable outcomes of rank = min(slack, hi) must be exercised.
	if capped == 0 || packed == 0 {
		t.Fatalf("clamp coverage: slack ≥ hi %d times, slack < hi %d times; want both > 0", capped, packed)
	}
}

// TestCtxReuseAcrossBindings Resets one context onto a sequence of graphs
// that grow and shrink, across all three machines, and on each binding
// interleaves ComputeInto, UpdateOne, Update and a ComputeInto under fresh
// deadlines, comparing every rank vector to ReferenceCompute: packing runs
// filled under one binding, or sorted under one deadline vector, must never
// leak into the next.
func TestCtxReuseAcrossBindings(t *testing.T) {
	machines := diffMachines()
	c := NewReusable()
	sizes := []int{6, 24, 3, 40, 9, 1, 33, 12, 48, 2, 17, 30, 5, 44, 8}
	for round := 0; round < 4; round++ {
		for i, n := range sizes {
			seed := int64(round*len(sizes) + i)
			r := rand.New(rand.NewSource(seed))
			dm := machines[seed%int64(len(machines))]
			m := dm.m
			g := randomKernelDAG(r, n, 0.1+0.4*r.Float64(), dm.classes)
			if err := c.Reset(graph.NewCSR(g).View(), m, g); err != nil {
				t.Fatalf("seed %d: Reset: %v", seed, err)
			}
			check := func(what string, d, got []int) {
				t.Helper()
				want, err := ReferenceCompute(g, m, d)
				if err != nil {
					t.Fatalf("seed %d: reference: %v", seed, err)
				}
				if !sameInts(got, want) {
					t.Fatalf("seed %d (n=%d) on %s, %s: ranks differ\n ctx %v\n ref %v", seed, n, m.Name, what, got, want)
				}
			}
			d := tightDeadlines(r, n)
			ranks := make([]int, n)
			if err := c.ComputeInto(ranks, d); err != nil {
				t.Fatalf("seed %d: ComputeInto: %v", seed, err)
			}
			check("ComputeInto", d, ranks)
			for k := 0; k < 6; k++ {
				v := graph.NodeID(r.Intn(n))
				d[v] -= 1 + r.Intn(3)
				c.UpdateOne(ranks, d, v)
				check("UpdateOne", d, ranks)
				changed := graph.NewBitset(n)
				for j := 0; j < 1+r.Intn(3); j++ {
					u := r.Intn(n)
					d[u] += r.Intn(5) - 2
					changed.Set(u)
				}
				c.Update(ranks, d, changed)
				check("Update", d, ranks)
			}
			// Fresh deadline vectors reorder the runs wholesale, past the
			// insertion-sort budget: loose ones, where the packing decides
			// every rank, then tight ones again.
			for _, fresh := range []string{"loose", "tight"} {
				d = tightDeadlines(r, n)
				if fresh == "loose" {
					for v := range d {
						d[v] += Big / 2
					}
				}
				if err := c.ComputeInto(ranks, d); err != nil {
					t.Fatalf("seed %d: ComputeInto: %v", seed, err)
				}
				check("ComputeInto under fresh "+fresh+" deadlines", d, ranks)
			}
			if fills := c.Fills(); fills > n {
				t.Fatalf("seed %d: %d entry fills for %d nodes in one binding", seed, fills, n)
			}
		}
	}
}

// descendants expands a packing run into the reference's descendant
// entries, in the run's order.
func (c *Ctx) descendants(run []entry, ranks []int) []descendant {
	ds := make([]descendant, len(run))
	for i, e := range run {
		ds[i] = descendant{rank: ranks[e.u], exec: int(c.view.Exec[e.u]),
			class: c.class[e.u], lat: int(e.lat), pos: c.topoPos[e.u]}
	}
	return ds
}

// decodeKernelInstance decodes fuzz bytes into a rank-kernel instance:
//
//	data[0]          → machine: SingleUnit, RS6000 or Superscalar(2)
//	data[1]          → node count n ∈ [2,13]
//	data[2:2+2n]     → per node two bytes: exec = 1 + a&3, class = a>>2
//	                   (folded to the machine's classes); deadline =
//	                   int8(b), or Big when b == 0x7F
//	rest, in pairs   → edges: a = latency<<6 | src, b = dst; the edge
//	                   src%n → dst%n is added iff src < dst (always a DAG)
//
// Returns nil when data is too short to describe an instance.
func decodeKernelInstance(data []byte) (*graph.Graph, *machine.Machine, []int) {
	if len(data) < 2 {
		return nil, nil, nil
	}
	dm := diffMachines()[int(data[0])%3]
	n := 2 + int(data[1])%12
	if len(data) < 2+2*n {
		return nil, nil, nil
	}
	g := graph.New(n)
	d := make([]int, n)
	for i := 0; i < n; i++ {
		a, b := data[2+2*i], data[3+2*i]
		g.AddNode(fmt.Sprintf("n%d", i), 1+int(a&3), int(a>>2)%dm.classes, 0)
		d[i] = int(int8(b))
		if b == 0x7F {
			d[i] = Big
		}
	}
	for p := 2 + 2*n; p+1 < len(data); p += 2 {
		src, dst := int(data[p]&0x3F)%n, int(data[p+1])%n
		if src < dst {
			g.MustEdge(graph.NodeID(src), graph.NodeID(dst), int(data[p]>>6), 0)
		}
	}
	return g, dm.m, d
}

// FuzzRankKernel: Ctx.Compute, and Ctx.UpdateOne/Update after single and
// batched deadline changes, must be bit-identical to ReferenceCompute.
func FuzzRankKernel(f *testing.F) {
	// Earliest-fit leaves a hole: on one unit, exec-1 n1 (rank 6, released
	// 2 after n0) takes slot 2, so exec-3 n2 (rank 7) cannot start at 0 and
	// packs at 3; its slack 7−3−3 = 1 sets rank(n0) below hi = 3.
	f.Add([]byte{0, 1, 0, 6, 0, 6, 2, 7, 2<<6 | 0, 1, 0, 2})
	// Deeply infeasible: six exec-4 children of n0 with deadlines near −100
	// on one unit, ranks far below every execution time.
	f.Add([]byte{0, 5, 0, 0x7F, 3, 0x9C, 3, 0x9C, 3, 0x9D, 3, 0x9E, 3, 0x9C, 3, 0x9C,
		0, 1, 0, 2, 1<<6 | 0, 3, 0, 4, 3<<6 | 0, 5, 0, 6})
	// Multi-class contention on RS6000 with every latency.
	f.Add([]byte{1, 6, 0, 40, 5, 12, 6, 10, 9, 14, 2, 9, 7, 11, 0, 0x7F,
		0, 1, 1<<6 | 0, 2, 2<<6 | 1, 3, 3<<6 | 2, 4, 1, 5, 3, 6, 4, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, m, d := decodeKernelInstance(data)
		if g == nil {
			return
		}
		c, err := NewCtx(g, m)
		if err != nil {
			t.Fatalf("NewCtx: %v", err)
		}
		check := func(what string, got []int) {
			t.Helper()
			want, err := ReferenceCompute(g, m, d)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			if !sameInts(got, want) {
				t.Fatalf("%s on %s, deadlines %v: ranks differ\n ctx %v\n ref %v", what, m.Name, d, got, want)
			}
		}
		ranks, err := c.Compute(d)
		if err != nil {
			t.Fatalf("Compute: %v", err)
		}
		check("Compute", ranks)
		n := g.Len()
		for i := 0; i < min(n, 4); i++ {
			v := graph.NodeID((i * 5) % n)
			d[v] -= 1 + i%3
			c.UpdateOne(ranks, d, v)
			check("UpdateOne", ranks)
		}
		changed := graph.NewBitset(n)
		for i := 0; i < min(n, 3); i++ {
			d[i] += 2
			changed.Set(i)
		}
		c.Update(ranks, d, changed)
		check("Update", ranks)
	})
}
