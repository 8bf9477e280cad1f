package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"aisched/internal/testutil"
)

// randSpec is a reproducible random graph description the tests can rebuild
// with cosmetic variations (labels, edge insertion order, capacity) that
// must not change the fingerprint.
type randSpec struct {
	n     int
	exec  []int
	class []int
	block []int
	edges []Edge
}

func newRandSpec(r *rand.Rand) randSpec {
	n := 2 + r.Intn(14)
	sp := randSpec{n: n}
	for v := 0; v < n; v++ {
		sp.exec = append(sp.exec, 1+r.Intn(3))
		sp.class = append(sp.class, r.Intn(2))
		sp.block = append(sp.block, r.Intn(3))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < 0.3 {
				sp.edges = append(sp.edges, Edge{Src: NodeID(i), Dst: NodeID(j), Latency: r.Intn(4), Distance: 0})
			}
		}
	}
	// A couple of loop-carried edges so Distance participates. Keep
	// (src, dst, distance) triples unique so every perturbation below
	// genuinely changes the graph (AddEdge collapses parallel edges).
	seen := map[[3]int]bool{}
	for k := 0; k < 2 && n > 2; k++ {
		e := Edge{Src: NodeID(r.Intn(n)), Dst: NodeID(r.Intn(n)), Latency: r.Intn(4), Distance: 1 + r.Intn(2)}
		key := [3]int{int(e.Src), int(e.Dst), e.Distance}
		if seen[key] {
			continue
		}
		seen[key] = true
		sp.edges = append(sp.edges, e)
	}
	return sp
}

// build materializes the spec. label controls the cosmetic node labels;
// edgePerm, when non-nil, is the order in which edges are inserted; cap is
// the construction capacity hint.
func (sp randSpec) build(label string, edgePerm []int, capacity int) *Graph {
	g := New(capacity)
	for v := 0; v < sp.n; v++ {
		g.AddNode(fmt.Sprintf("%s%d", label, v), sp.exec[v], sp.class[v], sp.block[v])
	}
	order := edgePerm
	if order == nil {
		order = make([]int, len(sp.edges))
		for i := range order {
			order[i] = i
		}
	}
	for _, i := range order {
		e := sp.edges[i]
		g.MustEdge(e.Src, e.Dst, e.Latency, e.Distance)
	}
	return g
}

var fpUnits = []int{1, 1}

const fpWindow = 4

// TestFingerprintRelabelledGraphsCollide is the soundness half of the memo
// key: the same instance rebuilt with different labels, a shuffled edge
// insertion order, and a different capacity hint — an isomorphic,
// relabelled construction of the same program — must produce the same
// fingerprint.
func TestFingerprintRelabelledGraphsCollide(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		sp := newRandSpec(r)
		a := sp.build("a", nil, sp.n)
		perm := r.Perm(len(sp.edges))
		b := sp.build("completely-different-label", perm, 4*sp.n+7)
		fa := a.Fingerprint(fpUnits, fpWindow)
		fb := b.Fingerprint(fpUnits, fpWindow)
		if fa != fb {
			t.Fatalf("seed %d: relabelled/reordered rebuild changed the fingerprint", seed)
		}
		// Determinism across repeated calls on the same graph.
		if fa != a.Fingerprint(fpUnits, fpWindow) {
			t.Fatalf("seed %d: fingerprint not deterministic", seed)
		}
	}
}

// TestFingerprintPerturbationsChangeIt is the completeness half: any single
// perturbation of the instance — one latency, one edge added or removed, one
// node attribute, the window, the unit counts — must change the fingerprint.
func TestFingerprintPerturbationsChangeIt(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		sp := newRandSpec(r)
		base := sp.build("n", nil, sp.n).Fingerprint(fpUnits, fpWindow)
		differ := func(what string, g *Graph, units []int, w int) {
			if g.Fingerprint(units, w) == base {
				t.Fatalf("seed %d: %s did not change the fingerprint", seed, what)
			}
		}

		if len(sp.edges) > 0 {
			i := r.Intn(len(sp.edges))
			bump := sp
			bump.edges = append([]Edge(nil), sp.edges...)
			bump.edges[i].Latency++
			differ("latency+1", bump.build("n", nil, sp.n), fpUnits, fpWindow)

			drop := sp
			drop.edges = append(append([]Edge(nil), sp.edges[:i]...), sp.edges[i+1:]...)
			differ("edge removal", drop.build("n", nil, sp.n), fpUnits, fpWindow)
		}

		// Added edge between an unconnected forward pair, if one exists.
		add := sp
		add.edges = append([]Edge(nil), sp.edges...)
	search:
		for i := 0; i < sp.n; i++ {
			for j := i + 1; j < sp.n; j++ {
				found := false
				for _, e := range sp.edges {
					if e.Src == NodeID(i) && e.Dst == NodeID(j) && e.Distance == 0 {
						found = true
						break
					}
				}
				if !found {
					add.edges = append(add.edges, Edge{Src: NodeID(i), Dst: NodeID(j), Latency: 1})
					differ("edge addition", add.build("n", nil, sp.n), fpUnits, fpWindow)
					break search
				}
			}
		}

		v := r.Intn(sp.n)
		exec := sp
		exec.exec = append([]int(nil), sp.exec...)
		exec.exec[v]++
		differ("exec+1", exec.build("n", nil, sp.n), fpUnits, fpWindow)

		class := sp
		class.class = append([]int(nil), sp.class...)
		class.class[v] = 1 - class.class[v]
		differ("class flip", class.build("n", nil, sp.n), fpUnits, fpWindow)

		block := sp
		block.block = append([]int(nil), sp.block...)
		block.block[v]++
		differ("block+1", block.build("n", nil, sp.n), fpUnits, fpWindow)

		same := sp.build("n", nil, sp.n)
		differ("window+1", same, fpUnits, fpWindow+1)
		differ("extra unit", same, []int{2, 1}, fpWindow)
		differ("extra class", same, []int{1, 1, 1}, fpWindow)
	}
}

// TestFingerprintPermutationIsSound pins the deliberate non-collision: a
// graph rebuilt under a nontrivial node-ID permutation is a *different*
// scheduling instance (program order is the schedulers' tie-break), so its
// fingerprint must differ. If this test ever fails, the memo layer would
// start sharing cached schedules between instances whose uncached results
// can legitimately differ, breaking the bit-identical guarantee.
func TestFingerprintPermutationIsSound(t *testing.T) {
	g := New(3)
	a := g.AddUnit("a")
	b := g.AddUnit("b")
	c := g.AddUnit("c")
	g.MustEdge(a, b, 1, 0)
	g.MustEdge(a, c, 0, 0)

	// Same shape, but the two independent successors swap IDs: a different
	// program order over structurally symmetric nodes.
	h := New(3)
	ha := h.AddUnit("a")
	hc := h.AddUnit("c")
	hb := h.AddUnit("b")
	h.MustEdge(ha, hb, 1, 0)
	h.MustEdge(ha, hc, 0, 0)
	_ = hc

	if g.Fingerprint(fpUnits, fpWindow) == h.Fingerprint(fpUnits, fpWindow) {
		t.Fatal("ID-permuted instances must not collide: program order is semantic")
	}
}

// TestFingerprintCyclicFallback: a loop-independent cycle (rejected by the
// schedulers, but representable) still fingerprints deterministically and
// distinctly.
func TestFingerprintCyclicFallback(t *testing.T) {
	g := New(2)
	a := g.AddUnit("a")
	b := g.AddUnit("b")
	g.MustEdge(a, b, 0, 0)
	g.MustEdge(b, a, 0, 0)
	f1 := g.Fingerprint(fpUnits, fpWindow)
	if f1 != g.Fingerprint(fpUnits, fpWindow) {
		t.Fatal("cyclic fingerprint not deterministic")
	}
	h := New(2)
	ha := h.AddUnit("a")
	hb := h.AddUnit("b")
	h.MustEdge(ha, hb, 0, 0)
	if f1 == h.Fingerprint(fpUnits, fpWindow) {
		t.Fatal("cyclic and acyclic instances collide")
	}
}

// fingerprintStreamed is the original streaming serialization of
// Fingerprint — one hash.Write per word, a fresh TopoOrder, sort.Slice per
// node — kept as the oracle that pins the pooled single-Sum256 version to
// the same digests.
func fingerprintStreamed(g *Graph, units []int, window int) Fingerprint {
	h := sha256.New()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	n := g.Len()
	put(n)
	put(g.NumEdges())
	put(window)
	put(len(units))
	for _, u := range units {
		put(u)
	}
	order, err := g.TopoOrder()
	if err != nil {
		order = order[:0]
		for id := 0; id < n; id++ {
			order = append(order, NodeID(id))
		}
	}
	pos := make([]int, n)
	for i, id := range order {
		pos[id] = i
	}
	for _, id := range order {
		nd := g.nodes[id]
		put(int(id))
		put(nd.Exec)
		put(nd.Class)
		put(nd.Block)
		es := append([]Edge(nil), g.out[id]...)
		sort.Slice(es, func(a, b int) bool {
			if es[a].Dst != es[b].Dst {
				return es[a].Dst < es[b].Dst
			}
			return es[a].Distance < es[b].Distance
		})
		put(len(es))
		for _, e := range es {
			put(pos[e.Dst])
			put(e.Latency)
			put(e.Distance)
		}
	}
	var fp Fingerprint
	h.Sum(fp[:0])
	return fp
}

// randomFPGraph draws a graph with edges in both ID directions: forward
// distance-0 edges, loop-carried edges, and (when cyclic) backward
// distance-0 edges that force the ID-order fallback.
func randomFPGraph(r *rand.Rand, cyclic bool) *Graph {
	n := r.Intn(40)
	g := New(n)
	for v := 0; v < n; v++ {
		g.AddNode("v", 1+r.Intn(3), r.Intn(3), r.Intn(4))
	}
	for k := 0; n > 1 && k < 2*n; k++ {
		a, b := NodeID(r.Intn(n)), NodeID(r.Intn(n))
		dist := 0
		switch {
		case r.Intn(4) == 0:
			dist = 1 + r.Intn(2)
		case a == b:
			continue
		case a > b && !cyclic:
			a, b = b, a
		}
		g.MustEdge(a, b, r.Intn(5), dist)
	}
	return g
}

// TestFingerprintMatchesStreamed: the pooled serialization hashes exactly
// the bytes the streamed one did, over acyclic and cyclic random graphs
// with loop-carried edges and varying machine parameters.
func TestFingerprintMatchesStreamed(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	cyclicSeen := 0
	for i := 0; i < 3000; i++ {
		g := randomFPGraph(r, i%3 == 0)
		if !g.IsAcyclic() {
			cyclicSeen++
		}
		units := make([]int, 1+r.Intn(3))
		for u := range units {
			units[u] = 1 + r.Intn(3)
		}
		window := r.Intn(9)
		if got, want := g.Fingerprint(units, window), fingerprintStreamed(g, units, window); got != want {
			t.Fatalf("graph %d: fingerprint %x, streamed %x\n%v", i, got[:8], want[:8], g)
		}
	}
	if cyclicSeen == 0 {
		t.Fatal("no cyclic graph drawn: the ID-order fallback went untested")
	}
}

// TestFingerprintZeroAlloc: a warm Fingerprint call allocates nothing.
func TestFingerprintZeroAlloc(t *testing.T) {
	testutil.SkipIfAllocSensitive(t)
	g := randomFPGraph(rand.New(rand.NewSource(2)), false)
	units := []int{2, 1}
	g.Fingerprint(units, 4)
	if a := testing.AllocsPerRun(100, func() { g.Fingerprint(units, 4) }); a != 0 {
		t.Fatalf("Fingerprint allocates %.1f times per call, want 0", a)
	}
}
