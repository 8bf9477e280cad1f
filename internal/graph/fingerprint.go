package graph

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"sync"
)

// Fingerprint is a 256-bit content address for one scheduling instance: a
// dependence graph together with the machine parameters that affect
// scheduling (per-class unit counts and the lookahead window W). It is the
// cache key of the memoization layer (internal/memo), so its contract is
// chosen for cache soundness:
//
//   - Two instances collide exactly when they describe the same scheduling
//     problem: same node count, per-node <exec, class, block> attributes,
//     same dependence edges with the same <latency, distance> labels, same
//     unit counts and window. Every scheduler in this repository is a
//     deterministic function of exactly these inputs, so equal fingerprints
//     imply bit-identical schedules.
//   - Human-readable node labels, edge insertion order, machine names, and
//     construction capacities are canonicalized away: rebuilding the same
//     block from a different front-end path (relabelled registers, edges
//     discovered in a different order) still hits the cache.
//   - Node IDs are NOT canonicalized away. Program order is a semantic
//     input: it is the schedulers' tie-break (Definition 2.1's program
//     order), so two graphs that differ by a nontrivial ID permutation are
//     different instances that may legitimately produce different (equally
//     optimal) schedules. Collapsing them would break the memo layer's
//     bit-identical-results guarantee. See TestFingerprintPermutationIsSound.
//
// The hash walks the nodes in topo-canonical order (the deterministic
// TopoOrder over distance-0 edges, ID tie-broken; ID order when the
// loop-independent subgraph is cyclic) and serializes, per node, its
// original program position, attributes, and outgoing edges sorted by
// (destination, distance) with destinations expressed as topo-canonical
// positions. SHA-256 makes accidental collisions (two different instances,
// same fingerprint) cryptographically negligible, which is what lets the
// memo layer return cached schedules without re-verifying the full key.
//
// The serialization is a flat sequence of little-endian int64 words, built
// into pooled scratch and hashed with one sha256.Sum256 call; the topo sort
// runs into the same scratch, so a warm call allocates nothing.
type Fingerprint [32]byte

// fpScratch pools the per-call buffers of Fingerprint so the hot cache path
// (hash + lookup) allocates nothing once warm.
var fpScratch = sync.Pool{New: func() any { return new(fpState) }}

type fpState struct {
	buf      []byte
	indeg    []int
	pos      []int
	frontier []NodeID
	order    []NodeID
	es       []Edge
}

// put appends v to the serialization as one little-endian int64 word.
func (st *fpState) put(v int) {
	st.buf = binary.LittleEndian.AppendUint64(st.buf, uint64(int64(v)))
}

// Fingerprint computes the content address of (g, units, window). Pass the
// machine's per-class unit counts and lookahead window (machine.Machine's
// Units and Window fields); the machine name is deliberately excluded.
func (g *Graph) Fingerprint(units []int, window int) Fingerprint {
	st := fpScratch.Get().(*fpState)
	st.buf = st.buf[:0]
	n := g.Len()
	st.put(n)
	st.put(g.NumEdges())
	st.put(window)
	st.put(len(units))
	for _, u := range units {
		st.put(u)
	}

	// Topo-canonical node order: deterministic for a given graph, shared by
	// every rebuild of the same content. Cyclic loop-independent subgraphs
	// (rejected by every scheduler anyway) fall back to ID order so the
	// fingerprint is total. Every node enters the frontier and the order at
	// most once, so scratch grown to n never reallocates inside topoInto.
	st.indeg = slices.Grow(st.indeg[:0], n)[:n]
	st.pos = slices.Grow(st.pos[:0], n)[:n]
	st.frontier = slices.Grow(st.frontier[:0], n)
	st.order = slices.Grow(st.order[:0], n)
	order, ok := g.topoInto(st.indeg, st.frontier, st.order)
	if !ok {
		order = order[:0]
		for id := 0; id < n; id++ {
			order = append(order, NodeID(id))
		}
	}
	pos := st.pos
	for i, id := range order {
		pos[id] = i
	}

	for _, id := range order {
		nd := &g.nodes[id]
		// The original program position pins program order (the tie-break)
		// as part of the instance identity; labels are skipped.
		st.put(int(id))
		st.put(nd.Exec)
		st.put(nd.Class)
		st.put(nd.Block)
		es := append(st.es[:0], g.out[id]...)
		st.es = es
		// AddEdge keeps at most one edge per (dst, distance), so this sort
		// key is unique and insertion order cannot leak into the hash.
		slices.SortFunc(es, func(a, b Edge) int {
			if c := cmp.Compare(a.Dst, b.Dst); c != 0 {
				return c
			}
			return cmp.Compare(a.Distance, b.Distance)
		})
		st.put(len(es))
		for _, e := range es {
			st.put(pos[e.Dst])
			st.put(e.Latency)
			st.put(e.Distance)
		}
	}

	fp := Fingerprint(sha256.Sum256(st.buf))
	fpScratch.Put(st)
	return fp
}
