package main

import (
	"fmt"
	"math/rand"

	"aisched"
	"aisched/internal/graph"
	"aisched/internal/sched"
	"aisched/internal/workload"
)

// streamDup: each op is one StreamScheduler.Push at Lookahead 2 on
// SingleUnit(4). The stream is cut into fixed-length chunks, each closed by
// Flush, so every chunk is a trace whose output can be checked. Blocks come
// from a small library of random DefaultTrace-shaped template blocks, each
// with its dependences on the previous block; 3/4 of the blocks come from
// the library, the rest are drawn fresh. The library is part of the
// workload's definition — drawn once from a fixed seed, so a run's figures
// do not hinge on one seed's draw of four shapes — and the run's seed draws
// the block sequence and the fresh blocks.
//
// Why: the stream engine and step-cache replay dominate, and rank and idle
// do little. It is the JIT path, where the per-push tail matters, and it
// checks trace-long from the other side: a change that speeds up step-cache
// misses but slows replays, or that merges the two walkers, shows here.
type streamDup struct {
	seed int64
	m    *aisched.Machine
	ss   *aisched.StreamScheduler
	tr   *spanLog
	lib  []template

	nextID   int // stream ID of the next node pushed
	nextBlk  int // stream index of the next block pushed
	chunk    []aisched.StreamBlock
	chunkID  int // stream ID of the chunk's first node
	chunkBlk int // stream index of the chunk's first block
	got      []*aisched.BlockResult

	tally layerTally
	// Stream observations of the traced phase.
	pushes, suffixSum, suffixMax, emitted, lagSum int64
}

// template is one block shape: its instructions, its intra-block edges, and
// edges from the last instructions of whatever block precedes it.
type template struct {
	exec, class []int
	intra       []tdep // src, dst index into the block
	cross       []tdep // src counts back from the previous block's end (1 = last)
}

type tdep struct{ src, dst, lat int }

const (
	chunkBlocks      = 64   // pushes per chunk; one Flush closes each
	libraryTemplates = 4    // templates in the library
	librarySeed      = 1    // seed of the library's draw
	streamDupRate    = 0.75 // share of blocks drawn from the library
	streamLook       = 2    // StreamOptions.Lookahead
	streamWarmChunks = 48   // warm-up chunks per set-up
	// streamChunkSample: one chunk in this many gets the full
	// sched.CheckLegal and is replayed with the step cache off and compared.
	streamChunkSample = 4
	// crossReach is how many trailing instructions of the previous block a
	// template may depend on — the minimum block size, so every template
	// fits behind every block.
	crossReach = 3
)

func newStreamDup(seed int64) runner {
	return &streamDup{seed: seed, m: aisched.SingleUnit(4)}
}

// newTemplate draws one block shape with workload.DefaultTrace's size,
// edge probabilities and latency mix.
func newTemplate(r *rand.Rand) template {
	cfg := workload.DefaultTrace()
	size := cfg.MinSize + r.Intn(cfg.MaxSize-cfg.MinSize+1)
	t := template{exec: make([]int, size), class: make([]int, size)}
	for i := range t.exec {
		t.exec[i] = 1
	}
	lats := []int{0, 1, 1, 2, 4} // workload.Mixed
	for i := 0; i < size; i++ {
		for j := i + 1; j < size; j++ {
			if r.Float64() < cfg.IntraProb {
				t.intra = append(t.intra, tdep{i, j, lats[r.Intn(len(lats))]})
			}
		}
	}
	for back := 1; back <= crossReach; back++ {
		for d := 0; d < size; d++ {
			if r.Float64() < cfg.CrossProb {
				t.cross = append(t.cross, tdep{back, d, lats[r.Intn(len(lats))]})
			}
		}
	}
	return t
}

// streamChunk generates chunk c (stream s) as templates; the first block of
// a chunk keeps no edges into the previous chunk, so each chunk is a trace
// of its own.
func streamChunk(seed int64, s, c int, lib []template) []template {
	r := rng(seed, s, c)
	out := make([]template, chunkBlocks)
	for k := range out {
		if r.Float64() < streamDupRate {
			out[k] = lib[r.Intn(len(lib))]
		} else {
			out[k] = newTemplate(r)
		}
	}
	out[0].cross = nil
	return out
}

// streamBlocks turns a chunk's templates into stream blocks whose node IDs start
// at id.
func streamBlocks(ts []template, id int) []aisched.StreamBlock {
	out := make([]aisched.StreamBlock, len(ts))
	prevEnd := id // one past the previous block's last ID
	for k, t := range ts {
		b := aisched.StreamBlock{Nodes: make([]aisched.StreamNode, len(t.exec))}
		for i := range t.exec {
			b.Nodes[i] = aisched.StreamNode{Label: "s", Exec: t.exec[i], Class: t.class[i]}
		}
		for _, d := range t.cross {
			b.Deps = append(b.Deps, aisched.StreamDep{Src: graph.NodeID(prevEnd - d.src), Dst: graph.NodeID(id + d.dst), Latency: d.lat})
		}
		for _, d := range t.intra {
			b.Deps = append(b.Deps, aisched.StreamDep{Src: graph.NodeID(id + d.src), Dst: graph.NodeID(id + d.dst), Latency: d.lat})
		}
		out[k] = b
		id += len(t.exec)
		prevEnd = id
	}
	return out
}

func (w *streamDup) setup() error {
	r := rng(librarySeed, streamLibrary, 0)
	w.lib = make([]template, libraryTemplates)
	for i := range w.lib {
		w.lib[i] = newTemplate(r)
	}
	if w.ss != nil {
		w.ss.Close() // an earlier set-up repetition's stream
	}
	w.ss = aisched.NewStreamScheduler(w.m, aisched.StreamOptions{Lookahead: streamLook})
	w.nextID, w.nextBlk = 0, 0
	for c := 0; c < streamWarmChunks; c++ {
		w.load(streamChunk(warmSeed, streamWarm, c, w.lib))
		for j := range w.chunk {
			if _, err := w.do(j); err != nil {
				return err
			}
		}
		if err := w.endRound(); err != nil {
			return err
		}
	}
	return nil
}

// load makes ts the current chunk.
func (w *streamDup) load(ts []template) {
	w.chunkID, w.chunkBlk = w.nextID, w.nextBlk
	w.chunk = streamBlocks(ts, w.nextID)
	for _, b := range w.chunk {
		w.nextID += len(b.Nodes)
	}
	w.nextBlk += len(w.chunk)
	w.got = w.got[:0]
}

// prepare generates one chunk; first is always a multiple of chunkBlocks.
func (w *streamDup) prepare(first int) (int, error) {
	w.load(streamChunk(w.seed, streamOps, first/chunkBlocks, w.lib))
	return len(w.chunk), nil
}

func (w *streamDup) do(j int) (int, error) {
	sp := w.tr.begin("stream.push")
	res, err := w.ss.Push(w.chunk[j])
	w.tr.end(sp)
	if err != nil {
		return 0, err
	}
	w.got = append(w.got, res...)
	if w.tr != nil {
		n := int64(w.ss.SuffixLen())
		w.pushes++
		w.suffixSum += n
		w.suffixMax = max(w.suffixMax, n)
		w.observe(res)
	}
	return 1, nil
}

func (w *streamDup) observe(res []*aisched.BlockResult) {
	for _, r := range res {
		w.emitted++
		w.lagSum += int64(r.Lag)
	}
}

func (w *streamDup) endRound() error {
	sp := w.tr.begin("stream.flush")
	res, err := w.ss.Flush()
	w.tr.end(sp)
	if err != nil {
		return err
	}
	w.got = append(w.got, res...)
	if w.tr != nil {
		w.observe(res)
	}
	return nil
}

// chunkGraph is the chunk's dependence graph with node IDs rebased to 0 and
// block numbers counted from the chunk's first block.
func (w *streamDup) chunkGraph() *graph.Graph {
	g := graph.New(0)
	for k, b := range w.chunk {
		for _, n := range b.Nodes {
			g.AddNode(n.Label, n.Exec, n.Class, k)
		}
	}
	for _, b := range w.chunk {
		for _, d := range b.Deps {
			g.MustEdge(d.Src-graph.NodeID(w.chunkID), d.Dst-graph.NodeID(w.chunkID), d.Latency, 0)
		}
	}
	return g
}

// chunkSchedule assembles the chunk's BlockResults into a schedule over g,
// shifted so the chunk starts at cycle 0, and the emitted static order.
func (w *streamDup) chunkSchedule(g *graph.Graph, got []*aisched.BlockResult) (*sched.Schedule, []graph.NodeID, error) {
	if len(got) != len(w.chunk) {
		return nil, nil, fmt.Errorf("%d block results for %d pushed blocks", len(got), len(w.chunk))
	}
	s := sched.New(g, w.m)
	var order []graph.NodeID
	t0 := -1
	for k, r := range got {
		if r.Block != w.chunkBlk+k {
			return nil, nil, fmt.Errorf("result %d is block %d, want %d", k, r.Block, w.chunkBlk+k)
		}
		if r.Degraded != "" {
			return nil, nil, fmt.Errorf("block %d degraded: %s", r.Block, r.Degraded)
		}
		if len(r.Start) != len(r.Order) || len(r.Unit) != len(r.Order) {
			return nil, nil, fmt.Errorf("block %d: placement and order lengths differ", r.Block)
		}
		for _, st := range r.Start {
			if t0 < 0 || st < t0 {
				t0 = st
			}
		}
	}
	for _, r := range got {
		for i, id := range r.Order {
			v := int(id) - w.chunkID
			if v < 0 || v >= g.Len() || s.Start[v] != sched.Unassigned {
				return nil, nil, fmt.Errorf("block %d: node %d is outside the chunk or emitted twice", r.Block, id)
			}
			s.Start[v] = r.Start[i] - t0
			s.Unit[v] = r.Unit[i]
			order = append(order, graph.NodeID(v))
		}
	}
	if len(order) != g.Len() {
		return nil, nil, fmt.Errorf("chunk emitted %d of %d instructions", len(order), g.Len())
	}
	return s, order, nil
}

func (w *streamDup) verify(r *round) {
	r.tr.setOp(r.first)
	err := guard(func() error {
		g := w.chunkGraph()
		s, order, err := w.chunkSchedule(g, w.got)
		if err != nil {
			return err
		}
		sample := sampled(w.seed, r.first/chunkBlocks, streamChunkSample)
		c, err := r.checkTrace(g, w.m, s, order, sample)
		if err != nil {
			return err
		}
		r.addCycles(0, c, len(w.chunk))
		if !sample {
			return nil
		}
		return w.sameWithoutCache(s)
	})
	if err != nil {
		// A chunk's output is checked as a whole; a failed check fails
		// every push of the chunk.
		for j := range r.errs {
			r.fail(j, err)
		}
	}
}

// sameWithoutCache replays the chunk on a fresh stream with the step cache
// off and requires the same orders and placements.
func (w *streamDup) sameWithoutCache(s *sched.Schedule) error {
	ref := aisched.NewStreamScheduler(w.m, aisched.StreamOptions{Lookahead: streamLook, StepCacheCapacity: -1})
	defer ref.Close()
	var got []*aisched.BlockResult
	for k, b := range w.chunk {
		rb := aisched.StreamBlock{Nodes: b.Nodes, Deps: make([]aisched.StreamDep, len(b.Deps))}
		for i, d := range b.Deps {
			rb.Deps[i] = aisched.StreamDep{Src: d.Src - graph.NodeID(w.chunkID), Dst: d.Dst - graph.NodeID(w.chunkID), Latency: d.Latency}
		}
		res, err := ref.Push(rb)
		if err != nil {
			return fmt.Errorf("uncached push %d: %w", k, err)
		}
		got = append(got, res...)
	}
	tail, err := ref.Flush()
	if err != nil {
		return fmt.Errorf("uncached flush: %w", err)
	}
	got = append(got, tail...)
	if len(got) != len(w.got) {
		return fmt.Errorf("uncached stream emitted %d blocks, cached %d", len(got), len(w.got))
	}
	for k, r := range got {
		c := w.got[k]
		if r.Block != c.Block-w.chunkBlk || r.Lag != c.Lag || len(r.Order) != len(c.Order) {
			return fmt.Errorf("block %d: cached and uncached results differ", c.Block)
		}
		for i, id := range r.Order {
			v := int(c.Order[i]) - w.chunkID
			if int(id) != v || r.Start[i] != s.Start[v] || r.Unit[i] != c.Unit[i] {
				return fmt.Errorf("block %d: cached and uncached orders or placements differ", c.Block)
			}
		}
	}
	return nil
}

func (w *streamDup) probe(r *round) {
	r.tr.setOp(r.first)
	r.check(0, func() error {
		g := w.chunkGraph()
		s, _, err := w.chunkSchedule(g, w.got)
		if err != nil {
			return err
		}
		return probeTrace(r.tr, &w.tally, g, w.m, s)
	})
}

func (w *streamDup) layers(tr *spanLog, m map[string]float64) {
	w.tally.fill(tr, m)
	m["stream.suffix_nodes_mean"] = div(float64(w.suffixSum), float64(w.pushes))
	m["stream.suffix_nodes_max"] = float64(w.suffixMax)
	m["stream.emit_lag_blocks"] = div(float64(w.lagSum), float64(w.emitted))
}

func (w *streamDup) caches() (memo, step aisched.CacheCounters) {
	return aisched.CacheCounters{}, w.ss.StepCacheCounters()
}

func (w *streamDup) setTracer(tr *spanLog) { w.tr = tr }
