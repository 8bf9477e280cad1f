package rank_test

import (
	"math/rand"
	"testing"

	"aisched/internal/graph"
	"aisched/internal/idle"
	"aisched/internal/machine"
	"aisched/internal/rank"
	"aisched/internal/workload"
)

// TestFillsPerBindingOnLongTrace walks a fixed 256-block trace the way
// Algorithm Lookahead's merge step does — one reused context Reset onto
// the induced view of each adjacent block pair, a rank_alg run, then the
// whole Delay_Idle_Slots pass with its re-ranks — and pins the fill bound:
// each node's packing entries (the graph-only longest-path DP) are filled
// at most once per binding, however often the node is re-ranked.
func TestFillsPerBindingOnLongTrace(t *testing.T) {
	g, err := workload.LongTrace(rand.New(rand.NewSource(256)), workload.DefaultLongTrace(256))
	if err != nil {
		t.Fatal(err)
	}
	m := machine.SingleUnit(4)
	csr := graph.NewCSR(g)
	var sub graph.Sub
	c := rank.NewReusable()
	ids := make([]graph.NodeID, 0, g.Len())
	moved, fills, nodes := 0, 0, 0
	for b := 0; b+1 < 256; b++ {
		ids = ids[:0]
		for v := 0; v < g.Len(); v++ {
			if blk := csr.Block(graph.NodeID(v)); blk == b || blk == b+1 {
				ids = append(ids, graph.NodeID(v))
			}
		}
		sub.Init(csr, ids)
		n := sub.Len()
		if err := c.Reset(sub.View(), m, nil); err != nil {
			t.Fatalf("blocks %d-%d: %v", b, b+1, err)
		}
		res, err := c.Run(rank.UniformDeadlines(n, rank.Big), nil)
		if err != nil {
			t.Fatalf("blocks %d-%d: %v", b, b+1, err)
		}
		if c.Fills() == 0 {
			t.Fatalf("blocks %d-%d: a full rank sweep filled no entries", b, b+1)
		}
		d := rank.UniformDeadlines(n, res.S.Makespan())
		s, _, err := idle.DelayIdleSlotsCtx(c, res.S, d, nil, nil)
		if err != nil {
			t.Fatalf("blocks %d-%d: %v", b, b+1, err)
		}
		if f := c.Fills(); f > n {
			t.Fatalf("blocks %d-%d: %d entry fills for %d nodes in one binding", b, b+1, f, n)
		}
		fills += c.Fills()
		nodes += n
		for v := range s.Start {
			if s.Start[v] != res.S.Start[v] {
				moved++
				break
			}
		}
	}
	t.Logf("255 bindings over %d nodes: %d entry fills, %d bindings moved a slot", nodes, fills, moved)
	if moved == 0 {
		t.Fatal("Delay_Idle_Slots never moved a slot; the re-rank path is not exercised")
	}
}
