package experiments

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"aisched"
	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/tables"
	"aisched/internal/workload"
)

// rebuildTrace reconstructs g node-for-node with fresh labels and a shuffled
// edge insertion order: the same scheduling instance arriving down a
// different front-end path. The batch must recognize it by content.
func rebuildTrace(g *graph.Graph, r *rand.Rand) *graph.Graph {
	h := graph.New(g.Len())
	for v := 0; v < g.Len(); v++ {
		nd := g.Node(graph.NodeID(v))
		h.AddNode(fmt.Sprintf("r%d", v), nd.Exec, nd.Class, nd.Block)
	}
	var es []graph.Edge
	for v := 0; v < g.Len(); v++ {
		es = append(es, g.Out(graph.NodeID(v))...)
	}
	for _, i := range r.Perm(len(es)) {
		h.MustEdge(es[i].Src, es[i].Dst, es[i].Latency, es[i].Distance)
	}
	return h
}

// B1 measures the throughput layer: a stream of `instances` trace-scheduling
// requests at several duplicate rates, run serially one call at a time vs as
// one ScheduleBatch, which schedules each distinct instance once on its
// worker pool. A duplicate is an independently rebuilt (relabelled,
// edge-shuffled) copy of an earlier instance, so deduplication comes from
// content fingerprints, not pointer identity. The pass/fail checks assert
// correctness — batch results bit-identical to serial, deduplication
// bookkeeping exact — while the wall-clock columns are informational (they
// vary with the host).
func B1(seed int64, instances int) (*Result, error) {
	r := rand.New(rand.NewSource(seed))
	m := machine.SingleUnit(4)
	t := tables.New("B1: batch scheduling throughput vs duplicate-block rate",
		"dup rate", "distinct", "serial µs/item", "batch µs/item", "speedup", "deduplicated")
	res := &Result{ID: "B1", Table: t, Passed: true}

	for _, rate := range []float64{0, 0.5, 0.9, 0.99} {
		distinct := int(float64(instances)*(1-rate) + 0.5)
		if distinct < 1 {
			distinct = 1
		}
		bases := make([]*graph.Graph, 0, distinct)
		for i := 0; i < distinct; i++ {
			g, err := workload.Trace(r, workload.DefaultTrace())
			if err != nil {
				return nil, err
			}
			bases = append(bases, g)
		}
		items := make([]aisched.BatchItem, 0, instances)
		for i := 0; i < instances; i++ {
			items = append(items, aisched.BatchItem{
				G:    rebuildTrace(bases[i%distinct], r),
				M:    m,
				Kind: aisched.BatchTrace,
			})
		}

		serialStart := time.Now()
		serial := make([]*aisched.TraceResult, len(items))
		for i, it := range items {
			s, err := aisched.ScheduleTrace(it.G, it.M)
			if err != nil {
				return nil, err
			}
			serial[i] = s
		}
		serialNs := time.Since(serialStart).Nanoseconds()

		sc := aisched.NewScheduler(aisched.SchedulerOptions{})
		batchStart := time.Now()
		batch := sc.ScheduleBatch(items)
		batchNs := time.Since(batchStart).Nanoseconds()

		for i := range items {
			if batch[i].Err != nil {
				return nil, batch[i].Err
			}
			b := batch[i].Trace
			if !reflect.DeepEqual(serial[i].Order, b.Order) ||
				!reflect.DeepEqual(serial[i].BlockOrders, b.BlockOrders) ||
				!reflect.DeepEqual(serial[i].S.Start, b.S.Start) ||
				!reflect.DeepEqual(serial[i].S.Unit, b.S.Unit) {
				res.Passed = false
				res.Notes = append(res.Notes,
					fmt.Sprintf("dup %.2f item %d: batch result differs from serial", rate, i))
				break
			}
		}
		cc := sc.CacheCounters()
		if computed := uint64(len(items)) - cc.TraceDeduped; computed != uint64(distinct) {
			res.Passed = false
			res.Notes = append(res.Notes, fmt.Sprintf(
				"dup %.2f: %d traces scheduled for %d distinct instances", rate, computed, distinct))
		}
		n := int64(len(items))
		t.Add(fmt.Sprintf("%.0f%%", rate*100), distinct,
			fmt.Sprintf("%.1f", float64(serialNs/n)/1e3),
			fmt.Sprintf("%.1f", float64(batchNs/n)/1e3),
			fmt.Sprintf("%.1fx", float64(serialNs)/float64(batchNs)),
			cc.TraceDeduped)
	}
	res.Notes = append(res.Notes,
		"timing columns are informational; PASS/FAIL asserts batch ≡ serial and exact deduplication bookkeeping")
	return res, nil
}
