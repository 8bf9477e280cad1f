package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"aisched"
	"aisched/internal/machine"
	"aisched/internal/tables"
)

// C1 sweeps the duplicate-block rate and measures what the structural step
// cache buys. The workload mirrors B1's request-level framing: a cold
// scheduler serves 20 requests of 16-block traces, of which `1-dup` are
// unique and the rest repeat an earlier trace — so the cache warms on first
// occurrences and replays the duplicates. The batch side re-schedules whole
// traces through one Scheduler, one ScheduleTrace call per request, so the
// per-block loop always runs; the stream side pushes the same request
// sequence as one unending block stream at k=1. Both report amortized ns per
// block with the cache on vs off and the on-side hit rate.
//
// Blocks are serial latency chains: the stalls make every step chop, so the
// carried suffix stays bounded and recurs — the regime where merge inputs
// repeat and the cache can hit. (Dense stall-free blocks never chop; their
// suffix grows every step, every key is unique, and the cache stays cold by
// design — correctness is unaffected either way.)
//
// Passed requires, on both paths: a >50% hit rate at dup rates >= 75%, and a
// >= 3x cold amortized speedup at 90% dup. The steady-state amortized >= 3x
// acceptance at 75% dup is pinned by BENCH_PR8.json (ScheduleTraceRepetitive
// and StreamPushDup vs their Off twins), where the long-run warm regime is
// measured under the benchmark harness instead of a wall-clock-noisy
// experiment.
func C1(seed int64, instances int) (*Result, error) {
	const (
		reqs      = 20 // scheduling requests per sweep point
		blocksPer = 16 // blocks per requested trace
	)
	m := machine.SingleUnit(4)
	t := tables.New(fmt.Sprintf("C1: step-cache speedup vs duplicate rate (%d requests x %d-block traces, cold)", reqs, blocksPer),
		"dup rate", "unique", "batch ns/block off→on", "batch ×", "batch hits",
		"stream ns/push off→on", "stream ×", "stream hits")
	res := &Result{ID: "C1", Table: t, Passed: true}

	for _, dup := range []float64{0, 0.25, 0.50, 0.75, 0.90} {
		uniq := reqs - int(dup*float64(reqs)+0.5)
		if uniq < 1 {
			uniq = 1
		}
		r := rand.New(rand.NewSource(seed + int64(uniq)))

		// Each unique trace gets its own chain-template pool; the request
		// sequence visits every unique trace once, then draws repeats.
		uniques := make([]*aisched.Graph, uniq)
		streams := make([][][]int, uniq) // per-trace template latency chains
		for u := range uniques {
			lats, seq := chainTemplates(r, 8, blocksPer)
			uniques[u] = templateTrace(lats, seq)
			chains := make([][]int, blocksPer)
			for i, ti := range seq {
				chains[i] = lats[ti]
			}
			streams[u] = chains
		}
		order := make([]int, reqs)
		for i := range order {
			if i < uniq {
				order[i] = i
			} else {
				order[i] = r.Intn(uniq)
			}
		}

		batchNS := func(stepCap int) (int64, aisched.CacheCounters) {
			best := int64(1) << 62
			var c aisched.CacheCounters
			for rep := 0; rep < 3; rep++ {
				sc := aisched.NewScheduler(aisched.SchedulerOptions{StepCacheCapacity: stepCap})
				t0 := time.Now()
				for _, u := range order {
					if _, err := sc.ScheduleTrace(uniques[u], m); err != nil {
						panic(err)
					}
				}
				if d := time.Since(t0).Nanoseconds(); d < best {
					best = d
					c = sc.StepCacheCounters()
				}
			}
			return best / int64(reqs*blocksPer), c
		}
		bOn, bc := batchNS(0)
		bOff, _ := batchNS(-1)
		bSpeed := float64(bOff) / float64(bOn)
		bHit := hitRate(bc)

		streamNS := func(stepCap int) (int64, aisched.CacheCounters) {
			best := int64(1) << 62
			var c aisched.CacheCounters
			for rep := 0; rep < 3; rep++ {
				ss := aisched.NewStreamScheduler(m, aisched.StreamOptions{Lookahead: 1, StepCacheCapacity: stepCap})
				id := 0
				t0 := time.Now()
				for _, u := range order {
					for _, lat := range streams[u] {
						if _, err := ss.Push(chainBlock(lat, &id)); err != nil {
							panic(err)
						}
					}
				}
				if d := time.Since(t0).Nanoseconds(); d < best {
					best = d
					c = ss.StepCacheCounters()
				}
			}
			return best / int64(reqs*blocksPer), c
		}
		sOn, sc := streamNS(0)
		sOff, _ := streamNS(-1)
		sSpeed := float64(sOff) / float64(sOn)
		sHit := hitRate(sc)

		t.Add(fmt.Sprintf("%.0f%%", 100*dup), fmt.Sprintf("%d/%d", uniq, reqs),
			fmt.Sprintf("%d→%d", bOff, bOn), fmt.Sprintf("%.1fx", bSpeed), fmt.Sprintf("%.0f%%", 100*bHit),
			fmt.Sprintf("%d→%d", sOff, sOn), fmt.Sprintf("%.1fx", sSpeed), fmt.Sprintf("%.0f%%", 100*sHit))

		if dup >= 0.75 && (bHit <= 0.5 || sHit <= 0.5) {
			res.Passed = false
			res.Notes = append(res.Notes, fmt.Sprintf(
				"dup %.0f%%: hit rate below 50%% (batch %.0f%%, stream %.0f%%)",
				100*dup, 100*bHit, 100*sHit))
		}
		if dup >= 0.90 && (bSpeed < 3 || sSpeed < 3) {
			res.Passed = false
			res.Notes = append(res.Notes, fmt.Sprintf(
				"dup %.0f%%: cold amortized speedup below 3x (batch %.1fx, stream %.1fx)",
				100*dup, bSpeed, sSpeed))
		}
	}
	res.Notes = append(res.Notes,
		"steady-state amortized speedup at ~75% dup is pinned in BENCH_PR8.json: ScheduleTraceRepetitive(Off), StreamPushDup(Off)")
	return res, nil
}

func hitRate(c aisched.CacheCounters) float64 {
	if c.Hits+c.Misses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}

// chainTemplates draws `distinct` serial-chain block templates (chain length
// 5-7, per-edge latency 1-2) and a `blocks`-long template sequence in which
// each template appears at least once.
func chainTemplates(r *rand.Rand, distinct, blocks int) ([][]int, []int) {
	lats := make([][]int, distinct)
	for i := range lats {
		lat := make([]int, 4+r.Intn(3))
		for j := range lat {
			lat[j] = 1 + r.Intn(2)
		}
		lats[i] = lat
	}
	seq := make([]int, blocks)
	for i := range seq {
		if i < distinct {
			seq[i] = i
		} else {
			seq[i] = r.Intn(distinct)
		}
	}
	return lats, seq
}

// templateTrace materializes a template sequence as one whole-trace graph.
func templateTrace(lats [][]int, seq []int) *aisched.Graph {
	total := 0
	for _, ti := range seq {
		total += len(lats[ti]) + 1
	}
	g := aisched.NewGraph(total)
	id := 0
	for b, ti := range seq {
		base := id
		for i := 0; i <= len(lats[ti]); i++ {
			g.AddNode(fmt.Sprintf("c%d_%d", b, i), 1, 0, b)
			id++
		}
		for i, l := range lats[ti] {
			g.MustEdge(aisched.NodeID(base+i), aisched.NodeID(base+i+1), l, 0)
		}
	}
	return g
}

// chainBlock builds one serial-chain StreamBlock from a latency chain,
// advancing the caller's running stream ID.
func chainBlock(lat []int, id *int) aisched.StreamBlock {
	n := len(lat) + 1
	nodes := make([]aisched.StreamNode, n)
	for i := range nodes {
		nodes[i] = aisched.StreamNode{Label: "c", Exec: 1, Class: 0}
	}
	deps := make([]aisched.StreamDep, len(lat))
	for i, l := range lat {
		deps[i] = aisched.StreamDep{Src: aisched.NodeID(*id + i), Dst: aisched.NodeID(*id + i + 1), Latency: l}
	}
	*id += n
	return aisched.StreamBlock{Nodes: nodes, Deps: deps}
}
