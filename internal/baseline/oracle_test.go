package baseline_test

// External test package: the brute-force oracle (internal/verify) reaches
// internal/core through internal/loops, and core's streaming engine imports
// this package for its degraded schedule.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aisched/internal/baseline"
	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/sched"
	"aisched/internal/verify"
)

func TestPropertyRankLocalNeverWorseThanOtherLocals(t *testing.T) {
	// Rank-local is optimal per block in the restricted model, so its
	// per-block makespans (and hence the no-overlap sum) are minimal.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.AddUnit("n")
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.3 {
					g.MustEdge(graph.NodeID(i), graph.NodeID(j), r.Intn(2), 0)
				}
			}
		}
		m := machine.SingleUnit(1)
		mk := func(s baseline.Scheduler) int {
			order, err := s.Order(g, m)
			if err != nil {
				return -1
			}
			sc, err := sched.ListSchedule(g, m, order)
			if err != nil {
				return -1
			}
			return sc.Makespan()
		}
		rl := mk(baseline.RankLocal{})
		if rl < 0 {
			return false
		}
		for _, s := range baseline.All() {
			v := mk(s)
			if v < 0 || v < rl {
				return false
			}
		}
		// And rank-local matches the brute-force optimum.
		opt, err := verify.OptimalMakespan(g, m)
		if err != nil {
			return false
		}
		return rl == opt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
