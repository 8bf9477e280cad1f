package main

import (
	"fmt"

	"aisched"
	"aisched/internal/core"
	"aisched/internal/workload"
)

// traceLong: each op is one Scheduler.ScheduleTrace call on a distinct
// 128-block workload.LongTrace on SingleUnit(4), through one long-lived
// Scheduler with default options. Even ops are barrier-free; odd ops have a
// barrier every 2nd block.
//
// Why: the Lookahead walk, rank and Delay_Idle_Slots do most of the work.
// The auto speculation path engages on every op (128 blocks, two cores); it
// wins on the barrier half and loses on the barrier-free half. The step
// cache hits only on barrier blocks. Every trace is new, so the schedule
// cache only misses and inserts — the write side of memo.
type traceLong struct {
	seed int64
	m    *aisched.Machine
	sc   *aisched.Scheduler
	tr   *spanLog

	gs  []*aisched.Graph
	res []*aisched.TraceResult

	// shadow is a second step cache fed the traced rounds' traces, so the
	// traced run can time the sequential walk with a warm step cache.
	shadow *core.StepCache
	tally  layerTally
}

const (
	traceLongBlocks = 128
	traceLongRound  = 8 // ops per round
	traceLongWarm   = 8 // warm-up ops per set-up
	// traceLongSample: one op in this many gets the full sched.CheckLegal
	// and is checked against the plain sequential walk.
	traceLongSample = 4
)

func newTraceLong(seed int64) runner {
	return &traceLong{seed: seed, m: aisched.SingleUnit(4)}
}

// traceLongInput generates op i's trace (stream s).
func traceLongInput(seed int64, s, i int) (*aisched.Graph, error) {
	cfg := workload.DefaultLongTrace(traceLongBlocks)
	if i%2 == 0 {
		cfg.BarrierEvery = 0
	}
	return workload.LongTrace(rng(seed, s, i), cfg)
}

func (w *traceLong) setup() error {
	w.sc = aisched.NewScheduler(aisched.SchedulerOptions{})
	for i := 0; i < traceLongWarm; i++ {
		g, err := traceLongInput(warmSeed, streamWarm, i)
		if err != nil {
			return err
		}
		if _, err := w.sc.ScheduleTrace(g, w.m); err != nil {
			return err
		}
	}
	return nil
}

func (w *traceLong) prepare(first int) (int, error) {
	w.gs = w.gs[:0]
	for i := first; i < first+traceLongRound; i++ {
		g, err := traceLongInput(w.seed, streamOps, i)
		if err != nil {
			return 0, err
		}
		w.gs = append(w.gs, g)
	}
	w.res = make([]*aisched.TraceResult, len(w.gs))
	return len(w.gs), nil
}

func (w *traceLong) do(j int) (int, error) {
	sp := w.tr.begin("core.op")
	res, err := w.sc.ScheduleTrace(w.gs[j], w.m)
	w.tr.end(sp)
	if err != nil {
		return 0, err
	}
	w.res[j] = res
	return traceLongBlocks, nil
}

func (w *traceLong) endRound() error { return nil }

func (w *traceLong) verify(r *round) {
	for j, g := range w.gs {
		res := w.res[j]
		if res == nil {
			continue // the op failed
		}
		r.tr.setOp(r.first + j)
		r.check(j, func() error {
			sample := sampled(w.seed, r.first+j, traceLongSample)
			c, err := r.checkTrace(g, w.m, res.S, res.StaticOrder(), sample)
			if err != nil {
				return err
			}
			r.addCycles(j, c, traceLongBlocks)
			if !sample {
				return nil
			}
			ref, err := core.LookaheadOpts(g, w.m, core.Options{Parallel: -1})
			if err != nil {
				return fmt.Errorf("sequential walk: %w", err)
			}
			return sameResult(res, ref)
		})
	}
}

func (w *traceLong) probe(r *round) {
	for j, g := range w.gs {
		if w.res[j] == nil {
			continue
		}
		r.tr.setOp(r.first + j)
		r.check(j, func() error {
			if err := probeTrace(r.tr, &w.tally, g, w.m, w.res[j].S); err != nil {
				return err
			}
			if w.shadow == nil {
				w.shadow = core.NewStepCache(core.StepCacheConfig{})
			}
			sp := r.tr.begin("core.walk_cached")
			_, err := core.LookaheadOpts(g, w.m, core.Options{Parallel: -1, StepCache: w.shadow})
			r.tr.end(sp)
			return err
		})
	}
}

func (w *traceLong) layers(tr *spanLog, m map[string]float64) {
	w.tally.fill(tr, m)
	m["core.op_us"] = tr.mean("core.op")
	m["spec.saving_us"] = tr.mean("core.walk_cached") - tr.mean("core.op")
}

func (w *traceLong) caches() (memo, step aisched.CacheCounters) {
	return w.sc.CacheCounters(), w.sc.StepCacheCounters()
}

func (w *traceLong) setTracer(tr *spanLog) { w.tr = tr }
