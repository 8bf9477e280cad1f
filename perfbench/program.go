package main

import (
	"fmt"
	"slices"

	"aisched"
	"aisched/internal/cfg"
	"aisched/internal/deps"
	"aisched/internal/hw"
	"aisched/internal/interp"
	"aisched/internal/isa"
	"aisched/internal/minic"
	"aisched/internal/workload"
)

// program: each op compiles one workload.RandomProgram(r, 24) with CompileC,
// schedules it with Scheduler.ScheduleProgram on RS6000(4), then runs
// ScheduleLoop on each single-block loop body. One long-lived Scheduler
// serves all programs.
//
// Why: the front end (minic, cfg, deps), the batch pool and the loops layer
// work only here. Traces repeat across programs, so the schedule cache
// mostly hits; rank runs on large multi-class blocks with a heavy tail; the
// traces are short, so speculation never engages.
type program struct {
	seed int64
	m    *aisched.Machine
	sc   *aisched.Scheduler
	tr   *spanLog

	ops   []*programOp
	tally layerTally
	// Sizes seen by the traced phase.
	programs, instrs, traces, edges, bodies int64
}

// programOp is one op's input and outputs.
type programOp struct {
	src  string
	want *interp.State // the unscheduled program's final state

	comp  *aisched.CompiledC
	ps    *aisched.ProgramSchedule
	loops []scheduledLoop
}

type scheduledLoop struct {
	g  *aisched.Graph
	st *aisched.LoopSteady
}

const (
	programStmts = 24
	programRound = 16 // ops per round
	programWarm  = 16 // warm-up programs per set-up
	// programLoopIters is how many iterations the loop check simulates.
	programLoopIters = 8
	// programSample: one op in this many gets the full sched.CheckLegal.
	programSample = 4
)

func newProgram(seed int64) runner {
	return &program{seed: seed, m: aisched.RS6000(4)}
}

// programInput generates item i of stream s: a random program together
// with its final state on the interpreter. A program the interpreter cannot
// run to completion (a generated loop that never exits) has no reference
// output, so the generator draws again from the same item's generator.
func programInput(seed int64, s, i int) (*programOp, error) {
	r := rng(seed, s, i)
	for try := 0; try < 100; try++ {
		src := workload.RandomProgram(r, programStmts)
		comp, err := minic.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("generated program does not compile: %w", err)
		}
		want, err := interp.Run(comp.Blocks, nil, 0)
		if err != nil {
			continue
		}
		return &programOp{src: src, want: want}, nil
	}
	return nil, fmt.Errorf("no terminating program in 100 draws")
}

func (w *program) setup() error {
	w.sc = aisched.NewScheduler(aisched.SchedulerOptions{})
	for i := 0; i < programWarm; i++ {
		op, err := programInput(warmSeed, streamWarm, i)
		if err != nil {
			return err
		}
		w.ops = []*programOp{op}
		if _, err := w.do(0); err != nil {
			return err
		}
	}
	return nil
}

func (w *program) prepare(first int) (int, error) {
	w.ops = w.ops[:0]
	for i := first; i < first+programRound; i++ {
		op, err := programInput(w.seed, streamOps, i)
		if err != nil {
			return 0, err
		}
		w.ops = append(w.ops, op)
	}
	return len(w.ops), nil
}

func (w *program) do(j int) (int, error) {
	op := w.ops[j]
	var err error
	if w.tr == nil {
		op.comp, err = aisched.CompileC(op.src)
		if err != nil {
			return 0, err
		}
		op.ps, err = w.sc.ScheduleProgram(op.comp, w.m)
	} else {
		err = w.doTraced(op)
	}
	if err != nil {
		return 0, err
	}
	blocks := 0
	for _, t := range op.ps.Traces {
		blocks += len(t.Blocks)
	}
	for _, l := range op.comp.Loops {
		body := op.comp.Body(l)
		if body == nil {
			continue
		}
		g := aisched.BuildLoopGraph(body)
		sp := w.tr.begin("loops.schedule")
		st, err := w.sc.ScheduleLoop(g, w.m)
		w.tr.end(sp)
		if err != nil {
			return 0, err
		}
		op.loops = append(op.loops, scheduledLoop{g: g, st: st})
		blocks++
	}
	return blocks, nil
}

// doTraced is ScheduleProgram's own composition — cfg.FromCompiled,
// SelectTraces, deps.BuildTrace, ScheduleBatch — with a span around each
// module's call.
func (w *program) doTraced(op *programOp) error {
	tr := w.tr
	sp := tr.begin("minic.compile")
	comp, err := aisched.CompileC(op.src)
	tr.end(sp)
	if err != nil {
		return err
	}
	op.comp = comp
	sp = tr.begin("cfg.select")
	cg, err := cfg.FromCompiled(comp)
	var traces [][]int
	if err == nil {
		traces = cg.SelectTraces()
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	ps := &aisched.ProgramSchedule{}
	items := make([]aisched.BatchItem, 0, len(traces))
	for _, t := range traces {
		var kept []int
		var instrs [][]isa.Instr
		for _, bi := range t {
			if bs := cg.Blocks[bi].Instrs; len(bs) > 0 {
				kept = append(kept, bi)
				instrs = append(instrs, bs)
			}
		}
		sp = tr.begin("deps.build")
		g := deps.BuildTrace(instrs)
		tr.end(sp)
		ps.Traces = append(ps.Traces, aisched.ProgramTrace{Blocks: kept, G: g})
		items = append(items, aisched.BatchItem{G: g, M: w.m, Kind: aisched.BatchTrace})
	}
	sp = tr.begin("batch.schedule")
	results := w.sc.ScheduleBatch(items)
	tr.end(sp)
	for i, r := range results {
		if r.Err != nil {
			return fmt.Errorf("trace %d: %w", i, r.Err)
		}
		ps.Traces[i].Res = r.Trace
	}
	op.ps = ps
	w.programs++
	w.traces += int64(len(traces))
	for _, b := range comp.Blocks {
		w.instrs += int64(len(b.Instrs))
	}
	for _, t := range ps.Traces {
		w.edges += int64(t.G.NumEdges())
	}
	return nil
}

func (w *program) endRound() error { return nil }

func (w *program) verify(r *round) {
	for j, op := range w.ops {
		if op.ps == nil {
			continue // the op failed
		}
		r.tr.setOp(r.first + j)
		r.check(j, func() error {
			cycles, blocks := 0, 0
			sample := sampled(w.seed, r.first+j, programSample)
			for i, t := range op.ps.Traces {
				c, err := r.checkTrace(t.G, w.m, t.Res.S, t.Res.StaticOrder(), sample)
				if err != nil {
					return fmt.Errorf("trace %d: %w", i, err)
				}
				cycles += c
				blocks += len(t.Blocks)
			}
			r.addCycles(j, cycles, blocks)
			if err := w.checkSemantics(r.tr, op); err != nil {
				return err
			}
			for i, l := range op.loops {
				if err := checkLoop(l, w.m); err != nil {
					return fmt.Errorf("loop %d: %w", i, err)
				}
			}
			return nil
		})
	}
}

// checkSemantics rebuilds the program with every block in its scheduled
// order, runs it on the interpreter, and compares registers, memory and the
// executed instruction count with the unscheduled program's.
func (w *program) checkSemantics(tr *spanLog, op *programOp) error {
	blocks := slices.Clone(op.comp.Blocks)
	done := make([]bool, len(blocks))
	for ti, t := range op.ps.Traces {
		base := 0
		for b, bi := range t.Blocks {
			instrs := op.comp.Blocks[bi].Instrs
			order := t.Res.BlockOrders[b]
			if len(order) != len(instrs) || done[bi] {
				return fmt.Errorf("trace %d: block %d order covers %d of %d instructions", ti, bi, len(order), len(instrs))
			}
			re := make([]isa.Instr, len(instrs))
			seen := make([]bool, len(instrs))
			for k, id := range order {
				at := int(id) - base
				if at < 0 || at >= len(instrs) || seen[at] {
					return fmt.Errorf("trace %d: block %d order is not a permutation of the block", ti, bi)
				}
				seen[at] = true
				re[k] = instrs[at]
			}
			blocks[bi].Instrs = re
			done[bi] = true
			base += len(instrs)
		}
	}
	for bi, b := range op.comp.Blocks {
		if len(b.Instrs) > 0 && !done[bi] {
			return fmt.Errorf("block %d is in no scheduled trace", bi)
		}
	}
	sp := tr.begin("interp.run")
	got, err := interp.Run(blocks, nil, 0)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("scheduled program: %w", err)
	}
	if got.Regs != op.want.Regs || got.Steps != op.want.Steps {
		return fmt.Errorf("scheduled program ends in other registers or step count than the original")
	}
	return interp.SameObservable(op.want, got, nil)
}

// checkLoop checks a scheduled loop: a full result whose order is a
// permutation of the body that the window simulator accepts.
func checkLoop(l scheduledLoop, m *aisched.Machine) error {
	if l.st.S != nil && l.st.S.Degraded != "" {
		return fmt.Errorf("degraded result: %s", l.st.S.Degraded)
	}
	n := l.g.Len()
	seen := make([]bool, n)
	if len(l.st.Order) != n {
		return fmt.Errorf("order has %d of %d instructions", len(l.st.Order), n)
	}
	for _, id := range l.st.Order {
		if int(id) < 0 || int(id) >= n || seen[id] {
			return fmt.Errorf("order is not a permutation of the body")
		}
		seen[id] = true
	}
	_, err := hw.SimulateLoop(l.g, m, l.st.Order, programLoopIters, hw.Options{Speculate: true})
	return err
}

func (w *program) probe(r *round) {
	for j, op := range w.ops {
		if op.ps == nil {
			continue
		}
		r.tr.setOp(r.first + j)
		r.check(j, func() error {
			for _, t := range op.ps.Traces {
				if err := probeTrace(r.tr, &w.tally, t.G, w.m, t.Res.S); err != nil {
					return err
				}
			}
			w.bodies += int64(len(op.loops))
			return nil
		})
	}
}

func (w *program) layers(tr *spanLog, m map[string]float64) {
	w.tally.fill(tr, m)
	n := float64(w.programs)
	m["minic.instrs"] = div(float64(w.instrs), n)
	m["cfg.traces"] = div(float64(w.traces), n)
	m["deps.edges"] = div(float64(w.edges), float64(w.traces))
	m["loops.bodies"] = float64(w.bodies)
	// The facade's per-trace cost: the batch call spread over its traces.
	m["core.op_us"] = div(tr.total("batch.schedule"), float64(w.traces))
}

func (w *program) caches() (memo, step aisched.CacheCounters) {
	return w.sc.CacheCounters(), w.sc.StepCacheCounters()
}

func (w *program) setTracer(tr *spanLog) { w.tr = tr }
