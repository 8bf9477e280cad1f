// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload through the public facade (aisched.Scheduler,
// aisched.StreamScheduler, aisched.CompileC) in a closed loop, checks every
// output against references that do not come from the scheduler (the hw
// window simulator, sched.CheckLegal, the interp interpreter), and prints
// the metrics as one JSON object on the last line of standard output:
//
//	go build -o perfbench . && ./perfbench -workload trace-long -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones (setup time, blocks per
// second, op latency, completion cycles per block, allocation and heap).
// With -trace 1 the run records spans around the calls into each module and
// reports the per-layer metrics instead; the spans are written to a Chrome
// trace-event file in -spans-dir. README.md lists the workloads, the metrics
// and which layer should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"aisched"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
	prefix   int // 0: the workload's prefixOps
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "wall-clock length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&cfg.spansDir, "spans-dir", ".", "directory for the traced run's span file")
	fs.IntVar(&cfg.prefix, "prefix-ops", 0, "ops every run completes, over which cycles_per_block and heap_peak_mb are taken (0: the workload's default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	res, meta, err := bench(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner is one workload: a seeded input family that one calling goroutine
// runs in a closed loop — the next op starts when the previous one returns,
// because a compiler waits for its scheduler. Inputs are generated per
// round, outside the timed region; op i's input depends only on the seed
// and i.
type runner interface {
	// setup builds the scheduler under test and warms it up on fixed
	// warm-up inputs (warmSeed) the timed ops never draw.
	setup() error
	// prepare generates the inputs of the next round and returns how many
	// ops it holds. first is the global index of the round's first op.
	prepare(first int) (int, error)
	// do runs op j of the prepared round — the timed call — and returns
	// how many basic blocks it scheduled.
	do(j int) (blocks int, err error)
	// endRound runs timed work that closes a round without being an op of
	// its own (the stream's Flush).
	endRound() error
	// verify checks the round's outputs against references that do not
	// come from the scheduler under test. It runs outside the timed region.
	verify(r *round)
	// probe runs the traced run's per-layer measurements on the round's
	// inputs, outside the timed region.
	probe(r *round)
	// layers adds the workload's own per-layer metrics (probe sizes and
	// timings) to m at the end of the traced phase.
	layers(tr *spanLog, m map[string]float64)
	// caches reads the cache counters of the scheduler under test.
	caches() (memo, step aisched.CacheCounters)
	// setTracer installs the span log (nil turns tracing off).
	setTracer(tr *spanLog)
}

// round is the bookkeeping of one round of ops.
type round struct {
	first  int     // global index of op 0
	errs   []error // per op; set by do, endRound or verify
	prefix int     // ops with a global index below prefix count toward cycles
	// cycles and cycleBlocks sum the simulated completion cycles and the
	// blocks of ops inside the fixed prefix.
	cycles, cycleBlocks int64
	legal               legalTally
	tr                  *spanLog
}

func (r *round) fail(j int, err error) {
	if r.errs[j] == nil {
		r.errs[j] = err
	}
}

// check runs one output check of op j; an error or a panic fails the op.
func (r *round) check(j int, f func() error) {
	if err := guard(f); err != nil {
		r.fail(j, err)
	}
}

// addCycles records op j's simulated completion if it lies in the prefix.
func (r *round) addCycles(j int, cycles, blocks int) {
	if r.first+j < r.prefix {
		r.cycles += int64(cycles)
		r.cycleBlocks += int64(blocks)
	}
}

// phase aggregates one measured phase.
type phase struct {
	lat                 []float64 // per-op latency of untraced rounds, µs
	latTraced           []float64 // per-op latency of traced rounds, µs
	ops, failed         int
	blocks              int64
	timed               time.Duration // wall time of the timed calls
	mallocs, bytes      uint64
	heapPeak            uint64 // max live heap after a GC seen within the prefix
	cycles, cycleBlocks int64
	legal               legalTally
	firstErr            error
}

// harness runs rounds of one workload and keeps the global op count.
type harness struct {
	w      runner
	next   int // global index of the next op
	prefix int
	heap   []metrics.Sample
}

// setupReps is how many times set-up is repeated to report its median.
const setupReps = 7

func bench(cfg config) (*result, map[string]any, error) {
	spec, ok := workloadSpecs[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames())
	}
	w := spec.make(cfg.seed)
	if cfg.prefix > 0 {
		spec.prefixOps = cfg.prefix
	}
	reps := setupReps
	if cfg.trace {
		reps = 1 // the traced run reports no set-up time
	}
	// The first set-up also pays the process's own start-up (heap growth,
	// first GC cycles); it is not counted, so setup_s is the steady cost.
	var setups []float64
	for i := -1; i < reps; i++ {
		runtime.GC() // each set-up starts from the same clean heap
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		if i >= 0 {
			setups = append(setups, time.Since(t0).Seconds())
		}
	}
	runtime.GC() // drop the earlier set-ups' schedulers

	d := &harness{w: w, prefix: spec.prefixOps,
		heap: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	meta := map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"trace":       cfg.trace,
		"num_cpu":     runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"prefix_ops":  spec.prefixOps,
		"setup_reps":  reps,
		"seconds":     cfg.seconds,
		"op_is":       spec.op,
		"setup_s_all": setups,
	}
	res := &result{Metrics: map[string]metric{}}
	if !cfg.trace {
		p := d.phase(secs(cfg.seconds), spec.prefixOps, nil)
		endToEnd(res, p, median(setups))
		meta["ops"] = p.ops
		meta["op_p99_us"] = quantile(p.lat, 0.99)
		meta["timed_s"] = p.timed.Seconds()
		meta["first_error"] = errString(p.firstErr)
		meta["checked_schedules"] = p.legal.schedules
		for k, v := range p.legal.fracs() {
			meta[k] = v
		}
		return res, meta, nil
	}

	// Traced run: rounds alternate between untraced and traced on the same
	// scheduler, so the untraced rounds give the baseline op latency for
	// the tracing overhead under the same cache state and load.
	tr := newSpanLog()
	before := snapshotCounters(w)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	p := d.phase(secs(cfg.seconds), 0, tr)
	runtime.ReadMemStats(&ms1)
	vals := perLayer(tr, w, before)
	vals["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	vals["runtime.gc_pause_us"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e3
	vals["trace.overhead_frac"] = div(quantile(p.latTraced, 0.5), quantile(p.lat, 0.5)) - 1
	vals["fail_frac"] = div(float64(p.failed), float64(p.ops))
	for k, v := range p.legal.fracs() {
		vals[k] = v
	}
	for _, pl := range perLayerMetrics {
		res.Metrics[pl.name] = metric{Value: vals[pl.name], Unit: pl.unit}
	}
	res.Attempted = p.ops
	res.Failed = p.failed
	res.Correct = p.failed == 0
	path := filepath.Join(cfg.spansDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.writeChrome(path); err != nil {
		return nil, nil, err
	}
	meta["ops"] = p.ops
	meta["ops_untraced"] = len(p.lat)
	meta["ops_traced"] = len(p.latTraced)
	meta["spans_file"] = path
	meta["spans_recorded"] = tr.n
	meta["spans_dropped"] = tr.n - len(tr.spans)
	meta["first_error"] = errString(p.firstErr)
	return res, meta, nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// endToEnd fills the untraced run's metrics.
func endToEnd(res *result, p *phase, setup float64) {
	blocks := float64(p.blocks)
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", setup)
	put("blocks_per_s", "1/s", blocks/p.timed.Seconds())
	put("op_p50_us", "us", quantile(p.lat, 0.50))
	put("op_p95_us", "us", quantile(p.lat, 0.95))
	put("cycles_per_block", "cycles/block", div(float64(p.cycles), float64(p.cycleBlocks)))
	put("allocs_per_block", "allocs/block", float64(p.mallocs)/blocks)
	put("bytes_per_block", "B/block", float64(p.bytes)/blocks)
	put("heap_peak_mb", "MB", float64(p.heapPeak)/1e6)
	res.Attempted = p.ops
	res.Failed = p.failed
	res.Correct = p.failed == 0
}

// phase runs whole rounds until wall time is spent and at least minOps ops
// have run. With a span log, every second round is traced: it records spans
// and runs the workload's probes.
func (d *harness) phase(wall time.Duration, minOps int, log *spanLog) *phase {
	p := &phase{}
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	// A traced phase runs at least one round of each kind.
	for k := 0; time.Since(start) < wall || p.ops < minOps || (log != nil && k < 2); k++ {
		var tr *spanLog
		if k%2 == 1 {
			tr = log
		}
		d.w.setTracer(tr)
		n, err := d.w.prepare(d.next)
		if err != nil {
			// Inputs come from the benchmark's own generators; a failure
			// here is a benchmark defect, reported as a failed op.
			p.ops++
			p.failed++
			if p.firstErr == nil {
				p.firstErr = fmt.Errorf("prepare op %d: %w", d.next, err)
			}
			d.next++
			continue
		}
		r := &round{first: d.next, errs: make([]error, n), prefix: d.prefix, tr: tr}
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for j := 0; j < n; j++ {
			if tr != nil {
				tr.op = d.next + j
				tr.parent = tr.begin("op")
			}
			o := time.Now()
			blocks, err := d.do(j)
			lat := float64(time.Since(o).Nanoseconds()) / 1e3
			if tr != nil {
				tr.end(tr.parent)
				tr.parent = 0
				p.latTraced = append(p.latTraced, lat)
			} else {
				p.lat = append(p.lat, lat)
			}
			p.blocks += int64(blocks)
			if err != nil {
				r.fail(j, err)
			}
			if d.next+j < d.prefix {
				metrics.Read(d.heap)
				if v := d.heap[0].Value.Uint64(); v > p.heapPeak {
					p.heapPeak = v
				}
			}
		}
		if err := guard(d.w.endRound); err != nil {
			r.fail(n-1, err)
		}
		p.timed += time.Since(t0)
		runtime.ReadMemStats(&ms1)
		p.mallocs += ms1.Mallocs - ms0.Mallocs
		p.bytes += ms1.TotalAlloc - ms0.TotalAlloc

		d.untimed(tr, "verify", func() { d.w.verify(r) })
		if tr != nil {
			d.untimed(tr, "probe", func() { d.w.probe(r) })
		}
		for j, err := range r.errs {
			if err != nil {
				p.failed++
				if p.firstErr == nil {
					p.firstErr = fmt.Errorf("op %d: %w", d.next+j, err)
				}
			}
		}
		p.ops += n
		p.cycles += r.cycles
		p.cycleBlocks += r.cycleBlocks
		p.legal.merge(r.legal)
		d.next += n
	}
	d.w.setTracer(nil)
	return p
}

// do runs one op, turning a panic into a failure.
func (d *harness) do(j int) (blocks int, err error) {
	err = guard(func() (err error) {
		blocks, err = d.w.do(j)
		return err
	})
	return blocks, err
}

// untimed runs an untimed step of the round under its own span.
func (d *harness) untimed(tr *spanLog, name string, f func()) {
	if tr != nil {
		tr.parent = tr.begin(name)
		defer func() { tr.end(tr.parent); tr.parent = 0 }()
	}
	f()
}

// guard calls f, turning a panic into an error.
func guard(f func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return f()
}
