package main

import "aisched"

// perLayerMetrics lists what a traced run reports, grouped by module.
// Timings (_us) are means per call over the traced phase unless named as a
// percentile; counts are totals over the traced phase; sizes are means per
// call. README.md gives the end-to-end metric and workload each one should
// move.
var perLayerMetrics = []struct{ name, unit string }{
	{"minic.compile_us", "us"},
	{"minic.instrs", "count"},
	{"cfg.select_us", "us"},
	{"cfg.traces", "count"},
	{"deps.build_us", "us"},
	{"deps.edges", "count"},
	{"memo.fingerprint_us", "us"},
	{"memo.hits", "count"},
	{"memo.misses", "count"},
	{"memo.hit_ratio", "ratio"},
	{"memo.resident_mb", "MB"},
	{"batch.queue_wait_us_p50", "us"},
	{"batch.queue_wait_us_p99", "us"},
	{"batch.items", "count"},
	{"core.walk_us", "us"},
	{"core.walk_us_per_block", "us"},
	{"core.op_us", "us"},
	{"stepcache.hits", "count"},
	{"stepcache.misses", "count"},
	{"stepcache.hit_ratio", "ratio"},
	{"stepcache.resident_mb", "MB"},
	{"spec.runs", "count"},
	{"spec.segments", "count"},
	{"spec.hit_ratio", "ratio"},
	{"spec.fallback_blocks_per_trace", "count"},
	{"spec.saving_us", "us"},
	{"rank.block_us", "us"},
	{"rank.nodes", "count"},
	{"idle.delay_us", "us"},
	{"idle.slots", "count"},
	{"loops.schedule_us", "us"},
	{"loops.bodies", "count"},
	{"stream.push_us_p50", "us"},
	{"stream.push_us_p99", "us"},
	{"stream.suffix_nodes_mean", "count"},
	{"stream.suffix_nodes_max", "count"},
	{"stream.emit_lag_blocks", "count"},
	{"stream.flush_us", "us"},
	{"hw.simulate_us", "us"},
	{"sched.checklegal_us", "us"},
	{"sched.window_violation_frac", "ratio"},
	{"sched.ordering_violation_frac", "ratio"},
	{"hw.overrun_frac", "ratio"},
	{"interp.run_us", "us"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_us", "us"},
	{"trace.overhead_frac", "ratio"},
	{"fail_frac", "ratio"},
}

// counters is a snapshot of the public counter readers: the schedule cache
// and step cache of the scheduler under test, the process-wide speculation
// counters, and the batch item counter of MetricsSnapshot.
type counters struct {
	memo, step aisched.CacheCounters
	spec       aisched.SpecCounters
	batchItems uint64
}

func snapshotCounters(w runner) counters {
	c := counters{spec: aisched.SpecTraceCounters()}
	c.memo, c.step = w.caches()
	c.batchItems = aisched.MetricsSnapshot().Metrics.Counters["aisched_batch_items_total"]
	return c
}

// perLayer derives the per-layer metrics from the span log and the counter
// deltas since before.
func perLayer(tr *spanLog, w runner, before counters) map[string]float64 {
	after := snapshotCounters(w)
	snap := aisched.MetricsSnapshot().Metrics
	m := map[string]float64{}

	hits, misses := after.memo.Hits-before.memo.Hits, after.memo.Misses-before.memo.Misses
	m["memo.hits"], m["memo.misses"] = float64(hits), float64(misses)
	m["memo.hit_ratio"] = ratio(hits, misses)
	m["memo.resident_mb"] = float64(after.memo.Bytes) / 1e6

	hits, misses = after.step.Hits-before.step.Hits, after.step.Misses-before.step.Misses
	m["stepcache.hits"], m["stepcache.misses"] = float64(hits), float64(misses)
	m["stepcache.hit_ratio"] = ratio(hits, misses)
	m["stepcache.resident_mb"] = float64(after.step.Bytes) / 1e6

	runs := after.spec.Runs - before.spec.Runs
	m["spec.runs"] = float64(runs)
	m["spec.segments"] = float64(after.spec.Segments - before.spec.Segments)
	m["spec.hit_ratio"] = ratio(after.spec.Hits-before.spec.Hits, after.spec.Misses-before.spec.Misses)
	m["spec.fallback_blocks_per_trace"] = div(float64(after.spec.FallbackBlocks-before.spec.FallbackBlocks), float64(runs))

	// Queue-wait quantiles come from a process-wide histogram; the traced
	// run is a process of its own, so they cover this workload only.
	qw := snap.Histograms["aisched_batch_queue_wait_ns"]
	m["batch.queue_wait_us_p50"] = qw.P50 / 1e3
	m["batch.queue_wait_us_p99"] = qw.P99 / 1e3
	m["batch.items"] = float64(after.batchItems - before.batchItems)

	for metric, span := range map[string]string{
		"minic.compile_us":    "minic.compile",
		"cfg.select_us":       "cfg.select",
		"deps.build_us":       "deps.build",
		"memo.fingerprint_us": "memo.fingerprint",
		"core.walk_us":        "core.walk",
		"rank.block_us":       "rank.block",
		"idle.delay_us":       "idle.delay",
		"loops.schedule_us":   "loops.schedule",
		"stream.flush_us":     "stream.flush",
		"hw.simulate_us":      "hw.simulate",
		"sched.checklegal_us": "sched.checklegal",
		"interp.run_us":       "interp.run",
	} {
		m[metric] = tr.mean(span)
	}
	m["stream.push_us_p50"] = tr.quantile("stream.push", 0.50)
	m["stream.push_us_p99"] = tr.quantile("stream.push", 0.99)
	w.layers(tr, m)
	return m
}

// fill adds the probe sizes to m.
func (t *layerTally) fill(tr *spanLog, m map[string]float64) {
	m["rank.nodes"] = div(float64(t.rankNodes), float64(t.blocks))
	m["idle.slots"] = div(float64(t.idleSlots), float64(t.blocks))
	m["core.walk_us_per_block"] = div(tr.total("core.walk"), float64(t.walkBlocks))
}
