package aisched

// Always-on metrics plane. PR 1's tracing (internal/obs) answers "what
// happened inside one run" and must be attached per call; this layer is the
// opposite trade: continuously aggregated process-wide counters, gauges,
// and latency histograms that are on for every request and effectively free
// (the record path is a handful of striped atomic adds — no maps, no locks,
// no allocation; see internal/metrics). It is the substrate a long-running
// scheduling service exports from: MetricsSnapshot for programs,
// WriteMetricsPrometheus for scrapers, ServeDebug for an HTTP debug
// surface (/metrics, /debug/pprof, /healthz, /statsz).
//
// Request latency is recorded on every facade call (two monotonic clock
// reads against a cost of tens to hundreds of microseconds); the per-stage
// rank/idle/sim timings sample one request in 16, since the simulator path
// is only a few microseconds and timing every call would be measurable.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"aisched/internal/buildinfo"
	"aisched/internal/metrics"
)

// Facade instruments, registered once on the process-wide default registry.
var (
	mReqBlockNS = metrics.Default.NewHistogram("aisched_request_block_ns",
		"ScheduleBlock request latency (facade, nanoseconds)")
	mReqTraceNS = metrics.Default.NewHistogram("aisched_request_trace_ns",
		"ScheduleTrace request latency (facade, nanoseconds)")
	mReqLoopNS = metrics.Default.NewHistogram("aisched_request_loop_ns",
		"ScheduleLoop request latency (facade, nanoseconds)")
	mQueueWaitNS = metrics.Default.NewHistogram("aisched_batch_queue_wait_ns",
		"time a batch item waited between submission and a worker picking it up")
	mBatchItems = metrics.Default.NewCounter("aisched_batch_items_total",
		"batch items processed by ScheduleBatch worker pools")
	mBatchDeduped = metrics.Default.NewCounter("aisched_batch_trace_deduped_total",
		"batch trace items served from an identical item's result in the same batch")
	mWorkersBusy = metrics.Default.NewGauge("aisched_batch_workers_busy",
		"batch worker-pool occupancy (items currently being scheduled)")
	mBatchPanics = metrics.Default.NewCounter("aisched_batch_panics_total",
		"panics recovered by the batch per-item isolation boundary")
	mDegraded = metrics.Default.NewCounter("aisched_degraded_total",
		"requests served by the baseline fallback after budget exhaustion")
	mCancelled = metrics.Default.NewCounter("aisched_cancelled_total",
		"requests abandoned by context cancellation")

	// Sampled per-stage timings: one request in 16 pays for the nanotime
	// pair; the histograms still converge on the stage cost distribution.
	mStageRankNS = metrics.Default.NewHistogram("aisched_stage_rank_ns",
		"rank-pass stage latency (sampled 1/16)")
	mStageIdleNS = metrics.Default.NewHistogram("aisched_stage_idle_ns",
		"Delay_Idle_Slots stage latency (sampled 1/16)")
	mStageSimNS = metrics.Default.NewHistogram("aisched_stage_sim_ns",
		"hardware window-simulation latency (sampled 1/16)")
	stageSampler = metrics.NewSampler(16)
	simSampler   = metrics.NewSampler(16)
)

// BuildInfo identifies the running binary: module version plus the VCS
// revision/time/dirty bit stamped by the Go linker.
type BuildInfo = buildinfo.Info

// VersionInfo returns the running binary's build identity.
func VersionInfo() BuildInfo { return buildinfo.Get() }

// MetricsStats is the always-on metrics snapshot: build identity plus every
// registered counter, gauge, and histogram (with p50/p95/p99/max latency
// estimates). Marshals to stable JSON — the /statsz endpoint and
// `aisched -metrics` print exactly this structure.
type MetricsStats struct {
	Build   BuildInfo        `json:"build"`
	Metrics metrics.Snapshot `json:"metrics"`
}

// JSON renders the snapshot as indented JSON.
func (s MetricsStats) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// MetricsSnapshot captures the process-wide metrics registry: schedule-
// cache hit/miss/evict/coalesce, budget exhaustions and degradations,
// request/stage latency quantiles, batch worker occupancy, and the build
// identity. It is safe to call at any frequency from any goroutine.
func MetricsSnapshot() MetricsStats {
	return MetricsStats{Build: buildinfo.Get(), Metrics: metrics.Default.Snapshot()}
}

// WriteMetricsPrometheus writes the process-wide registry in Prometheus
// text format v0.0.4 — the same bytes /metrics serves.
func WriteMetricsPrometheus(w io.Writer) error {
	return metrics.Default.WritePrometheus(w)
}

// DebugServer is an opt-in HTTP observability surface started by
// ServeDebug. It is the substrate a scheduling daemon mounts directly:
//
//	/metrics       — Prometheus text format v0.0.4
//	/statsz        — MetricsSnapshot as JSON
//	/healthz       — liveness ("ok")
//	/debug/pprof/* — the standard Go profiling endpoints (profile, heap,
//	                 goroutine, trace, ...)
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// DebugMux returns the debug HTTP handler without binding a listener, for
// callers that mount it into their own server.
func DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = metrics.Default.WritePrometheus(w)
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, _ *http.Request) {
		data, err := MetricsSnapshot().JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(data)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeDebug binds addr (e.g. "localhost:6060", or ":0" for an ephemeral
// port) and serves the debug surface until Close. The listener is bound
// synchronously — a nil error means Addr() is live — and requests are
// served on a background goroutine.
func ServeDebug(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("aisched: debug server: %w", err)
	}
	ds := &DebugServer{ln: ln, srv: &http.Server{Handler: DebugMux()}}
	go func() {
		if err := ds.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// The server outlives the caller's error handling; nothing to do
			// beyond stopping. Close surfaces no error for a closed listener.
			_ = err
		}
	}()
	return ds, nil
}

// Addr returns the bound address (useful with ":0").
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close stops the server and releases the listener.
func (d *DebugServer) Close() error { return d.srv.Close() }

// observeRequest records one facade request's latency.
func observeRequest(h *metrics.Histogram, start time.Time) {
	h.Observe(int64(time.Since(start)))
}

// stageTimer starts a sampled stage timing; it returns a zero time (skip)
// for the unsampled 15/16 of requests.
func stageTimer(s *metrics.Sampler) time.Time {
	if s.Sample() {
		return time.Now()
	}
	return time.Time{}
}

// stageDone completes a sampled stage timing started by stageTimer.
func stageDone(h *metrics.Histogram, start time.Time) {
	if !start.IsZero() {
		h.Observe(int64(time.Since(start)))
	}
}
