package aisched

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"aisched/internal/metrics"
	"aisched/internal/workload"
)

// snapshotDelta captures before/after views of the process-global registry so
// tests can assert on what *this* test contributed, regardless of what other
// tests in the binary already recorded.
type snapshotDelta struct {
	before metrics.Snapshot
}

func beginDelta() snapshotDelta { return snapshotDelta{before: metrics.Default.Snapshot()} }

func (d snapshotDelta) counter(name string) uint64 {
	return metrics.Default.Snapshot().Counters[name] - d.before.Counters[name]
}

func (d snapshotDelta) histCount(name string) uint64 {
	return metrics.Default.Snapshot().Histograms[name].Count - d.before.Histograms[name].Count
}

// batchItems builds n batch items of one kind over k distinct graphs. Block
// items exercise schedule-cache misses, hits, and (in the parallel pool)
// coalescing; duplicate trace items are scheduled once per batch instead.
func batchItems(t *testing.T, n, k int, kind BatchKind) []BatchItem {
	t.Helper()
	m := SingleUnit(4)
	graphs := make([]*Graph, k)
	for i := range graphs {
		r := rand.New(rand.NewSource(int64(i)))
		g, err := workload.Trace(r, workload.DefaultTrace())
		if err != nil {
			t.Fatal(err)
		}
		graphs[i] = g
	}
	items := make([]BatchItem, n)
	for i := range items {
		items[i] = BatchItem{G: graphs[i%k], M: m, Kind: kind}
	}
	return items
}

// TestMetricsConcurrentBatch hammers the process-global registry from a
// parallel 64-item batch of block requests — under -race this is the
// data-race check for the striped counters, gauges, and histograms; in any
// mode it checks that the always-on instruments actually move when the
// façade does work.
func TestMetricsConcurrentBatch(t *testing.T) {
	d := beginDelta()
	sc := NewScheduler(SchedulerOptions{})
	items := batchItems(t, 64, 8, BatchBlock)
	for _, r := range sc.ScheduleBatch(items) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}

	if got := d.counter("aisched_batch_items_total"); got != 64 {
		t.Errorf("batch items counter moved by %d, want 64", got)
	}
	if got := d.histCount("aisched_request_block_ns"); got != 64 {
		t.Errorf("request latency histogram recorded %d observations, want 64", got)
	}
	if got := d.histCount("aisched_batch_queue_wait_ns"); got != 64 {
		t.Errorf("queue-wait histogram recorded %d observations, want 64", got)
	}
	cc := sc.CacheCounters()
	if cc.BlockMisses != 8 || cc.BlockHits+cc.BlockCoalesced != 56 {
		t.Errorf("64 block items over 8 graphs: counters %+v, want 8 misses and 56 hits or coalesces", cc)
	}
	if got := d.counter("aisched_memo_hits_total") + d.counter("aisched_memo_coalesced_total"); got != 56 {
		t.Errorf("memo hit+coalesce metrics moved by %d, want 56", got)
	}
	if got := d.counter("aisched_memo_misses_total"); got != 8 {
		t.Errorf("memo miss metric moved by %d, want 8", got)
	}
	// The worker-occupancy gauge must return to zero once the batch drains.
	if got := metrics.Default.Snapshot().Gauges["aisched_batch_workers_busy"]; got != 0 {
		t.Errorf("workers-busy gauge = %d after batch completed, want 0", got)
	}
}

// TestMetricsDegradation forces budget exhaustion and checks the exhaust /
// degrade instruments and latency quantiles appear in the snapshot.
func TestMetricsDegradation(t *testing.T) {
	d := beginDelta()
	sc := NewScheduler(SchedulerOptions{Budget: Budget{MaxRankPasses: 1}})
	items := batchItems(t, 8, 8, BatchTrace)
	for _, r := range sc.ScheduleBatch(items) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Degraded() == "" {
			t.Fatal("MaxRankPasses=1 should degrade every trace request")
		}
	}
	if got := d.counter("aisched_budget_exhausted_total"); got < 8 {
		t.Errorf("budget-exhausted counter moved by %d, want >= 8", got)
	}
	if got := d.counter("aisched_degraded_total"); got != 8 {
		t.Errorf("degraded counter moved by %d, want 8", got)
	}
	s := MetricsSnapshot()
	h, ok := s.Metrics.Histograms["aisched_request_trace_ns"]
	if !ok || h.Count == 0 {
		t.Fatal("request latency histogram missing from snapshot")
	}
	if h.P50 <= 0 || h.P99 < h.P50 || float64(h.Max) < h.P99 {
		t.Errorf("latency quantiles not ordered: p50=%g p99=%g max=%d", h.P50, h.P99, h.Max)
	}
}

// promLine matches one Prometheus text-format sample line:
// name{labels} value  or  name value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9.e+-]+(Inf)?$`)

// TestServeDebugAcceptance is the PR's end-to-end gate: run a batch (with
// degradation), then check every debug endpoint — /metrics parses as
// Prometheus text and carries the memo, budget, and latency families;
// /statsz is the JSON snapshot; /healthz answers; /debug/pprof/profile
// returns a CPU profile.
func TestServeDebugAcceptance(t *testing.T) {
	sc := NewScheduler(SchedulerOptions{Budget: Budget{MaxRankPasses: 1}})
	for _, r := range sc.ScheduleBatch(batchItems(t, 16, 4, BatchTrace)) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	// A second, unbudgeted scheduler over block items so schedule-cache
	// hits and misses both exist.
	sc2 := NewScheduler(SchedulerOptions{})
	for _, r := range sc2.ScheduleBatch(batchItems(t, 16, 4, BatchBlock)) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}

	d, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	base := "http://" + d.Addr()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	// /healthz
	if body, _ := get("/healthz"); body != "ok\n" {
		t.Errorf("/healthz = %q, want ok", body)
	}

	// /metrics: every non-comment line must parse; required families with
	// nonzero values must be present.
	body, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("/metrics content type = %q", ctype)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("/metrics line does not parse as Prometheus text: %q", line)
		}
		var name string
		var val float64
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name = line[:i]
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &val)
		} else {
			fmt.Sscanf(line, "%s %g", &name, &val)
		}
		samples[name] += val
	}
	for _, want := range []string{
		"aisched_memo_hits_total",
		"aisched_memo_misses_total",
		"aisched_budget_exhausted_total",
		"aisched_degraded_total",
		"aisched_request_trace_ns_count",
		"aisched_request_trace_ns_sum",
		"aisched_request_trace_ns_bucket",
		"aisched_batch_queue_wait_ns_count",
	} {
		if samples[want] == 0 {
			t.Errorf("/metrics lacks a nonzero %s after the batch run", want)
		}
	}

	// /statsz: valid JSON snapshot with build info and the same counters.
	body, ctype = get("/statsz")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/statsz content type = %q", ctype)
	}
	var snap struct {
		Build   BuildInfo `json:"build"`
		Metrics struct {
			Counters   map[string]uint64 `json:"counters"`
			Histograms map[string]struct {
				Count uint64  `json:"count"`
				P50   float64 `json:"p50"`
				P99   float64 `json:"p99"`
			} `json:"histograms"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/statsz is not valid JSON: %v", err)
	}
	if snap.Build.GoVersion == "" {
		t.Error("/statsz lacks build info")
	}
	if snap.Metrics.Counters["aisched_memo_hits_total"] == 0 {
		t.Error("/statsz lacks memo hit counter")
	}
	if h := snap.Metrics.Histograms["aisched_request_trace_ns"]; h.Count == 0 || h.P50 <= 0 || h.P99 < h.P50 {
		t.Errorf("/statsz latency quantiles missing or unordered: %+v", h)
	}

	// /debug/pprof/profile: a real (short) CPU profile.
	if testing.Short() {
		return
	}
	resp, err := http.Get(base + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	prof, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(prof) == 0 {
		t.Errorf("/debug/pprof/profile: status %d, %d bytes", resp.StatusCode, len(prof))
	}
}

// TestRecorderCapRealStream checks the capped recorder's exactness guarantee
// on a genuine scheduler+simulator event stream, not just synthetic events:
// a 64-event ring must report the same Stats as an unbounded recorder over a
// full traced loop run.
func TestRecorderCapRealStream(t *testing.T) {
	run := func(rec *TraceRecorder) Stats {
		t.Helper()
		g, err := workload.Loop(rand.New(rand.NewSource(7)), workload.DefaultLoop())
		if err != nil {
			t.Fatal(err)
		}
		m := SingleUnit(4)
		o := WithTracer(rec)
		best, err := o.ScheduleLoop(g, m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := o.SimulateLoop(g, m, best.Order, 8, SimOptions{Speculate: true}); err != nil {
			t.Fatal(err)
		}
		return rec.Stats()
	}
	full := run(NewRecorder())
	capped := NewRecorderCap(64)
	got := run(capped)
	if capped.Dropped() == 0 {
		t.Fatal("cap=64 recorder dropped nothing; stream too small to test eviction")
	}
	fullJSON, _ := full.JSON()
	gotJSON, _ := got.JSON()
	if string(fullJSON) != string(gotJSON) {
		t.Errorf("capped recorder stats diverge from unbounded:\n got: %s\nwant: %s", gotJSON, fullJSON)
	}
	if capped.Len() > 64 {
		t.Errorf("capped recorder retained %d events, cap 64", capped.Len())
	}
}

// TestMetricsPrometheusWriter covers the package-level writer used outside
// HTTP.
func TestMetricsPrometheusWriter(t *testing.T) {
	var sb strings.Builder
	if err := WriteMetricsPrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# TYPE aisched_memo_hits_total counter") {
		t.Error("writer output lacks memo counter TYPE line")
	}
	if !strings.Contains(out, "# TYPE aisched_request_trace_ns histogram") {
		t.Error("writer output lacks request histogram TYPE line")
	}
}

// TestVersionInfo checks the build-identity surface is populated and stable.
func TestVersionInfo(t *testing.T) {
	bi := VersionInfo()
	if bi.GoVersion == "" || bi.Module == "" {
		t.Errorf("VersionInfo incomplete: %+v", bi)
	}
	s := bi.String()
	if !strings.Contains(s, bi.GoVersion) {
		t.Errorf("String() = %q lacks go version", s)
	}
	// Stamp survives the snapshot JSON round trip.
	data, err := MetricsSnapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["build"]; !ok {
		t.Error("MetricsSnapshot JSON lacks build section")
	}
}
