package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"aisched"
)

// inputFingerprint hashes the first n inputs a workload generates for seed.
func inputFingerprint(t *testing.T, workload string, seed int64, n int) string {
	t.Helper()
	h := sha256.New()
	switch workload {
	case "trace-long":
		m := aisched.SingleUnit(4)
		for i := 0; i < n; i++ {
			g, err := traceLongInput(seed, streamOps, i)
			if err != nil {
				t.Fatal(err)
			}
			fp := g.Fingerprint(m.Units, m.Window)
			h.Write(fp[:])
		}
	case "program":
		for i := 0; i < n; i++ {
			op, err := programInput(seed, streamOps, i)
			if err != nil {
				t.Fatal(err)
			}
			h.Write([]byte(op.src))
		}
	case "stream-dup":
		w := newStreamDup(seed).(*streamDup)
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < n; c++ {
			fmt.Fprint(h, streamBlocks(streamChunk(seed, streamOps, c, w.lib), 0))
		}
	default:
		t.Fatalf("no fingerprint for workload %q", workload)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestInputsDeterministic: the same seed gives identical inputs, another
// seed different ones.
func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloadNames() {
		a := inputFingerprint(t, w, 7, 4)
		if b := inputFingerprint(t, w, 7, 4); a != b {
			t.Errorf("%s: seed 7 gave different inputs on two draws", w)
		}
		if c := inputFingerprint(t, w, 8, 4); a == c {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", w)
		}
	}
}

// runBench runs the benchmark in smoke mode and decodes its last line.
func runBench(t *testing.T, workload string, seed int64, trace int) result {
	t.Helper()
	var out, errb bytes.Buffer
	args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", "0.3",
		"-trace", fmt.Sprint(trace), "-prefix-ops", "8", "-spans-dir", t.TempDir()}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%s trace %d: exit %d: %s", workload, trace, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace %d: correct=%v failed=%d attempted=%d; meta: %s",
			workload, trace, res.Correct, res.Failed, res.Attempted, lines[0])
	}
	return res
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload briefly, untraced and traced: every op
// passes its output checks, each run reports exactly the metrics and units
// BENCHMARK.json declares, and cycles_per_block repeats exactly for a
// repeated seed.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloadNames() {
		a := runBench(t, w, 3, 0)
		checkMetrics(t, w, a.Metrics, endToEnd)
		for name, m := range a.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
			}
		}
		b := runBench(t, w, 3, 0)
		if x, y := a.Metrics["cycles_per_block"].Value, b.Metrics["cycles_per_block"].Value; x != y {
			t.Errorf("%s: cycles_per_block %v then %v for one seed", w, x, y)
		}
		checkMetrics(t, w, runBench(t, w, 3, 1).Metrics, perLayer)
	}
}

func checkMetrics(t *testing.T, w string, got map[string]metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", w, len(got), len(want))
	}
	for name, unit := range want {
		if m, ok := got[name]; !ok || m.Unit != unit {
			t.Errorf("%s: metric %s reported as %+v, BENCHMARK.json declares unit %q", w, name, m, unit)
		}
	}
}

// TestLayerSplit: the traced runs' counters confirm which workload drives
// which layer.
func TestLayerSplit(t *testing.T) {
	v := map[string]map[string]float64{}
	for _, w := range workloadNames() {
		v[w] = map[string]float64{}
		for name, m := range runBench(t, w, 5, 1).Metrics {
			v[w][name] = m.Value
		}
	}
	if v["trace-long"]["spec.runs"] == 0 || v["program"]["spec.runs"] != 0 || v["stream-dup"]["spec.runs"] != 0 {
		t.Errorf("spec.runs: trace-long %v, program %v, stream-dup %v; want > 0 only on trace-long",
			v["trace-long"]["spec.runs"], v["program"]["spec.runs"], v["stream-dup"]["spec.runs"])
	}
	if v["program"]["memo.hits"] == 0 || v["trace-long"]["memo.hits"] != 0 {
		t.Errorf("memo.hits: program %v, trace-long %v; want > 0 on program and 0 on trace-long",
			v["program"]["memo.hits"], v["trace-long"]["memo.hits"])
	}
	if s, l := v["stream-dup"]["stepcache.hit_ratio"], v["trace-long"]["stepcache.hit_ratio"]; s <= l {
		t.Errorf("stepcache.hit_ratio: stream-dup %v not above trace-long %v", s, l)
	}
}
