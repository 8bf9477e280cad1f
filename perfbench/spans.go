package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer.
type span struct {
	name       string
	start, end time.Duration // since the log's origin
	id         int
	parent     int // id of the enclosing span, 0 at the root
	op         int // global index of the op the span serves
}

// spanStat aggregates every span of one name, retained or not.
type spanStat struct {
	durs []float64 // µs
	sum  float64
}

// maxSpans bounds the spans kept for the trace file; aggregates keep
// counting past it.
const maxSpans = 50000

// spanLog records spans in memory; writeChrome writes them out when the run
// ends. A nil *spanLog records nothing, so untraced code paths call it
// unconditionally.
type spanLog struct {
	origin time.Time
	spans  []span
	open   map[int]span // begun, not yet ended
	n      int          // spans begun; span ids are 1..n
	stats  map[string]*spanStat
	// op and parent label the next span begun: the harness sets them around
	// each op and each untimed step of a round.
	op, parent int
}

func newSpanLog() *spanLog {
	return &spanLog{origin: time.Now(), open: map[int]span{}, stats: map[string]*spanStat{}}
}

// begin opens a span under the current parent and returns its id.
func (l *spanLog) begin(name string) int {
	if l == nil {
		return 0
	}
	l.n++
	l.open[l.n] = span{name: name, start: time.Since(l.origin), id: l.n, parent: l.parent, op: l.op}
	return l.n
}

// end closes span id and returns its duration in µs.
func (l *spanLog) end(id int) float64 {
	if l == nil {
		return 0
	}
	now := time.Since(l.origin)
	s, ok := l.open[id]
	if !ok {
		return 0
	}
	delete(l.open, id)
	s.end = now
	d := float64((s.end - s.start).Nanoseconds()) / 1e3
	st := l.stats[s.name]
	if st == nil {
		st = &spanStat{}
		l.stats[s.name] = st
	}
	st.durs = append(st.durs, d)
	st.sum += d
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, s)
	}
	return d
}

// mean is the mean duration of name's spans in µs (0 when none ran).
func (l *spanLog) mean(name string) float64 {
	st := l.stats[name]
	if st == nil || len(st.durs) == 0 {
		return 0
	}
	return st.sum / float64(len(st.durs))
}

// total is the summed duration of name's spans in µs.
func (l *spanLog) total(name string) float64 {
	if st := l.stats[name]; st != nil {
		return st.sum
	}
	return 0
}

// quantile is the q-quantile of name's span durations in µs.
func (l *spanLog) quantile(name string, q float64) float64 {
	if st := l.stats[name]; st != nil {
		return quantile(st.durs, q)
	}
	return 0
}

// writeChrome writes the retained spans as Chrome trace-event JSON
// (loadable in Perfetto): one complete event per span, one track per op.
func (l *spanLog) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	if _, err := w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	enc := json.NewEncoder(w)
	for i, s := range l.spans {
		if i > 0 {
			if err := w.WriteByte(','); err != nil {
				return fmt.Errorf("spans: %w", err)
			}
		}
		ev := event{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start),
			Pid: 1, Tid: s.op, Args: map[string]int{"id": s.id, "parent": s.parent, "op": s.op}}
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
	}
	if _, err := fmt.Fprintf(w, `],"otherData":{"spans_begun":%d,"spans_written":%d}}`, l.n, len(l.spans)); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// setOp labels the spans begun next as serving op i.
func (l *spanLog) setOp(i int) {
	if l != nil {
		l.op = i
	}
}
