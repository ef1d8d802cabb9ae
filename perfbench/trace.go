package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// maxSpans bounds the spans one traced run keeps in memory; later spans
// are counted but not stored.
const maxSpans = 50000

// span is one timed call the benchmark made into a layer.
type span struct {
	name  string
	tid   int   // lane in the trace viewer: cell stream, agent or controller
	id    int64 // request the span belongs to (cell or flow index), -1 if none
	start time.Time
	dur   time.Duration
}

// tracer records spans for a traced run. A nil *tracer records nothing, so
// untraced runs pay one nil check per span site.
type tracer struct {
	origin  time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
	sums    map[string]spanSum
}

// spanSum aggregates every span of one name, stored or not.
type spanSum struct {
	n     int64
	total time.Duration
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), sums: make(map[string]spanSum)}
}

// record stores one span.
func (t *tracer) record(name string, tid int, id int64, start, end time.Time) {
	if t == nil {
		return
	}
	dur := end.Sub(start)
	t.mu.Lock()
	s := t.sums[name]
	s.n++
	s.total += dur
	t.sums[name] = s
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{name: name, tid: tid, id: id, start: start, dur: dur})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// meanNs reports the mean duration of the named spans in nanoseconds.
func (t *tracer) meanNs(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.sums[name]
	if s.n == 0 {
		return 0
	}
	return float64(s.total.Nanoseconds()) / float64(s.n)
}

// writeChrome writes the stored spans as Chrome trace_event JSON
// (chrome://tracing, Perfetto).
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int64 `json:"args,omitempty"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		e := event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.tid,
			Ts:  float64(s.start.Sub(t.origin).Nanoseconds()) / 1e3,
			Dur: float64(s.dur.Nanoseconds()) / 1e3,
		}
		if s.id >= 0 {
			e.Args = map[string]int64{"id": s.id}
		}
		events = append(events, e)
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ns",
		"otherData":       map[string]int{"dropped_spans": t.dropped},
	})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return nil
}
