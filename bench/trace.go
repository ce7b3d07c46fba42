package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"stochstream/internal/flightrec"
)

// tracer collects the traced run: boundary spans the benchmark records
// around its calls into each layer, merged with the phase spans each shard's
// flight recorder kept. Spans stay in memory and are written once, when the
// run ends. A nil tracer records nothing.
type tracer struct {
	spans  []traceSpan
	nextID uint64
	// keepShard says whether shard phase spans are kept for the trace file
	// (their sums are always aggregated); maxSpans bounds the file.
	keepShard bool
	truncated int
}

type traceSpan struct {
	name, cat  string
	batch      int
	tid        int
	begin, dur int64 // Unix nanoseconds
	id, parent uint64
	keys       int
	detail     int64
}

// maxTraceSpans keeps a full-scale trace loadable (~60 MB of JSON).
const maxTraceSpans = 1 << 18

// flightRing is the span capacity of the recorders shardrt builds
// (flightrec's default): more spans than that between two drains are lost
// and counted in flightrec.spans_dropped.
const flightRing = 1024

// span records one boundary span and returns its id. batch is the id spans
// of one request share across layers.
func (t *tracer) span(name, cat string, batch int, start time.Time, dur time.Duration, parent uint64) uint64 {
	if t == nil {
		return 0
	}
	t.nextID++
	t.spans = append(t.spans, traceSpan{
		name: name, cat: cat, batch: batch, begin: start.UnixNano(), dur: int64(dur),
		id: t.nextID, parent: parent,
	})
	return t.nextID
}

// shardSpan merges one flight-recorder span of a shard under the boundary
// span of the IngestBatch that caused it. Recorder ids are per shard, so
// they are lifted into a space of their own.
func (t *tracer) shardSpan(shard, batch int, boundary uint64, s flightrec.Span) {
	if t == nil || !t.keepShard {
		return
	}
	if len(t.spans) >= maxTraceSpans {
		t.truncated++
		return
	}
	lift := func(id uint64) uint64 { return uint64(shard+1)<<40 | id }
	parent := boundary
	if s.Parent != 0 {
		parent = lift(s.Parent)
	}
	name := s.Phase.String()
	if s.Label != "" {
		name += ":" + s.Label
	}
	t.spans = append(t.spans, traceSpan{
		name: name, cat: "engine", batch: batch, tid: shard + 1,
		begin: s.Begin, dur: s.End - s.Begin, id: lift(s.ID), parent: parent,
		keys: s.Keys, detail: s.Detail,
	})
}

// write emits the spans as Chrome trace_event JSON (Perfetto loads it):
// thread 0 is the benchmark's boundary spans, thread i+1 is shard i.
func (t *tracer) write(path string) error {
	type args struct {
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent"`
		Batch  int    `json:"batch"`
		Keys   int    `json:"keys,omitempty"`
		Detail int64  `json:"detail,omitempty"`
	}
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args args    `json:"args"`
	}
	var origin int64
	for i, s := range t.spans {
		if i == 0 || s.begin < origin {
			origin = s.begin
		}
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Cat: s.cat, Ph: "X",
			Ts: float64(s.begin-origin) / 1e3, Dur: float64(s.dur) / 1e3,
			Pid: 1, Tid: s.tid,
			Args: args{ID: s.id, Parent: s.parent, Batch: s.batch, Keys: s.keys, Detail: s.detail},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	err = json.NewEncoder(f).Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ns"})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: %s: %w", path, err)
	}
	return nil
}
