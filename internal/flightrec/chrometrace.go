package flightrec

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace_event export: the span ring serialized as "X" (complete)
// events in the JSON Object Format — {"traceEvents": [...]} — which
// Perfetto (ui.perfetto.dev) and chrome://tracing load directly. Timestamps
// are microseconds by the format's convention; span clocks are nanoseconds,
// so ts/dur are divided by 1e3.

// traceEvent is one trace_event record. Field order is fixed by the struct,
// so identical span slices marshal to identical bytes — the export
// determinism tests rely on it.
type traceEvent struct {
	Name string    `json:"name"`
	Cat  string    `json:"cat"`
	Ph   string    `json:"ph"`
	Ts   float64   `json:"ts"`
	Dur  float64   `json:"dur"`
	Pid  int       `json:"pid"`
	Tid  int       `json:"tid"`
	Args traceArgs `json:"args"`
}

type traceArgs struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Step   int    `json:"step"`
	Keys   int    `json:"keys"`
	Detail int64  `json:"detail"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteChromeTrace writes spans as Chrome trace_event JSON. Load the output
// in Perfetto or chrome://tracing; spans nest visually by time containment
// (all events share one pid/tid track).
func WriteChromeTrace(w io.Writer, spans []Span) error {
	events := make([]traceEvent, len(spans))
	for i, s := range spans {
		dur := s.End - s.Begin
		if dur < 0 {
			dur = 0
		}
		events[i] = traceEvent{
			Name: s.Phase.String(),
			Cat:  "flightrec",
			Ph:   "X",
			Ts:   float64(s.Begin) / 1e3,
			Dur:  float64(dur) / 1e3,
			Pid:  1,
			Tid:  1,
			Args: traceArgs{
				ID:     s.ID,
				Parent: s.Parent,
				Step:   s.Step,
				Keys:   s.Keys,
				Detail: s.Detail,
			},
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ns"}); err != nil {
		return fmt.Errorf("flightrec: encoding chrome trace: %w", err)
	}
	return nil
}
