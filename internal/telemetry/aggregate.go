package telemetry

import (
	"fmt"
	"io"
)

// Sharded aggregation: the sharded runtime (internal/shardrt) gives every
// shard its own Registry so the engine hot path keeps its lock-free handle
// writes, and aggregates at export time instead. A ShardSet renders all of
// them as one exposition, with each shard's metrics relabeled by a leading
// shard="<i>" label — so one scrape shows per-shard series side by side —
// while the coordinator's own metrics pass through unlabeled.
//
// Snapshot semantics are per shard: each registry is snapshotted atomically
// in shard order, but the set as a whole is not a consistent cut — shard 1
// may step between the shard-0 and shard-1 snapshots. See
// docs/observability.md, "Sharded snapshots".

// ShardSet groups the registries of a sharded runtime for aggregated export.
type ShardSet struct {
	// Coordinator, when non-nil, contributes runtime-level metrics (the
	// shard count and the like), exported without a shard label.
	Coordinator *Registry
	// Shards are the per-shard registries, indexed by shard ID; nil entries
	// are skipped.
	Shards []*Registry
}

// ShardLabel prepends shard="<id>" to a metric name's label set:
// ShardLabel(`engine_pairs_total`, 2) → `engine_pairs_total{shard="2"}` and
// ShardLabel(`ladder_fallback_total{from="x"}`, 2) →
// `ladder_fallback_total{shard="2",from="x"}`.
func ShardLabel(name string, shard int) string {
	base, labels := splitName(name)
	return base + joinLabels(fmt.Sprintf(`shard="%d"`, shard), labels)
}

// Merged flattens the set into one Snapshot whose shard metrics carry the
// shard label. Decision traces stay per shard (a merged trace would
// interleave unrelated policies); use the per-shard registries for those.
func (s ShardSet) Merged() Snapshot {
	out := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if s.Coordinator != nil {
		snap := s.Coordinator.Snapshot()
		for k, v := range snap.Counters {
			out.Counters[k] = v
		}
		for k, v := range snap.Gauges {
			out.Gauges[k] = v
		}
		for k, v := range snap.Histograms {
			out.Histograms[k] = v
		}
	}
	for i, reg := range s.Shards {
		if reg == nil {
			continue
		}
		snap := reg.Snapshot()
		for k, v := range snap.Counters {
			out.Counters[ShardLabel(k, i)] = v
		}
		for k, v := range snap.Gauges {
			out.Gauges[ShardLabel(k, i)] = v
		}
		for k, v := range snap.Histograms {
			out.Histograms[ShardLabel(k, i)] = v
		}
	}
	return out
}

// WritePrometheus writes the merged set in the Prometheus text exposition
// format, shard labels attached.
func (s ShardSet) WritePrometheus(w io.Writer) {
	writeSnapshotPrometheus(w, s.Merged())
}

// ShardedSnapshot is the JSON export of a ShardSet: the JSON form keeps the
// per-shard structure instead of flattening into labels, so consumers can
// index shards directly. Nil shard registries appear as empty snapshots.
type ShardedSnapshot struct {
	Coordinator *Snapshot  `json:"coordinator,omitempty"`
	Shards      []Snapshot `json:"shards"`
}

// Snapshot captures every registry in the set, shard order, each one
// atomically (see the package comment for cross-shard consistency).
func (s ShardSet) Snapshot() ShardedSnapshot {
	out := ShardedSnapshot{Shards: make([]Snapshot, len(s.Shards))}
	if s.Coordinator != nil {
		snap := s.Coordinator.Snapshot()
		out.Coordinator = &snap
	}
	for i, reg := range s.Shards {
		if reg == nil {
			continue
		}
		out.Shards[i] = reg.Snapshot()
	}
	return out
}
