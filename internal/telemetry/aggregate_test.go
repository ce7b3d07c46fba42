package telemetry

import (
	"strings"
	"testing"
)

func TestShardLabel(t *testing.T) {
	cases := map[string]string{
		"engine_pairs_total":                    `engine_pairs_total{shard="2"}`,
		`policy_decisions_total{policy="HEEB"}`: `policy_decisions_total{shard="2",policy="HEEB"}`,
	}
	for in, want := range cases {
		if got := ShardLabel(in, 2); got != want {
			t.Errorf("ShardLabel(%q, 2) = %q, want %q", in, got, want)
		}
	}
}

func buildShardSet() ShardSet {
	s0 := NewRegistry()
	s0.Counter("steps_total").Add(10)
	s0.Gauge("budget").Set(4)
	s1 := NewRegistry()
	s1.Counter("steps_total").Add(20)
	s1.Histogram("lat_ns").Observe(5)
	return ShardSet{Shards: []*Registry{s0, s1, nil}}
}

func TestShardSetMerged(t *testing.T) {
	m := buildShardSet().Merged()
	if m.Counters[`steps_total{shard="0"}`] != 10 || m.Counters[`steps_total{shard="1"}`] != 20 {
		t.Fatalf("shard counters mislabeled: %v", m.Counters)
	}
	if m.Gauges[`budget{shard="0"}`] != 4 {
		t.Fatalf("shard gauge mislabeled: %v", m.Gauges)
	}
	if m.Histograms[`lat_ns{shard="1"}`].Count != 1 {
		t.Fatalf("shard histogram mislabeled: %v", m.Histograms)
	}
	// The nil shard contributes nothing and breaks nothing.
	for k := range m.Counters {
		if strings.Contains(k, `shard="2"`) {
			t.Fatalf("nil shard produced series %q", k)
		}
	}
}

func TestShardSetWritePrometheus(t *testing.T) {
	var sb strings.Builder
	buildShardSet().WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`steps_total{shard="0"} 10`,
		`steps_total{shard="1"} 20`,
		`budget{shard="0"} 4`,
		`lat_ns_count{shard="1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestShardSetSnapshot(t *testing.T) {
	snap := buildShardSet().Snapshot()
	if len(snap.Shards) != 3 {
		t.Fatalf("want 3 shard slots, got %d", len(snap.Shards))
	}
	if snap.Shards[1].Counters["steps_total"] != 20 {
		t.Fatalf("shard 1 snapshot: %+v", snap.Shards[1])
	}
	// Nil registry slot stays an empty snapshot, keeping shard indexes stable.
	if len(snap.Shards[2].Counters) != 0 {
		t.Fatalf("nil shard slot not empty: %+v", snap.Shards[2])
	}
}
