package shardrt

import (
	"testing"
	"unsafe"

	"stochstream/internal/engine"
	"stochstream/internal/stats"
)

// TestIngestBatchAllocs pins what a batch allocates at the ledger's uptime
// shape — 4 shards, 1024 slots, 4096 keys, no payloads, RAND, warmed: at most
// half an object a step (the engines' second-posting buckets; no box per
// tuple, none per padded shard step) plus a per-batch constant (each shard's
// run, its sort keys past 32 pairs) that is the same for a batch of 256 and of
// 512. The parent commit reads ~4 objects a step.
func TestIngestBatchAllocs(t *testing.T) {
	const perStep, perBatch = 0.5, 16
	for _, batchLen := range []int{256, 512} {
		rt, err := New(Config{Shards: 4, TotalCache: 1024, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(3)
		steps := make([]Step, batchLen)
		ingest := func() {
			for i := range steps {
				steps[i] = Step{R: engine.Tuple{Key: rng.IntN(4096)}, S: engine.Tuple{Key: rng.IntN(4096)}}
			}
			if _, err := rt.IngestBatch(steps); err != nil {
				t.Fatal(err)
			}
		}
		for warm := 0; warm < 8*1024/batchLen; warm++ { // fills the caches, settles lanes, maps and buffers
			ingest()
		}
		got := testing.AllocsPerRun(40, ingest)
		t.Logf("IngestBatch of %d steps: %.0f objects", batchLen, got)
		if limit := perStep*float64(batchLen) + perBatch; got > limit {
			t.Errorf("IngestBatch of %d steps allocates %.0f objects, want <= %.1f a step + %d a batch = %.0f", batchLen, got, perStep, perBatch, limit)
		}
		rt.Shutdown()
	}
}

// TestPairStays80Bytes: the sequence tag travels in engine.Tuple now, and a
// Pair whose sides were engine.Tuples would carry each tag twice — 96 bytes,
// a fifth more in every run and merge buffer a reply-heavy workload retains
// (the ledger bounds live_heap_mb at 5%; that was most of it on fanout).
func TestPairStays80Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Pair{}); got != 80 {
		t.Fatalf("Pair is %d bytes, want 80", got)
	}
}
