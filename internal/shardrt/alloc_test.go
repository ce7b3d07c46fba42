package shardrt

import (
	"testing"
	"unsafe"

	"stochstream/internal/engine"
	"stochstream/internal/stats"
)

// TestIngestBatchAllocs pins what a batch allocates at the ledger's uptime
// shape — 4 shards, 1024 slots, 4096 keys, no payloads, RAND, warmed: a
// twentieth of an object a step (the engines recycle their posting slices;
// no box per tuple, none per padded shard step) plus a per-batch constant
// (a shard's sort keys past 32 pairs — the runs themselves are merged
// straight from the engines) that is the same for a batch of 256 and of 512.
// It reads 2 and 6 objects; the parent commit 57 and 112.
func TestIngestBatchAllocs(t *testing.T) {
	const perStep, perBatch = 0.05, 12
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
			t.Errorf("IngestBatch of %d steps allocates %.0f objects, want <= %.2f a step + %d a batch = %.0f", batchLen, got, perStep, perBatch, limit)
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
