package streamd_test

import (
	"testing"

	"stochstream/internal/shardrt"
	"stochstream/internal/stats"
	"stochstream/internal/streamd"
	"stochstream/internal/streamd/client"
	"stochstream/internal/streamd/wire"
)

// BenchmarkServedBatch is one 256-step batch through the whole served path —
// client encode, loopback, daemon decode, sharded RAND runtime, merge, results
// encode, client decode — at the ledger's two model-free shapes: uptime (4096
// keys, no payload, ~0.25 pairs a step) and fanout (64 keys, 64-byte payloads,
// ~16 pairs a step). Run with -benchmem: B/op and allocs/op are per batch,
// whole process (client and daemon share it), and are what
// docs/performance.md, "Allocation discipline", tables before and after.
func BenchmarkServedBatch(b *testing.B) {
	for _, shape := range []struct {
		name          string
		keys, payload int
	}{{"uptime", 4096, 0}, {"fanout", 64, 64}} {
		b.Run(shape.name, func(b *testing.B) {
			const batchLen, cache = 256, 1024
			srv, err := streamd.Start(streamd.Config{
				Runtime: shardrt.Config{Shards: 4, TotalCache: cache, Seed: 1},
				Listen:  "127.0.0.1:0",
			})
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = srv.Close() }()
			cl, err := client.Dial(client.Options{Addr: srv.Addr(), Session: "bench", Seed: 1, MaxBatch: batchLen})
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = cl.Close() }()

			rng := stats.NewRNG(5)
			steps := make([]wire.Step, batchLen)
			payloads := make([]byte, 2*batchLen*shape.payload)
			pairs := 0
			batch := func() {
				for i := range steps {
					steps[i] = wire.Step{RKey: int64(rng.IntN(shape.keys)), SKey: int64(rng.IntN(shape.keys))}
					if shape.payload > 0 {
						steps[i].RPayload = payloads[2*i*shape.payload:][:shape.payload]
						steps[i].SPayload = payloads[(2*i+1)*shape.payload:][:shape.payload]
					}
				}
				out, err := cl.Ingest(steps)
				if err != nil {
					b.Fatal(err)
				}
				pairs += len(out)
			}
			for warm := 0; warm < 4*cache/batchLen; warm++ {
				batch()
			}
			pairs = 0
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				batch()
			}
			b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
		})
	}
}
