package streamd_test

import (
	"testing"

	"stochstream/internal/process"
	"stochstream/internal/shardrt"
	"stochstream/internal/stats"
	"stochstream/internal/streamd"
	"stochstream/internal/streamd/client"
	"stochstream/internal/streamd/wire"
	"stochstream/internal/workload"
)

// servedShape is one of the ledger's four workloads as a served batch: the
// serving configuration and the input the client sends. With models the
// runtime's default policy is HEEB over them, without it is RAND over keys
// drawn uniformly from [0, keys).
type servedShape struct {
	name                 string
	shards, cache, batch int
	keys, payload        int
	models               func() [2]process.Process
	episode              int // restart the model streams this often (0: never), as bench/ does for walk
}

var servedShapes = []servedShape{
	{name: "uptime", shards: 4, cache: 1024, batch: 256, keys: 4096},
	{name: "fanout", shards: 4, cache: 1024, batch: 256, keys: 64, payload: 64},
	{name: "walk", shards: 4, cache: 32, batch: 4, episode: 128,
		models: func() [2]process.Process { return workload.Walk().Procs }},
	{name: "trend", shards: 1, cache: 64, batch: 8,
		models: func() [2]process.Process {
			return workload.TrendSpec{Lag: 1, RBound: 40, SBound: 60, RSigma: 13.2, SSigma: 20}.Join().Procs
		}},
}

// serveShape starts an in-process daemon of the shape on loopback with one
// client and returns the function that sends the next batch through the whole
// served path — client encode, loopback, daemon decode, sharded runtime,
// merge, results encode, client decode — and reports its pairs. Model input
// is generated up front, for at most batches calls; the caches are warmed.
func serveShape(tb testing.TB, sh servedShape, batches int) (next func() int) {
	tb.Helper()
	cfg := shardrt.Config{Shards: sh.shards, TotalCache: sh.cache, Seed: 1}
	warm := max(4*sh.cache/sh.batch, 64)
	rng := stats.NewRNG(5)
	var r, s []int
	if sh.models != nil {
		cfg.Procs = sh.models()
		n, ep := (warm+batches)*sh.batch, sh.episode
		if ep == 0 {
			ep = n
		}
		for len(r) < n {
			r = append(r, cfg.Procs[0].Generate(rng.Split(), ep)...)
			s = append(s, cfg.Procs[1].Generate(rng.Split(), ep)...)
		}
	}
	srv, err := streamd.Start(streamd.Config{Runtime: cfg, Listen: "127.0.0.1:0"})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = srv.Close() })
	cl, err := client.Dial(client.Options{Addr: srv.Addr(), Session: "bench", Seed: 1, MaxBatch: sh.batch})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = cl.Close() })

	steps := make([]wire.Step, sh.batch)
	payloads := make([]byte, 2*sh.batch*sh.payload)
	at := 0
	next = func() int {
		for i := range steps {
			if sh.models != nil {
				steps[i] = wire.Step{RKey: int64(r[at]), SKey: int64(s[at])}
				at++
				continue
			}
			steps[i] = wire.Step{RKey: int64(rng.IntN(sh.keys)), SKey: int64(rng.IntN(sh.keys))}
			if sh.payload > 0 {
				steps[i].RPayload = payloads[2*i*sh.payload:][:sh.payload]
				steps[i].SPayload = payloads[(2*i+1)*sh.payload:][:sh.payload]
			}
		}
		out, err := cl.Ingest(steps)
		if err != nil {
			tb.Fatal(err)
		}
		return len(out)
	}
	for i := 0; i < warm; i++ {
		next()
	}
	return next
}

// BenchmarkServedBatch is one batch through the whole served path at the
// ledger's four shapes. Run with -benchmem: B/op and allocs/op are per batch,
// whole process (client and daemon share it), and are what
// docs/performance.md, "Allocation discipline", tables before and after.
func BenchmarkServedBatch(b *testing.B) {
	for _, sh := range servedShapes {
		b.Run(sh.name, func(b *testing.B) {
			next := serveShape(b, sh, b.N)
			pairs := 0
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				pairs += next()
			}
			b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
		})
	}
}

// TestServedBatchAllocs pins what a served batch allocates, whole process, at
// the three payload-free shapes: the pair slice the client's caller owns, and
// nothing else. The reply is encoded over the session's replay buffer, a frame
// that outgrows a connection's read buffer lands in the one large buffer its
// frame reader keeps, and History.Append is two stores. Nothing per step and
// nothing per pair: walk, trend and uptime read 1 object a batch, where the
// parent commit reads 2, 2 and 3 (and History grew by 16 bytes a step beside).
// The bound is 2 because ci.sh runs this under the race detector, whose build
// does not elide the temporary inside slices.Grow: the pair slice costs two.
func TestServedBatchAllocs(t *testing.T) {
	limits := map[string]float64{"walk": 2, "trend": 2, "uptime": 2}
	for _, sh := range servedShapes {
		limit, pinned := limits[sh.name]
		if !pinned {
			continue
		}
		const runs = 200
		next := serveShape(t, sh, runs+1)
		got := testing.AllocsPerRun(runs, func() { next() })
		t.Logf("%s: %.2f objects a batch of %d steps", sh.name, got, sh.batch)
		if got > limit {
			t.Errorf("%s: a served batch allocates %.2f objects, want <= %.0f", sh.name, got, limit)
		}
	}
}
