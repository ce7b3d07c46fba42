package main

import (
	"fmt"
	"runtime"
	"time"

	"stochstream/internal/engine"
	"stochstream/internal/join"
	"stochstream/internal/shardrt"
)

// replayOpts shapes one direct replay of the served batches through a
// shardrt.Runtime the benchmark owns: same inputs, same batch boundaries,
// no daemon in between.
type replayOpts struct {
	shards int                   // 0 = the workload's shard count
	policy func(int) join.Policy // nil = the runtime default
	obs    bool                  // Telemetry + Flight on
	steps  int                   // measured steps after the warm-up
	count  int                   // pairs are counted while their trigger lies in the first count measured steps (0 = steps)
	flush  bool                  // drain the lane tails at the end, so every pair of the measured steps is delivered
	// each, when set, sees every batch (warm-up included, b counts from 0)
	// right after its IngestBatch returned; pairs are valid only during the
	// call. start and dur time the IngestBatch call alone. The reply of the
	// final flush, if any, comes last, under the next batch number.
	each func(rt *shardrt.Runtime, b int, pairs []shardrt.Pair, digest uint64, start time.Time, dur time.Duration)
}

type replayed struct {
	chk     checker
	ingest  time.Duration // Σ IngestBatch over the measured steps
	mallocs uint64        // heap objects allocated over the measured loop
	skew    float64       // max ÷ mean shard-local steps
}

func directReplay(sp *spec, in *inputs, seed uint64, o replayOpts) (*replayed, error) {
	cfg := shardrt.Config{
		Shards: sp.shards, TotalCache: sp.cache, Procs: sp.procs(), Seed: seed,
		NewPolicy: o.policy, Telemetry: o.obs, Flight: o.obs,
	}
	if o.shards != 0 {
		cfg.Shards = o.shards
	}
	if o.count == 0 {
		o.count = o.steps
	}
	rt, err := shardrt.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("direct replay: %w", err)
	}
	defer rt.Shutdown()
	rp := &replayed{chk: checker{in: in, lo: uint64(2 * sp.warm), hi: uint64(2 * (sp.warm + o.count))}}
	buf := make([]shardrt.Step, sp.batch)
	sent, b := 0, 0
	feed := func(until int, measured bool) error {
		for sent < until {
			in.fillDirect(buf, sent)
			t0 := time.Now()
			pairs, err := rt.IngestBatch(buf)
			dur := time.Since(t0)
			if err != nil {
				return fmt.Errorf("direct replay: step %d: %w", sent, err)
			}
			sent += len(buf)
			if measured {
				rp.ingest += dur
			}
			dig := rp.chk.directReply(pairs, sent)
			if o.each != nil {
				o.each(rt, b, pairs, dig, t0, dur)
			}
			b++
		}
		return nil
	}
	if err := feed(sp.warm, false); err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := feed(sp.warm+o.steps, true); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	rp.mallocs = m1.Mallocs - m0.Mallocs
	if o.flush {
		pairs, err := rt.Flush()
		if err != nil {
			return nil, fmt.Errorf("direct replay: flush: %w", err)
		}
		t0 := time.Now()
		dig := rp.chk.directReply(pairs, sent)
		if o.each != nil {
			o.each(rt, b, pairs, dig, t0, 0)
		}
	}
	var most, sum int
	for _, sh := range rt.Metrics().Shards {
		sum += sh.Engine.Steps
		if sh.Engine.Steps > most {
			most = sh.Engine.Steps
		}
	}
	if sum > 0 {
		rp.skew = float64(most) * float64(len(rt.Metrics().Shards)) / float64(sum)
	}
	return rp, nil
}

// unsharded is the single-threaded baseline: one engine.Join holding the
// whole budget, fed the same steps in the same batches through StepBatch.
type unsharded struct {
	eng      *engine.Join
	step     time.Duration // Σ StepBatch over the measured steps
	mallocs  uint64
	pairs    int     // pairs produced by the measured steps
	ckptRate float64 // checkpoint bytes per 1000 steps, second half of the measured steps
	heapRate float64 // live heap bytes per step, same stretch
}

func unshardedReplay(sp *spec, in *inputs, seed uint64, tr *tracer) (*unsharded, error) {
	eng, err := engine.NewJoin(engine.Config{CacheSize: sp.cache, Procs: sp.procs(), Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("unsharded replay: %w", err)
	}
	u := &unsharded{eng: eng}
	buf := make([]engine.TuplePair, sp.batch)
	sent := 0
	feed := func(until int, measured bool) {
		for sent < until {
			for k := range buf {
				i := sent + k
				buf[k] = engine.TuplePair{
					R: engine.Tuple{Key: in.key(0, i), Payload: ifaceBytes(in.payloadOf(0, i))},
					S: engine.Tuple{Key: in.key(1, i), Payload: ifaceBytes(in.payloadOf(1, i))},
				}
			}
			t0 := time.Now()
			pairs := eng.StepBatch(buf)
			dur := time.Since(t0)
			if measured {
				u.step += dur
				u.pairs += len(pairs)
				tr.span("engine.StepBatch", "engine", (sent-sp.warm)/sp.batch, t0, dur, 0)
			}
			sent += len(buf)
		}
	}
	// state reads the two sizes whose growth per step the run reports.
	state := func() (ckpt int, heap uint64, err error) {
		var cw countWriter
		if err := eng.Checkpoint(&cw); err != nil {
			return 0, 0, fmt.Errorf("unsharded replay: checkpoint: %w", err)
		}
		return cw.n, liveHeap(), nil
	}
	feed(sp.warm, false)
	half := sp.unsharded / 2 / sp.batch * sp.batch
	var m0, m1, m2, m3 runtime.MemStats
	runtime.ReadMemStats(&m0)
	feed(sp.warm+half, true)
	runtime.ReadMemStats(&m1)
	c0, h0, err := state()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m2)
	feed(sp.warm+sp.unsharded, true)
	runtime.ReadMemStats(&m3)
	c1, h1, err := state()
	if err != nil {
		return nil, err
	}
	u.mallocs = (m1.Mallocs - m0.Mallocs) + (m3.Mallocs - m2.Mallocs)
	if rest := sp.unsharded - half; rest > 0 {
		u.ckptRate = float64(c1-c0) / float64(rest) * 1000
		u.heapRate = (float64(h1) - float64(h0)) / float64(rest)
	}
	return u, nil
}

// countWriter counts bytes written and discards them.
type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// liveHeap is HeapAlloc right after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
