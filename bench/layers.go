package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"stochstream/internal/core"
	"stochstream/internal/flightrec"
	"stochstream/internal/join"
	"stochstream/internal/policy"
	"stochstream/internal/process"
	"stochstream/internal/shardrt"
	"stochstream/internal/stats"
	"stochstream/internal/streamd/wire"
	"stochstream/internal/telemetry"
)

// layerRun is the traced run: every layer is driven from outside, by timing
// calls into its public functions on the first sp.traced steps of the prefix
// and by reading the registries and flight-recorder spans it already
// exports. Numbers of the served session that only need re-expressing come
// in through the fields.
type layerRun struct {
	sp   *spec
	in   *inputs
	seed uint64
	sc   scale
	res  *result
	tr   *tracer
	logf func(string, ...interface{})

	prefixRTT, tracedRTT time.Duration // Σ client.Ingest over the prefix / its traced part, untraced daemon
	serverLat            telemetry.HistogramSnapshot
	drains, restores     []time.Duration // one entry per restart cycle
	served               *served         // the closed session, for its counters
	oracle               *oracleRun
}

func (lv *layerRun) run() error {
	sp, res := lv.sp, lv.res
	batches := float64(sp.q / sp.batch)

	// client and streamd, from the served prefix.
	serverMean := ratio(lv.serverLat.Sum, float64(lv.serverLat.Count))
	res.put("client.rtt_minus_server_us", (float64(lv.prefixRTT)/batches-serverMean)/1e3)
	res.put("client.retries", float64(lv.served.retries()))
	res.put("streamd.server_batch_p50_ms", lv.serverLat.Quantile(0.50)/1e6)
	res.put("streamd.server_batch_p99_ms", lv.serverLat.Quantile(0.99)/1e6)
	res.put("streamd.overhead_share", 1-ratio(float64(lv.oracle.prefix), float64(lv.prefixRTT)))
	res.put("streamd.sheds", float64(lv.served.srvSheds))
	res.put("streamd.dup_batches", float64(lv.served.srvDups))
	res.put("streamd.drain_ms", ms(lv.drains[0]))
	res.put("streamd.restore_ms", ms(lv.restores[0]))
	cycles := make([]float64, len(lv.drains))
	for i := range cycles {
		cycles[i] = ms(lv.drains[i] + lv.restores[i])
	}
	res.put("streamd.drain_restart_ms", median(cycles))

	// shardrt with everything off, from the oracle replay.
	res.put("shardrt.ingest_us_per_step", float64(lv.oracle.prefix)/1e3/float64(sp.q))
	res.put("shardrt.allocs_per_step", float64(lv.oracle.mallocs)/float64(lv.oracle.steps))
	res.put("shardrt.checkpoint_ms", ms(lv.oracle.ckpt))

	traced, err := lv.tracedReplay()
	if err != nil {
		return err
	}
	un, err := unshardedReplay(sp, lv.in, lv.seed, lv.tr)
	if err != nil {
		return err
	}
	res.put("engine.step_us", float64(un.step)/1e3/float64(sp.unsharded))
	res.put("engine.allocs_per_step", float64(un.mallocs)/float64(sp.unsharded))
	res.put("engine.checkpoint_bytes_per_kstep", un.ckptRate)
	res.put("engine.heap_bytes_per_step", un.heapRate)

	// Yield of the configured sharding against one shard, four shards, RAND,
	// a cache that never evicts and the offline optimum — all on the same
	// steps, lanes flushed, so the counts are exact for a seed.
	res.put("shardrt.pairs_vs_unsharded", ratio(float64(traced.pairsUnshardedRange), float64(un.pairs)))
	four := traced.pairsUnshardedRange
	if sp.shards != 4 {
		rp, err := directReplay(sp, lv.in, lv.seed, replayOpts{shards: 4, steps: sp.traced, count: sp.unsharded, flush: true})
		if err != nil {
			return err
		}
		four = rp.chk.inRange
	}
	res.put("shardrt.pairs_vs_unsharded_4", ratio(float64(four), float64(un.pairs)))
	rnd, err := directReplay(sp, lv.in, lv.seed, replayOpts{
		steps: sp.traced, flush: true,
		policy: func(int) join.Policy { return &policy.Rand{} },
	})
	if err != nil {
		return err
	}
	res.put("policy.vs_rand", ratio(float64(traced.pairs), float64(rnd.chk.inRange)))
	res.put("policy.recall", ratio(float64(traced.pairs), float64(neverEvict(lv.in, sp.warm, sp.warm+sp.traced))))
	if sp.models != nil {
		end := sp.warm + sp.traced
		opt := core.OptOfflineJoin(lv.in.r[:end], lv.in.s[:end], sp.cache, 0)
		res.put("policy.vs_opt", ratio(float64(traced.nonSame), float64(opt.CountAfter(sp.warm-1))))
		lv.kernels(un.eng.Snapshot())
	} else {
		const why = "no stream models: the runtime serves this workload with RAND"
		for _, name := range []string{"policy.vs_opt", "core.joinh_ns_per_score", "core.joinh_allocs_per_score", "process.forecast_ns", "process.forecast_allocs"} {
			res.skip(name, why)
		}
	}

	return lv.tracedDaemon()
}

// spanSums aggregates flight-recorder spans by phase.
type spanSums struct {
	dur   [flightrec.PhaseEvict + 1]int64
	n     [flightrec.PhaseEvict + 1]int
	keys  int // Σ candidates over score spans
	total int
}

func (a *spanSums) add(s flightrec.Span) {
	a.total++
	if s.Phase > flightrec.PhaseEvict {
		return
	}
	a.dur[s.Phase] += s.End - s.Begin
	a.n[s.Phase]++
	if s.Phase == flightrec.PhaseScore {
		a.keys += s.Keys
	}
}

type tracedResult struct {
	pairs, nonSame      int // triggered in the traced steps
	pairsUnshardedRange int // triggered in the leading sp.unsharded of them
}

// tracedReplay is the direct replay with Telemetry and Flight on. Around
// every IngestBatch it records a boundary span, drains each shard's span
// ring (1024 spans: overruns are counted, not hidden), and runs the four
// wire codecs on exactly the frames that batch puts on the wire.
func (lv *layerRun) tracedReplay() (*tracedResult, error) {
	sp, res := lv.sp, lv.res
	var (
		sums     spanSums
		last     = make([]uint64, sp.shards)
		dropped  uint64
		wall     time.Duration
		warmEnd  = sp.warm / sp.batch
		wbuf     = make([]wire.Step, sp.batch)
		wpairs   []wire.Pair
		codec    [4]time.Duration // encode ingest, decode ingest, encode results, decode results
		bytesIn  int
		bytesOut int
		nPairs   int
		mallocs  uint64
		codecErr error
		// early counts the pairs triggered in the leading sp.unsharded steps.
		early            int
		earlyLo, earlyHi = uint64(2 * sp.warm), uint64(2 * (sp.warm + sp.unsharded))
		flushAt          = (sp.warm + sp.traced) / sp.batch
	)
	timed := func(name string, b int, slot *time.Duration, f func()) {
		t0 := time.Now()
		f()
		d := time.Since(t0)
		*slot += d
		lv.tr.span(name, "wire", b, t0, d, 0)
	}
	rp, err := directReplay(sp, lv.in, lv.seed, replayOpts{
		obs: true, steps: sp.traced, flush: true,
		each: func(rt *shardrt.Runtime, b int, pairs []shardrt.Pair, _ uint64, start time.Time, dur time.Duration) {
			if b < warmEnd {
				for i := range last {
					last[i] = rt.Recorder(i).TotalSpans()
				}
				return
			}
			for i := range pairs {
				if trig := max(pairs[i].RSeq, pairs[i].SSeq); trig >= earlyLo && trig < earlyHi {
					early++
				}
			}
			if b == flushAt {
				return
			}
			id := b - warmEnd
			wall += dur
			boundary := lv.tr.span("shardrt.IngestBatch", "shardrt", id, start, dur, 0)
			for i := range last {
				rec := rt.Recorder(i)
				total := rec.TotalSpans()
				n := total - last[i]
				last[i] = total
				if n > flightRing {
					dropped += n - flightRing
					n = flightRing
				}
				for _, s := range rec.LastSpans(int(n)) {
					sums.add(s)
					lv.tr.shardSpan(i, id, boundary, s)
				}
			}

			lv.in.fillWire(wbuf, b*sp.batch)
			wpairs = wpairs[:0]
			for i := range pairs {
				p := fromDirect(&pairs[i])
				wpairs = append(wpairs, wire.Pair{
					RSeq: p.rseq, SSeq: p.sseq, RKey: p.rkey, SKey: p.skey,
					Shard: p.shard, SameStep: p.same, RPayload: p.rpay, SPayload: p.spay,
				})
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			var payload, frames []byte
			timed("wire.EncodeIngest", id, &codec[0], func() {
				payload = wire.EncodeIngest(wire.Ingest{Base: uint64(b + 1), Steps: wbuf})
			})
			timed("wire.DecodeIngest", id, &codec[1], func() {
				if _, err := wire.DecodeIngest(payload); err != nil && codecErr == nil {
					codecErr = err
				}
			})
			timed("wire.EncodeResults", id, &codec[2], func() {
				frames = wire.EncodeResultsFrames(wire.Results{AckSeq: uint64(b + 1), Credits: 4096, Pairs: wpairs})
			})
			timed("wire.DecodeResults", id, &codec[3], func() {
				got := 0
				for rest := frames; len(rest) >= 5; {
					n := int(binary.BigEndian.Uint32(rest[1:5]))
					f, err := wire.DecodeResults(rest[5 : 5+n])
					if err != nil && codecErr == nil {
						codecErr = err
					}
					got += len(f.Pairs)
					rest = rest[5+n:]
				}
				if got != len(wpairs) && codecErr == nil {
					codecErr = fmt.Errorf("results frames of batch %d decode to %d pairs, %d were encoded", b, got, len(wpairs))
				}
			})
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			bytesIn += len(payload)
			bytesOut += len(frames)
			nPairs += len(wpairs)
		},
	})
	if err != nil {
		return nil, err
	}
	if codecErr != nil {
		return nil, fmt.Errorf("wire codec round trip: %w", codecErr)
	}
	steps := float64(sp.traced)
	pairs := float64(nPairs)
	res.put("wire.encode_ingest_ns_per_step", float64(codec[0])/steps)
	res.put("wire.decode_ingest_ns_per_step", float64(codec[1])/steps)
	res.put("wire.encode_results_ns_per_pair", ratio(float64(codec[2]), pairs))
	res.put("wire.decode_results_ns_per_pair", ratio(float64(codec[3]), pairs))
	res.put("wire.ingest_bytes_per_step", float64(bytesIn)/steps)
	res.put("wire.results_bytes_per_pair", ratio(float64(bytesOut), pairs))
	res.put("wire.allocs_per_step", float64(mallocs)/steps)

	busy := float64(sums.dur[flightrec.PhaseStep])
	res.put("shardrt.engine_busy_us_per_step", busy/1e3/steps)
	res.put("shardrt.parallelism", ratio(busy, float64(wall)))
	res.put("shardrt.skew", rp.skew)
	share := func(phases ...flightrec.Phase) float64 {
		var d int64
		for _, p := range phases {
			d += sums.dur[p]
		}
		return ratio(float64(d), busy)
	}
	res.put("engine.expire_share", share(flightrec.PhaseExpire))
	res.put("engine.probe_emit_share", share(flightrec.PhaseProbe, flightrec.PhaseEmit))
	res.put("engine.score_share", share(flightrec.PhaseScore))
	res.put("engine.evict_share", share(flightrec.PhaseEvict))
	score, calls := float64(sums.dur[flightrec.PhaseScore]), float64(sums.n[flightrec.PhaseScore])
	res.put("policy.evict_us_per_call", ratio(score/1e3, calls))
	res.put("policy.candidates_per_call", ratio(float64(sums.keys), calls))
	res.put("policy.ns_per_candidate", ratio(score, float64(sums.keys)))
	res.put("obs.overhead_share", 1-ratio(float64(lv.oracle.traced), float64(rp.ingest)))
	res.put("flightrec.spans_per_step", float64(sums.total)/steps)
	res.put("flightrec.spans_dropped", float64(dropped))
	return &tracedResult{pairs: rp.chk.inRange, nonSame: rp.chk.nonSame, pairsUnshardedRange: early}, nil
}

// kernels times the two innermost calls of the scoring path on the state the
// unsharded replay ended in: core.JoinH over every cached candidate, and
// Process.Forecast for Δ = 1..32, with the default policy's survival
// function (Lexp, α from the cache budget, horizon fallback 1000).
func (lv *layerRun) kernels(cands []join.Tuple) {
	sp, res := lv.sp, lv.res
	end := sp.warm + sp.unsharded
	procs := sp.procs()
	hists := [2]*process.History{process.NewHistory(lv.in.r[:end]...), process.NewHistory(lv.in.s[:end]...)}
	l := core.LExp{Alpha: stats.AlphaForLifetime(float64(sp.cache))}
	var sink float64
	measure := func(calls int, f func()) (ns, allocs float64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < lv.sc.kernel; i++ {
			f()
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		n := float64(calls * lv.sc.kernel)
		return ratio(float64(d), n), ratio(float64(m1.Mallocs-m0.Mallocs), n)
	}
	ns, allocs := measure(len(cands), func() {
		for _, c := range cands {
			p := c.Stream.Partner()
			sink += core.JoinH(procs[p], hists[p], c.Value, l, 1000)
		}
	})
	res.put("core.joinh_ns_per_score", ns)
	res.put("core.joinh_allocs_per_score", allocs)
	ns, allocs = measure(2*32, func() {
		for s := range procs {
			for dt := 1; dt <= 32; dt++ {
				sink += procs[s].Forecast(hists[s], dt).Prob(hists[s].Last())
			}
		}
	})
	res.put("process.forecast_ns", ns)
	res.put("process.forecast_allocs", allocs)
	lv.logf("kernels: %d candidates scored (checksum %.6g)", len(cands), sink)
}

// tracedDaemon serves the traced steps again through a daemon whose runtime
// has Telemetry and Flight on, with a boundary span around every
// client.Ingest. Against the same batches through the untraced daemon, the
// difference is what tracing costs end to end.
func (lv *layerRun) tracedDaemon() error {
	sp, res := lv.sp, lv.res
	sv, err := serve(sp, lv.in, lv.seed, true, "")
	if err != nil {
		return err
	}
	defer res.finish(sv)
	if err := sv.run(sp.warm); err != nil {
		return err
	}
	var sum time.Duration
	for b := 0; sv.sent < sp.warm+sp.traced; b++ {
		rtt, err := sv.ingest()
		if err != nil {
			return err
		}
		sum += rtt
		lv.tr.span("client.Ingest", "client", b, sv.lastStart, rtt, 0)
	}
	res.put("trace.overhead_share", 1-ratio(float64(lv.tracedRTT), float64(sum)))
	return nil
}

// loadgenRate is how fast the generator alone can offer steps: inputs built
// and wire.EncodeIngest run into a discard sink, median of five rounds. A
// served rate within 5× of it would be a measurement of the generator.
func loadgenRate(sp *spec, in *inputs) float64 {
	const minSteps = 1 << 18
	batches := (minSteps + sp.batch - 1) / sp.batch
	buf := make([]wire.Step, sp.batch)
	var rates []float64
	sink := 0
	for round := 0; round < 5; round++ {
		t0 := time.Now()
		for b := 0; b < batches; b++ {
			in.fillWire(buf, sp.warm+b*sp.batch%sp.q)
			sink += len(wire.EncodeIngest(wire.Ingest{Base: uint64(b + 1), Steps: buf}))
		}
		rates = append(rates, float64(batches*sp.batch)/time.Since(t0).Seconds())
	}
	if sink == 0 {
		return 0
	}
	return median(rates)
}
