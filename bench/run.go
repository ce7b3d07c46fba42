package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"

	"stochstream/internal/core"
	"stochstream/internal/shardrt"
	"stochstream/internal/telemetry"
)

// metricDef names one reported metric. The two tables below are the whole
// vocabulary: BENCHMARK.json lists exactly these, and bench_test.go holds
// the two in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"steps_per_s", "steps/s"},
	{"batch_p50_ms", "ms"},
	{"batch_p95_ms", "ms"},
	{"join_yield", "share"},
	{"cpu_ms_per_kstep", "ms/kstep"},
	{"allocs_per_step", "allocs/step"},
	{"live_heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"host.undisturbed_share", "share"},
	{"loadgen.max_steps_per_s", "steps/s"},
	{"client.rtt_minus_server_us", "us"},
	{"client.retries", "count"},
	{"client.steps_per_s_all", "steps/s"},
	{"client.batch_p99_ms", "ms"},
	{"client.batch_p99_all_ms", "ms"},
	{"wire.encode_ingest_ns_per_step", "ns/step"},
	{"wire.decode_ingest_ns_per_step", "ns/step"},
	{"wire.encode_results_ns_per_pair", "ns/pair"},
	{"wire.decode_results_ns_per_pair", "ns/pair"},
	{"wire.ingest_bytes_per_step", "B/step"},
	{"wire.results_bytes_per_pair", "B/pair"},
	{"wire.allocs_per_step", "allocs/step"},
	{"streamd.server_batch_p50_ms", "ms"},
	{"streamd.server_batch_p99_ms", "ms"},
	{"streamd.overhead_share", "share"},
	{"streamd.sheds", "count"},
	{"streamd.dup_batches", "count"},
	{"streamd.checkpoint_bytes", "B"},
	{"streamd.drain_ms", "ms"},
	{"streamd.restore_ms", "ms"},
	{"streamd.drain_restart_ms", "ms"},
	{"shardrt.ingest_us_per_step", "us/step"},
	{"shardrt.engine_busy_us_per_step", "us/step"},
	{"shardrt.parallelism", "ratio"},
	{"shardrt.skew", "ratio"},
	{"shardrt.allocs_per_step", "allocs/step"},
	{"shardrt.checkpoint_ms", "ms"},
	{"shardrt.pairs_vs_unsharded", "ratio"},
	{"shardrt.pairs_vs_unsharded_4", "ratio"},
	{"engine.step_us", "us/step"},
	{"engine.expire_share", "share"},
	{"engine.probe_emit_share", "share"},
	{"engine.score_share", "share"},
	{"engine.evict_share", "share"},
	{"engine.allocs_per_step", "allocs/step"},
	{"engine.checkpoint_bytes_per_kstep", "B/kstep"},
	{"engine.heap_bytes_per_step", "B/step"},
	{"policy.pairs_per_step", "pairs/step"},
	{"policy.evict_us_per_call", "us/call"},
	{"policy.candidates_per_call", "count"},
	{"policy.ns_per_candidate", "ns"},
	{"policy.recall", "ratio"},
	{"policy.vs_opt", "ratio"},
	{"policy.vs_rand", "ratio"},
	{"core.joinh_ns_per_score", "ns"},
	{"core.joinh_allocs_per_score", "allocs"},
	{"process.forecast_ns", "ns"},
	{"process.forecast_allocs", "allocs"},
	{"obs.overhead_share", "share"},
	{"flightrec.spans_per_step", "spans/step"},
	{"flightrec.spans_dropped", "count"},
	{"trace.overhead_share", "share"},
	{"go.gc_cpu_share", "share"},
	{"go.gc_cycles_per_kstep", "1/kstep"},
}

// runOpts is one invocation's settings.
type runOpts struct {
	seed    uint64
	seconds float64 // length of the steady phase
	steady  bool    // report end-to-end metrics (the untraced run)
	layers  bool    // report per-layer metrics (the traced run)
	// traceOut, when non-empty, is where the traced run's spans go as
	// Chrome trace JSON.
	traceOut string
	tmpRoot  string
	log      io.Writer
}

// result is what one run of one workload reports.
type result struct {
	workload          string
	attempted, failed int
	problems          []string // oracle violations; any makes the run incorrect
	values            map[string]float64
	notes             map[string]string // why a metric does not apply here
	samples           int               // batch latencies behind p50/p95
}

func (r *result) put(name string, v float64) { r.values[name] = v }

// skip records a per-layer metric that does not apply to this workload: it
// reads 0 and the reason is printed beside it.
func (r *result) skip(name, why string) {
	r.values[name] = 0
	r.notes[name] = why
}

func (r *result) problemf(format string, a ...interface{}) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// finish stops a session and folds its accounting into the result.
func (r *result) finish(sv *served) {
	if err := sv.close(); err != nil {
		r.problemf("closing the session: %v", err)
	}
	for _, p := range sv.conservation() {
		r.problemf("%s", p)
	}
	if sv.chk.failures > 0 {
		r.problemf("%d delivered pairs failed the oracle, first: %v", sv.chk.failures, sv.chk.first)
	}
	r.attempted += sv.attempted
	r.failed += sv.failed
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a ÷ b, 0 when b is 0 (a count that did not occur).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histDelta is what a latency histogram observed between two snapshots.
func histDelta(a, b telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	d := telemetry.HistogramSnapshot{Bounds: b.Bounds, Counts: make([]int64, len(b.Counts)), Sum: b.Sum - a.Sum}
	for i := range b.Counts {
		d.Counts[i] = b.Counts[i] - a.Counts[i]
		d.Count += d.Counts[i]
	}
	return d
}

// runWorkload is the run shape every workload goes through:
//
//	setup   generate inputs from the seed, start the daemon, dial, warm up
//	prefix  exactly q steps: yield and state size at a fixed step mark
//	restart Drain to a checkpoint, start from it, the client resumes
//	verify  a fixed window whose output must equal the uninterrupted replay
//	steady  closed loop for opt.seconds: throughput, latency, CPU, allocs
//	replay  the same batches straight through shardrt: the output oracle
//	traced  (opt.layers) each layer driven on its own, spans recorded
func runWorkload(sp spec, sc scale, opt runOpts) (*result, error) {
	res := &result{workload: sp.name, values: map[string]float64{}, notes: map[string]string{}}
	dir, cleanup, err := scratchDir(opt.tmpRoot)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	logf := func(format string, a ...interface{}) { fmt.Fprintf(opt.log, "# "+sp.name+": "+format+"\n", a...) }

	finish := res.finish

	// --- setup, several times over. Every set-up does the same work on the
	// same inputs, so its parts — inputs, daemon and dial, then each warm-up
	// batch — are timed separately and setup_s is the sum over the parts of
	// the fastest of their timings. A neighbour on the core (host.go) slows a
	// stretch longer than a few set-ups, so besides the ones back to back
	// here, one more is made on the side after each later phase of the run ---
	var parts []time.Duration // fastest timing of each part so far
	setUp := func(ckpt string) (*inputs, *served, error) {
		part, t0 := 0, time.Now()
		lap := func() {
			now := time.Now()
			if d := now.Sub(t0); part == len(parts) {
				parts = append(parts, d)
			} else if d < parts[part] {
				parts[part] = d
			}
			part, t0 = part+1, now
		}
		in := newInputs(&sp, opt.seed)
		sv, err := serve(&sp, in, opt.seed, false, ckpt)
		if err != nil {
			return nil, nil, err
		}
		sv.record = true
		lap()
		for sv.sent < sp.warm {
			if _, err := sv.ingest(); err != nil {
				finish(sv)
				return nil, nil, err
			}
			lap()
		}
		return in, sv, nil
	}
	setUpAgain := func() error {
		_, side, err := setUp("")
		if err == nil {
			finish(side)
		}
		return err
	}
	var (
		in *inputs
		sv *served
	)
	for i := 0; i < sc.setups; i++ {
		if sv != nil {
			finish(sv)
		}
		if in, sv, err = setUp(ckptPath(dir, i)); err != nil {
			return res, err
		}
	}
	heapSetup := liveHeap()

	// --- prefix ---
	lat := sv.srv.Registry().Histogram("streamd_batch_latency_ns")
	hist0 := lat.Snapshot()
	sv.chk.lo, sv.chk.hi = uint64(2*sp.warm), uint64(2*(sp.warm+sp.q))
	var prefixRTT, tracedRTT time.Duration
	for sv.sent < sp.warm+sp.q {
		rtt, err := sv.ingest()
		if err != nil {
			finish(sv)
			return res, err
		}
		prefixRTT += rtt
		if sv.sent == sp.warm+sp.traced {
			tracedRTT = prefixRTT
		}
	}
	serverLat := histDelta(hist0, lat.Snapshot())
	heapPrefix := liveHeap()
	res.put("live_heap_mb", float64(heapPrefix)/(1<<20))
	logf("prefix: %d steps in %d batches at %.4g steps/s, live heap %+.3f MB over the end of set-up", sp.q, sp.q/sp.batch,
		float64(sp.q)/prefixRTT.Seconds(), (float64(heapPrefix)-float64(heapSetup))/(1<<20))
	if err := setUpAgain(); err != nil {
		finish(sv)
		return res, err
	}

	// --- drain to a checkpoint and restart from it, at the prefix mark ---
	cycles := 1
	if opt.layers {
		cycles = sc.cycles
	}
	var drains, restores []time.Duration
	var ckptBytes int64
	for i := 0; i < cycles; i++ {
		d, r, size, err := sv.drainRestart()
		if err != nil {
			res.attempted += sv.attempted
			res.failed += sv.failed
			return res, err
		}
		if i == 0 {
			ckptBytes = size
			res.put("streamd.checkpoint_bytes", float64(size))
		} else if size != ckptBytes {
			res.problemf("checkpoint of restart cycle %d is %d bytes, the first was %d", i, size, ckptBytes)
		}
		drains, restores = append(drains, d), append(restores, r)
	}

	// --- verify window: the restarted daemon continues the same stream ---
	if err := sv.run(sp.verify); err != nil {
		finish(sv)
		return res, err
	}
	sv.record, sv.recordedPairs = false, sv.chk.total
	prefixPairs, prefixNonSame := sv.chk.inRange, sv.chk.nonSame
	res.put("policy.pairs_per_step", float64(prefixPairs)/float64(sp.q))

	// --- steady ---
	seconds := opt.seconds
	if !opt.steady {
		seconds /= 4 // the traced run needs only a reference rate
	}
	st, err := steadyPhase(sv, time.Duration(seconds*float64(time.Second)))
	if err != nil {
		finish(sv)
		return res, err
	}
	floor := slices.Min(st.probes)
	st.gate(floor)
	res.samples = len(st.lats)
	res.put("steps_per_s", st.rate)
	res.put("batch_p50_ms", percentile(st.lats, 0.50))
	res.put("batch_p95_ms", percentile(st.lats, 0.95))
	res.put("cpu_ms_per_kstep", st.cpuPerStep*1e6)
	res.put("allocs_per_step", float64(st.mallocs)/st.steps)
	res.put("host.undisturbed_share", st.share)
	res.put("client.steps_per_s_all", st.rateAll)
	res.put("client.batch_p99_ms", percentile(st.lats, 0.99))
	res.put("client.batch_p99_all_ms", percentile(st.allLats, 0.99))
	res.put("go.gc_cpu_share", ratio(st.gcCPU, st.cpu))
	res.put("go.gc_cycles_per_kstep", float64(st.gcCycles)/st.steps*1e3)
	logf("steady: %.0f steps in %.2f s, %d batches, %.3g%% of them among full-speed probes (floor %.1f us); %d count (p95 has %d beyond it); all batches together ran at %.3g x their rate",
		st.steps, st.wall, len(st.allLats), 100*st.share, float64(floor)/1e3, len(st.lats),
		len(st.lats)-int(math.Ceil(0.95*float64(len(st.lats)))), ratio(st.rateAll, st.rate))
	finish(sv)
	if err := setUpAgain(); err != nil {
		return res, err
	}

	// Yield at the prefix mark, as a share of what the same steps could have
	// yielded: every throughput figure stands next to the join count it
	// bought.
	ref, what, got := yieldReference(&sp, in), "a cache that never evicts", prefixPairs
	if sp.models != nil {
		what, got = "the offline optimum at the same budget (pairs of one shard step excluded on both sides)", prefixNonSame
	}
	res.put("join_yield", ratio(float64(got), float64(ref)))
	logf("yield: %d pairs triggered in the prefix (%.4g per step); %d of them against %d from %s", prefixPairs,
		float64(prefixPairs)/float64(sp.q), got, ref, what)

	res.put("loadgen.max_steps_per_s", loadgenRate(&sp, in))
	if err := setUpAgain(); err != nil {
		return res, err
	}

	// --- replay oracle: the daemon's output, before and after the restart,
	// equals an uninterrupted direct replay of the same batches ---
	orc, err := replayOracle(&sp, in, opt.seed, sv, prefixPairs)
	if err != nil {
		return res, err
	}
	res.problems = append(res.problems, orc.problems...)

	if err := setUpAgain(); err != nil {
		return res, err
	}
	var setup time.Duration
	for _, d := range parts {
		setup += d
	}
	res.put("setup_s", setup.Seconds())

	if opt.layers {
		tr := &tracer{keepShard: opt.traceOut != ""}
		lv := layerRun{
			sp: &sp, in: in, seed: opt.seed, sc: sc, res: res, tr: tr, logf: logf,
			prefixRTT: prefixRTT, tracedRTT: tracedRTT, serverLat: serverLat,
			drains: drains, restores: restores, served: sv, oracle: orc,
		}
		if err := lv.run(); err != nil {
			return res, err
		}
		if opt.traceOut != "" {
			if err := tr.write(opt.traceOut); err != nil {
				return res, err
			}
			logf("trace: %d spans written to %s (%d shard spans beyond the cap left out)", len(tr.spans), opt.traceOut, tr.truncated)
		}
	}
	return res, nil
}

// cycle is one turn of the closed loop: build a batch, Ingest, check the
// reply.
type cycle struct {
	wall, cpu float64 // seconds
	rtt       float64 // the client.Ingest round trip alone, ms
}

// steady is what the closed loop measured.
type steady struct {
	batch    int     // steps per cycle
	steps    float64 // whole phase
	wall     float64 // Σ cycle wall time: the probes between cycles are not part of the loop
	cpu      float64 // Σ cycle CPU seconds
	gcCPU    float64
	mallocs  uint64
	gcCycles uint32
	cycles   []cycle
	probes   []time.Duration // probes[i] ran before cycles[i], probes[i+1] after it
	allLats  []float64       // every batch round trip, ms, sorted
	rateAll  float64         // steps/s over every cycle

	// Over the cycles that count (gate).
	share      float64 // cycles among full-speed probes ÷ all
	rate       float64 // steps/s
	cpuPerStep float64 // CPU seconds per step
	lats       []float64
}

// steadyPhase runs the closed loop for total, with a probe of the host
// (host.go) between every two batches.
func steadyPhase(sv *served, total time.Duration) (*steady, error) {
	st := &steady{batch: len(sv.buf), cycles: make([]cycle, 0, 1<<16), probes: make([]time.Duration, 0, 1<<16)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPUSeconds()
	st.probes = append(st.probes, probe())
	for deadline := time.Now().Add(total); time.Now().Before(deadline) && sv.sent+len(sv.buf) <= sv.in.limit(); {
		t0, cpu0 := time.Now(), cpuSeconds()
		rtt, err := sv.ingest()
		if err != nil {
			return nil, err
		}
		st.cycles = append(st.cycles, cycle{time.Since(t0).Seconds(), cpuSeconds() - cpu0, ms(rtt)})
		st.probes = append(st.probes, probe())
	}
	st.gcCPU = gcCPUSeconds() - gc0
	runtime.ReadMemStats(&m1)
	st.mallocs, st.gcCycles = m1.Mallocs-m0.Mallocs, m1.NumGC-m0.NumGC
	if len(st.cycles) == 0 {
		return nil, fmt.Errorf("steady phase of %v completed no batch", total)
	}
	for _, c := range st.cycles {
		st.wall += c.wall
		st.cpu += c.cpu
		st.allLats = append(st.allLats, c.rtt)
	}
	sort.Float64s(st.allLats)
	st.steps = float64(len(st.cycles) * st.batch)
	st.rateAll = st.steps / st.wall
	return st, nil
}

// gate computes the timed statistics over the cycles that count (host.go):
// those whose surrounding probes read within probeSlack of floor.
func (st *steady) gate(floor time.Duration) {
	idx, quiet := counted(st.probes, floor)
	st.share = float64(quiet) / float64(len(st.cycles))
	var wall, cpu float64
	st.lats = st.lats[:0]
	for _, i := range idx {
		wall += st.cycles[i].wall
		cpu += st.cycles[i].cpu
		st.lats = append(st.lats, st.cycles[i].rtt)
	}
	sort.Float64s(st.lats)
	steps := float64(len(idx) * st.batch)
	st.rate, st.cpuPerStep = steps/wall, cpu/steps
}

// yieldReference is the yield the prefix steps allow. With stream models it
// is OPT-offline (core.OptOfflineJoin: the most pairs any replacement
// schedule gets out of TotalCache slots, knowing the future); it normalizes
// away how join-rich the seed's sample path happens to be, which for random
// walks varies severalfold. Stationary keys carry no such information — every
// online policy has the same expected yield — and OPT over 10^5..10^6 steps
// is out of reach, so there the reference is the full join result.
func yieldReference(sp *spec, in *inputs) int {
	end := sp.warm + sp.q
	if sp.models != nil {
		return core.OptOfflineJoin(in.r[:end], in.s[:end], sp.cache, 0).CountAfter(sp.warm - 1)
	}
	return neverEvict(in, sp.warm, end)
}

// neverEvict is the number of pairs an unbounded cache delivers with a
// trigger in steps [lo, hi): every (R step, S step) with equal keys whose
// later step lies there.
func neverEvict(in *inputs, lo, hi int) int {
	cnt := [2]map[int]int{{}, {}}
	matches := func() int { // pairs among the steps counted so far
		total := 0
		for k, n := range cnt[0] {
			total += n * cnt[1][k]
		}
		return total
	}
	before := 0
	for i := 0; i < hi; i++ {
		if i == lo {
			before = matches()
		}
		cnt[0][in.key(0, i)]++
		cnt[1][in.key(1, i)]++
	}
	return matches() - before
}

// oracleRun is the uninterrupted direct replay of warm-up, prefix and
// verify window, and what it measured on the way.
type oracleRun struct {
	problems []string
	prefix   time.Duration // Σ IngestBatch over the prefix
	traced   time.Duration // Σ IngestBatch over the first traced steps of it
	mallocs  uint64        // heap objects allocated over prefix + verify window
	steps    int           // prefix + verify window
	ckpt     time.Duration // shardrt.Checkpoint at the prefix mark
}

// replayOracle replays every recorded batch of the served session through a
// runtime of its own and holds the daemon's output against it: reply by
// reply (the digests), pair counts, and — on the replay's side, where memory
// does not disturb a measurement — that no (RSeq, SSeq) occurs twice across
// replies.
func replayOracle(sp *spec, in *inputs, seed uint64, sv *served, servedPrefixPairs int) (*oracleRun, error) {
	orc := &oracleRun{steps: sp.q + sp.verify}
	var (
		packed    = make([]uint64, 0, sv.recordedPairs)
		warmEnd   = sp.warm / sp.batch
		tracedEnd = (sp.warm + sp.traced) / sp.batch
		prefixEnd = (sp.warm + sp.q) / sp.batch
		mismatch  = -1
		ckptErr   error
	)
	rp, err := directReplay(sp, in, seed, replayOpts{
		steps: orc.steps, count: sp.q,
		each: func(rt *shardrt.Runtime, b int, pairs []shardrt.Pair, digest uint64, _ time.Time, dur time.Duration) {
			if mismatch < 0 && b < len(sv.digests) && sv.digests[b] != digest {
				mismatch = b
			}
			for i := range pairs {
				packed = append(packed, pairs[i].RSeq<<32|pairs[i].SSeq)
			}
			if b >= warmEnd && b < prefixEnd {
				orc.prefix += dur
				if b < tracedEnd {
					orc.traced += dur
				}
			}
			if b == prefixEnd-1 {
				t0 := time.Now()
				ckptErr = rt.Checkpoint(io.Discard)
				orc.ckpt = time.Since(t0)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	if ckptErr != nil {
		return nil, fmt.Errorf("direct replay: checkpoint: %w", ckptErr)
	}
	orc.mallocs = rp.mallocs
	fail := func(format string, a ...interface{}) { orc.problems = append(orc.problems, fmt.Sprintf(format, a...)) }
	if want := (sp.warm + orc.steps) / sp.batch; len(sv.digests) != want {
		fail("recorded %d daemon replies, the replay has %d batches", len(sv.digests), want)
	}
	if mismatch >= 0 {
		when := "before"
		if mismatch >= prefixEnd {
			when = "after"
		}
		fail("daemon reply to batch %d (steps %d..%d, %s the restart) differs from the direct shardrt replay",
			mismatch, mismatch*sp.batch, (mismatch+1)*sp.batch-1, when)
	}
	if rp.chk.failures > 0 {
		fail("%d pairs of the direct replay failed the oracle, first: %v", rp.chk.failures, rp.chk.first)
	}
	if rp.chk.inRange != servedPrefixPairs {
		fail("daemon delivered %d pairs triggered in the prefix, the direct replay %d", servedPrefixPairs, rp.chk.inRange)
	}
	if err := uniquePairs(packed); err != nil {
		fail("direct replay: %v", err)
	}
	return orc, nil
}
