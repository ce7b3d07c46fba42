// Command repro regenerates the paper's evaluation figures.
//
// Usage:
//
//	repro -figure 8                  # one figure at interactive scale
//	repro -figure all -paper         # everything at paper scale
//	repro -figure 6 -chart           # ASCII chart
//	repro -figure 13 -csv            # CSV rows
//	repro -figure 13 -real-data f    # use an actual reference trace
//	repro -figure 8 -metrics         # append a Prometheus telemetry snapshot
//	repro -figure 8 -trace 10        # dump the last 10 eviction decisions
//	repro -checkpoint f -bundle-dir d  # also dump a flight-recorder bundle
//	repro -shards 4 -batch 64        # demo join on the sharded runtime
//	repro -shards 4 -checkpoint f    # sharded checkpoint (restore with -shards 4)
//	repro -list                      # show available figures
//
// Each figure prints the same series the paper plots; EXPERIMENTS.md records
// a reference run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"stochstream"
	"stochstream/internal/engine"
	"stochstream/internal/flightrec"
	"stochstream/internal/process"
	"stochstream/internal/shardrt"
	"stochstream/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// run parses args and executes; separated from main for testing.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	var (
		figure     = fs.String("figure", "", "figure id (6..19, a1, a2) or \"all\"")
		list       = fs.Bool("list", false, "list available figures")
		runs       = fs.Int("runs", 0, "runs per data point (0 = default; paper uses 50)")
		length     = fs.Int("len", 0, "stream length per run (0 = default 5000)")
		cache      = fs.Int("cache", 0, "cache size for fixed-cache figures (0 = default 10)")
		seed       = fs.Uint64("seed", 1, "base seed")
		flowExpect = fs.Bool("flowexpect", false, "include FlowExpect in figure 8 (slow)")
		feRuns     = fs.Int("flowexpect-runs", 0, "FlowExpect runs (0 = default)")
		feLen      = fs.Int("flowexpect-len", 0, "FlowExpect stream length (0 = default)")
		lookahead  = fs.Int("lookahead", 0, "FlowExpect look-ahead for figure 8 (0 = default 5)")
		paper      = fs.Bool("paper", false, "use the paper's full scale (50 runs, FlowExpect on)")
		asCSV      = fs.Bool("csv", false, "emit CSV instead of a text table")
		asChart    = fs.Bool("chart", false, "render an ASCII chart instead of a text table")
		realTrace  = fs.String("real-data", "", "reference trace file for the REAL figures (one value per line or CSV; e.g. the Melbourne temperatures)")
		metrics    = fs.Bool("metrics", false, "emit a Prometheus-text telemetry snapshot (step latencies, policy decisions, solver counters, recent decision traces) after the figures")
		traceN     = fs.Int("trace", 0, "emit the last N decision-trace records as JSON lines (implies telemetry collection)")
		ckptPath   = fs.String("checkpoint", "", "run the checkpoint demo join for -len steps and write its state to FILE (no -figure needed; -seed/-len/-cache apply)")
		restPath   = fs.String("restore", "", "restore the checkpoint demo join from FILE and replay -len further steps (requires the same -seed and -cache the checkpoint was written with)")
		bundleDir  = fs.String("bundle-dir", "", "run the checkpoint demo with the flight recorder attached and dump a diagnostics bundle into DIR at the end (also where fault bundles land if the run crashes)")
		shards     = fs.Int("shards", 0, "run the demo join on the sharded runtime with N hash-partitioned shards instead of one engine (no -figure needed; -seed/-len/-cache/-checkpoint/-restore apply, -cache is the total budget)")
		batchSize  = fs.Int("batch", 64, "ingress batch size (global steps per dispatch) for -shards")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	collect := *metrics || *traceN > 0
	if collect {
		stochstream.EnableTelemetry()
		defer stochstream.DisableTelemetry()
	}

	if *list {
		fmt.Fprintln(stdout, "available figures:")
		for _, id := range stochstream.FigureIDs() {
			fmt.Fprintln(stdout, "  ", id)
		}
		return nil
	}
	if *shards > 0 {
		return runShardedDemo(stdout, *ckptPath, *restPath, *bundleDir, *seed, *length, *cache, *shards, *batchSize)
	}
	if *ckptPath != "" || *restPath != "" || *bundleDir != "" {
		return runCheckpointDemo(stdout, *ckptPath, *restPath, *bundleDir, *seed, *length, *cache)
	}
	if *figure == "" {
		fs.Usage()
		return fmt.Errorf("missing -figure")
	}

	opts := stochstream.DefaultExperimentOptions()
	if *paper {
		opts = stochstream.PaperScaleOptions()
	}
	if *runs > 0 {
		opts.Runs = *runs
	}
	if *length > 0 {
		opts.Length = *length
	}
	if *cache > 0 {
		opts.Cache = *cache
	}
	opts.Seed = *seed
	if *flowExpect {
		opts.FlowExpect = true
	}
	if *feRuns > 0 {
		opts.FlowExpectRuns = *feRuns
	}
	if *feLen > 0 {
		opts.FlowExpectLength = *feLen
	}
	if *lookahead > 0 {
		opts.Lookahead = *lookahead
	}
	opts.RealTracePath = *realTrace

	ids := []string{*figure}
	if *figure == "all" {
		ids = stochstream.FigureIDs()
	}
	for _, id := range ids {
		start := time.Now()
		fig, err := stochstream.GenerateFigure(id, opts)
		if err != nil {
			return err
		}
		switch {
		case *asCSV:
			if err := fig.WriteCSV(stdout); err != nil {
				return err
			}
		case *asChart:
			fig.Chart(stdout, 72, 20)
			fmt.Fprintln(stdout)
		default:
			fig.Render(stdout)
			fmt.Fprintf(stdout, "  [figure %s regenerated in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	if collect {
		reg := stochstream.Telemetry()
		if *metrics {
			reg.WritePrometheus(stdout)
			// Recent eviction decisions ride along as comment lines, so one
			// -metrics dump shows both where time went and what the policy
			// chose (and why, via the per-candidate scores).
			n := *traceN
			if n == 0 {
				n = 5
			}
			if err := reg.WriteTrace(stdout, n); err != nil {
				return err
			}
		} else if *traceN > 0 {
			enc := json.NewEncoder(stdout)
			for _, rec := range reg.Trace().Last(*traceN) {
				if err := enc.Encode(rec); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// The checkpoint demo joins two seeded Gaussian-walk streams under the
// default model-based policy, so -checkpoint/-restore exercise the full
// fault-tolerance path (operator state, model histories, policy state, RNG)
// end to end. The streams regenerate deterministically from -seed, so a
// restored run continues exactly where the checkpointed one stopped.
const demoWindow = 64

func demoProcs() [2]process.Process {
	return [2]process.Process{
		&process.GaussianWalk{Sigma: 2},
		&process.GaussianWalk{Sigma: 2, Drift: 0.25},
	}
}

// demoStreams regenerates the first n demo arrivals for a seed. Generation
// is prefix-stable: a longer stream extends a shorter one, which is what
// lets a restored run replay the tail it has not seen yet.
func demoStreams(seed uint64, n int) ([]int, []int) {
	rng := stats.NewRNG(seed)
	procs := demoProcs()
	return procs[0].Generate(rng.Split(), n), procs[1].Generate(rng.Split(), n)
}

func runCheckpointDemo(stdout io.Writer, ckptPath, restPath, bundleDir string, seed uint64, length, cache int) error {
	if length <= 0 {
		length = 2000
	}
	if cache <= 0 {
		cache = 10
	}
	cfg := engine.Config{
		CacheSize: cache,
		Window:    demoWindow,
		Procs:     demoProcs(),
		Seed:      seed,
	}
	if bundleDir != "" {
		// Attach the flight recorder so the demo run carries its own black
		// box: step-phase spans and tuple lifecycles accumulate as it runs,
		// and any invariant failure or recovered panic dumps a bundle into
		// bundleDir on its own. SampleEvery 1 tracks every key — the demo is
		// short enough that the fixed lifecycle budget is the only cap.
		cfg.Flight = flightrec.New(flightrec.Options{
			BundleDir:   bundleDir,
			SampleEvery: 1,
		})
	}
	j, err := engine.NewJoin(cfg)
	if err != nil {
		return err
	}
	start := 0
	if restPath != "" {
		f, err := os.Open(restPath)
		if err != nil {
			return err
		}
		err = j.Restore(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("restore %s: %w", restPath, err)
		}
		start = j.Metrics().Steps
		fmt.Fprintf(stdout, "restored %s: resuming at step %d\n", restPath, start)
	}
	r, s := demoStreams(seed, start+length)
	for i := start; i < start+length; i++ {
		if _, err := j.StepChecked(engine.Tuple{Key: r[i]}, engine.Tuple{Key: s[i]}); err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
	}
	m := j.Metrics()
	fmt.Fprintf(stdout, "demo join (cache %d, window %d, seed %d): steps %d  pairs %d  evictions %d  expired %d  cached %d\n",
		cache, demoWindow, seed, m.Steps, m.Pairs, m.Evictions, m.Expired, m.CacheLen)
	if ckptPath != "" {
		f, err := os.Create(ckptPath)
		if err != nil {
			return err
		}
		if err := j.Checkpoint(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "checkpoint written to %s (resume with -restore %s)\n", ckptPath, ckptPath)
	}
	if bundleDir != "" {
		dir, err := j.DumpBundle("signal")
		if err != nil {
			return err
		}
		// Load it back through the public loader so the summary the user
		// sees is what a later `flightrec.LoadBundle` will see, not what we
		// think we wrote.
		b, err := flightrec.LoadBundle(dir)
		if err != nil {
			return fmt.Errorf("verifying bundle %s: %w", dir, err)
		}
		fmt.Fprintf(stdout, "bundle written to %s: reason %q  step %d  spans %d (of %d recorded)  tracked keys %d  checkpoint %d bytes\n",
			dir, b.Manifest.Reason, b.Manifest.Step, b.Manifest.Spans, b.Manifest.SpansTotal, b.Manifest.TrackedKeys, len(b.Checkpoint))
	}
	return nil
}

// runShardedDemo is the checkpoint demo on the sharded runtime: the same
// seeded Gaussian-walk streams, hash-partitioned across -shards engines and
// fed through batched ingress. -checkpoint/-restore go through the sharded
// manifest, so a restore needs the same -shards/-cache/-seed the checkpoint
// was written with; -bundle-dir attaches a flight recorder per shard
// (bundles land under DIR/shard-<i>/ on downgrades or faults).
func runShardedDemo(stdout io.Writer, ckptPath, restPath, bundleDir string, seed uint64, length, cache, shards, batch int) error {
	if batch <= 0 {
		return fmt.Errorf("-batch must be positive, got %d", batch)
	}
	if length <= 0 {
		length = 2000
	}
	if cache <= 0 {
		cache = 10
	}
	cfg := shardrt.Config{
		Shards:     shards,
		TotalCache: cache,
		Window:     demoWindow,
		Procs:      demoProcs(),
		Seed:       seed,
	}
	if bundleDir != "" {
		cfg.Flight = true
		cfg.FlightDir = bundleDir
		cfg.FlightSampleEvery = 1
	}
	rt, err := shardrt.New(cfg)
	if err != nil {
		return err
	}
	defer rt.Close()
	start := 0
	if restPath != "" {
		f, err := os.Open(restPath)
		if err != nil {
			return err
		}
		err = rt.Restore(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("restore %s: %w", restPath, err)
		}
		start = rt.Metrics().Ingested
		fmt.Fprintf(stdout, "restored %s: resuming at step %d\n", restPath, start)
	}
	r, s := demoStreams(seed, start+length)
	for lo := start; lo < start+length; lo += batch {
		hi := lo + batch
		if hi > start+length {
			hi = start + length
		}
		steps := make([]shardrt.Step, 0, hi-lo)
		for t := lo; t < hi; t++ {
			steps = append(steps, shardrt.Step{R: engine.Tuple{Key: r[t]}, S: engine.Tuple{Key: s[t]}})
		}
		if _, err := rt.IngestBatch(steps); err != nil {
			return fmt.Errorf("batch at step %d: %w", lo, err)
		}
	}
	if err := rt.CheckInvariants(); err != nil {
		return err
	}
	m := rt.Metrics()
	fmt.Fprintf(stdout, "sharded demo join (shards %d, total cache %d, window %d, seed %d, batch %d): steps %d  batches %d  pairs %d\n",
		shards, cache, demoWindow, seed, batch, m.Ingested, m.Batches, m.Pairs)
	for _, sm := range m.Shards {
		fmt.Fprintf(stdout, "  shard %d: budget %d  steps %d  pairs %d  evictions %d  expired %d  cached %d\n",
			sm.Shard, sm.Budget, sm.Engine.Steps, sm.Engine.Pairs, sm.Engine.Evictions, sm.Engine.Expired, sm.Engine.CacheLen)
	}
	if ckptPath != "" {
		f, err := os.Create(ckptPath)
		if err != nil {
			return err
		}
		if err := rt.Checkpoint(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "sharded checkpoint written to %s (resume with -shards %d -restore %s)\n", ckptPath, shards, ckptPath)
	}
	return nil
}
