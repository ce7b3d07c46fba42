// Adaptive: the full deployment pipeline. The paper assumes known stream
// statistics; this example closes the loop by *learning* them. It observes a
// prefix of each input stream, runs model detection (trend vs random walk vs
// AR(1) vs stationary), builds HEEB from the detected models, and joins the
// remainder — comparing against RAND and against HEEB given the true models.
package main

import (
	"fmt"
	"log"

	"stochstream"
)

func main() {
	// Collect telemetry for the whole pipeline; the snapshot printed at exit
	// doubles as an integration smoke test of the observability layer.
	reg := stochstream.EnableTelemetry()

	// Ground-truth generators (unknown to the pipeline).
	truthR := &stochstream.LinearTrend{Slope: 1, Intercept: -1, Noise: stochstream.BoundedNormal(2, 12)}
	truthS := &stochstream.LinearTrend{Slope: 1, Intercept: 0, Noise: stochstream.BoundedNormal(3, 15)}

	const observe, run = 600, 4000
	rng := stochstream.NewRNG(99)
	rAll := truthR.Generate(rng, observe+run)
	sAll := truthS.Generate(rng, observe+run)

	// 1. Learn models from the observed prefixes.
	repR, err := stochstream.DetectModel(rAll[:observe])
	if err != nil {
		log.Fatal(err)
	}
	repS, err := stochstream.DetectModel(sAll[:observe])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("model detection on 600-tuple prefixes:")
	fmt.Printf("  stream R: %s\n", repR.Describe())
	fmt.Printf("  stream S: %s\n", repS.Describe())

	// 2. Join the remaining tuples with HEEB driven by the learned models.
	r, s := rAll[observe:], sAll[observe:]
	// Rebase moves the detected models' time origin to the start of the
	// replayed segment (the simulator clock restarts at zero there).
	learned := stochstream.JoinConfig{
		CacheSize: 10,
		Warmup:    -1,
		Procs:     [2]stochstream.Process{repR.Rebase(observe), repS.Rebase(observe)},
	}
	heebLearned := stochstream.RunJoin(r, s, stochstream.NewHEEB(stochstream.HEEBOptions{
		LifetimeEstimate: 5, Adaptive: true,
	}), learned, 1)

	// 3. References: HEEB with the true models, and RAND.
	truth := learned
	truth.Procs = [2]stochstream.Process{
		&stochstream.LinearTrend{Slope: 1, Intercept: observe - 1, Noise: stochstream.BoundedNormal(2, 12)},
		&stochstream.LinearTrend{Slope: 1, Intercept: observe, Noise: stochstream.BoundedNormal(3, 15)},
	}
	heebTruth := stochstream.RunJoin(r, s, stochstream.NewHEEB(stochstream.HEEBOptions{
		LifetimeEstimate: 5,
	}), truth, 1)
	randRes := stochstream.RunJoin(r, s, &stochstream.RandPolicy{}, learned, 1)
	opt := stochstream.OptOfflineJoin(r, s, learned.CacheSize, 0)
	optJoins := opt.CountAfter(learned.EffectiveWarmup() - 1)

	fmt.Println("\njoining the remaining 4000 tuples (cache 10):")
	fmt.Printf("  OPT-offline            : %d\n", optJoins)
	fmt.Printf("  HEEB (true models)     : %d (%.0f%% of OPT)\n", heebTruth.Joins, pct(heebTruth.Joins, optJoins))
	fmt.Printf("  HEEB (learned models)  : %d (%.0f%% of OPT)\n", heebLearned.Joins, pct(heebLearned.Joins, optJoins))
	fmt.Printf("  RAND                   : %d (%.0f%% of OPT)\n", randRes.Joins, pct(randRes.Joins, optJoins))
	fmt.Println("\nlearned models recover nearly all of the benefit of knowing the")
	fmt.Println("true stream statistics — the framework degrades gracefully when")
	fmt.Println("statistics must be estimated online.")

	// Telemetry snapshot: where the time went and what the policies decided.
	snap := reg.Snapshot()
	stepLat := snap.Histograms["join_step_latency_ns"]
	fmt.Println("\ntelemetry snapshot at exit:")
	fmt.Printf("  steps=%d results=%d evictions=%d\n",
		snap.Counters["join_steps_total"], snap.Counters["join_results_total"], snap.Counters["join_evictions_total"])
	fmt.Printf("  step latency p50=%.0fns p90=%.0fns p99=%.0fns\n", stepLat.P50, stepLat.P90, stepLat.P99)
	fmt.Printf("  decision-trace records retained: %d\n", len(snap.Trace))
	if len(snap.Trace) > 0 {
		last := snap.Trace[len(snap.Trace)-1]
		fmt.Printf("  last decision: step %d, %s scored %d candidates, evicted %d\n",
			last.Step, last.Policy, len(last.Candidates), last.Need)
	}
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
