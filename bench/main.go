// Command bench is the repository's one performance ledger: it serves four
// workloads through an in-process stochstreamd daemon with one synchronous
// client and reports, per workload, client-observed throughput and latency
// next to the join yield they bought, then — in a separate traced run —
// where the time goes, layer by layer. See README.md in this directory.
//
//	go run ./bench -seed 1                       # all four workloads, both runs
//	go run ./bench -workload trend -trace 0      # end-to-end metrics only
//	go run ./bench -workload walk -trace out.json
//	go run ./bench -repeat 5                     # A/A spread per metric
//
// The last line of standard output of a single-workload run is one JSON
// object {correct, attempted, failed, metrics}; the exit code is non-zero
// when any output was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
)

func main() {
	// One P, unless the caller says otherwise. The seed host's two vCPUs are
	// hyperthreads of one core: a thread runs 1.7x slower while its sibling
	// is busy, so with two Ps every timing depends on what the second thread
	// happens to be doing (a GC worker, a scheduler thread spinning for work)
	// and the same binary on the same seed reads a quarter apart from one
	// minute to the next. Where workers share a core, wall-clock scaling is
	// not measurable anyway; shardrt.parallelism then reads 1 by construction.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: trend, walk, fanout or uptime (default: all four)")
		seed     = fs.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = fs.Float64("seconds", 15, "length of the steady phase")
		trace    = fs.String("trace", "", "0: end-to-end metrics only; 1: per-layer metrics only; a file name: both, and write the traced run there as Chrome trace JSON (default: both)")
		repeat   = fs.Int("repeat", 1, "run each workload this many times on the same seed and print per-metric median, quartiles and spread")
		scaleArg = fs.String("scale", "full", "full, or tiny (the smoke-test preset)")
		tmp      = fs.String("tmp", ".bench_tmp", "directory for checkpoints, created and removed by the run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc, ok := scales[*scaleArg]
	if !ok || fs.NArg() != 0 || *repeat < 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	opt := runOpts{seed: *seed, seconds: *seconds, steady: *trace != "1", layers: *trace != "0", tmpRoot: *tmp, log: stdout}
	if *trace != "" && *trace != "0" && *trace != "1" {
		opt.traceOut = *trace
	}
	chosen := specs
	if *workload != "" {
		sp, err := findSpec(*workload)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		chosen = []spec{sp}
	}
	if opt.traceOut != "" && len(chosen) != 1 {
		fmt.Fprintln(stderr, "bench: -trace FILE takes one -workload")
		return 2
	}

	code := 0
	for _, sp := range chosen {
		sp = sp.sized(sc)
		fmt.Fprintf(stdout, "# %s: %s\n# %s: shards %d, cache %d, batch %d, prefix %d steps after %d warm-up, steady %.4g s, seed %d, scale %s\n",
			sp.name, sp.why, sp.name, sp.shards, sp.cache, sp.batch, sp.q, sp.warm, opt.seconds, opt.seed, sc.name)
		var runs []*result
		for i := 0; i < *repeat; i++ {
			res, err := runWorkload(sp, sc, opt)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", sp.name, err)
				return 1
			}
			if !report(stdout, res, opt) {
				code = 1
			}
			runs = append(runs, res)
		}
		if *repeat > 1 {
			spread(stdout, runs, opt)
		}
	}
	return code
}

// reported is the metric tables a run with these options answers for.
func reported(opt runOpts) []metricDef {
	var defs []metricDef
	if opt.steady {
		defs = append(defs, endToEnd...)
	}
	if opt.layers {
		defs = append(defs, perLayer...)
	}
	return defs
}

// report prints one run: every metric by name with its unit, the oracle's
// verdict, and the JSON line. It returns whether the run was correct.
func report(w io.Writer, res *result, opt runOpts) bool {
	for _, d := range reported(opt) {
		v, ok := res.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.problemf("metric %s was not measured", d.name)
			continue
		}
		extra := ""
		switch {
		case res.notes[d.name] != "":
			extra = "  (n/a: " + res.notes[d.name] + ")"
		case d.name == "batch_p50_ms" || d.name == "batch_p95_ms":
			extra = fmt.Sprintf("  (%d samples)", res.samples)
		case d.name == "steps_per_s":
			extra = fmt.Sprintf("  (generator alone: %.4g steps/s)", res.values["loadgen.max_steps_per_s"])
		}
		fmt.Fprintf(w, "%-8s %-34s %14.6g %-12s%s\n", res.workload, d.name, v, d.unit, extra)
	}
	if res.values["loadgen.max_steps_per_s"] < 5*res.values["steps_per_s"] {
		fmt.Fprintf(w, "%-8s GENERATOR-BOUND: the generator alone is not 5x faster than the served rate\n", res.workload)
	}
	fmt.Fprintf(w, "%-8s %-34s %14.6g %-12s  (%d of %d batches failed, shed or refused)\n", res.workload, "failed_share",
		ratio(float64(res.failed), float64(res.attempted)), "share", res.failed, res.attempted)
	for _, p := range res.problems {
		fmt.Fprintf(w, "%-8s WRONG: %s\n", res.workload, p)
	}
	correct := len(res.problems) == 0 && res.failed == 0

	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, res.attempted, res.failed, map[string]jsonMetric{}}
	for _, d := range reported(opt) {
		if v, ok := res.values[d.name]; ok {
			out.Metrics[d.name] = jsonMetric{v, d.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(w, "%-8s WRONG: encoding the result: %v\n", res.workload, err)
		return false
	}
	fmt.Fprintf(w, "%s\n", line)
	return correct
}

// spread prints, for runs of one workload on one seed, each metric's
// median, quartiles and relative spread (interquartile range ÷ median): the
// A/A noise a later comparison has to clear.
func spread(w io.Writer, runs []*result, opt runOpts) {
	fmt.Fprintf(w, "# %s: A/A over %d runs: metric, median, q1, q3, (q3-q1)/median\n", runs[0].workload, len(runs))
	for _, d := range reported(opt) {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, r.values[d.name])
		}
		q1, q2, q3 := quartiles(xs)
		fmt.Fprintf(w, "%-8s %-34s %14.6g %14.6g %14.6g %9.4f  %s\n", runs[0].workload, d.name, q2, q1, q3, ratio(q3-q1, math.Abs(q2)), d.unit)
	}
}
