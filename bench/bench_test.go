package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"stochstream/internal/streamd/wire"
)

// ledger is the part of BENCHMARK.json the tests hold the program to.
type ledger struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readLedger(t *testing.T) ledger {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var l ledger
	if err := json.Unmarshal(raw, &l); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return l
}

// TestSmoke runs all four workloads through every phase at -scale tiny,
// both the untraced and the traced run, and holds the output to
// BENCHMARK.json: every metric it names is emitted, finite and carries its
// unit, and nothing it does not name is emitted.
func TestSmoke(t *testing.T) {
	l := readLedger(t)
	units := map[string]string{}
	for _, m := range l.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range l.PerLayer {
		if _, dup := units[m.Name]; dup {
			t.Errorf("BENCHMARK.json names %s twice", m.Name)
		}
		units[m.Name] = m.Unit
	}
	if len(l.EndToEnd) != len(endToEnd) || len(l.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d + %d metrics, the program defines %d + %d",
			len(l.EndToEnd), len(l.PerLayer), len(endToEnd), len(perLayer))
	}
	if len(l.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(l.Workloads), len(specs))
	}
	for i, w := range l.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, specs[i].name)
		}
	}

	var out, errs bytes.Buffer
	if code := run([]string{"-scale", "tiny", "-seconds", "0.2", "-tmp", t.TempDir()}, &out, &errs); code != 0 {
		t.Fatalf("exit code %d\n%s\n%s", code, errs.String(), out.String())
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	results := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("result line: %v\n%s", err, line)
		}
		name := specs[results%len(specs)].name
		results++
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, r.Correct, r.Attempted, r.Failed)
		}
		for m, unit := range units {
			got, ok := r.Metrics[m]
			switch {
			case !ok:
				t.Errorf("%s: metric %s is not emitted", name, m)
			case got.Value == nil || math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
				t.Errorf("%s: metric %s is not a finite number", name, m)
			case got.Unit != unit || unit == "":
				t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", name, m, got.Unit, unit)
			}
		}
		for m := range r.Metrics {
			if _, ok := units[m]; !ok {
				t.Errorf("%s: metric %s is emitted but BENCHMARK.json does not list it", name, m)
			}
			if !nameOK.MatchString(m) {
				t.Errorf("%s: metric name %q has characters outside [A-Za-z0-9_.-]", name, m)
			}
		}
	}
	if results != len(specs) {
		t.Errorf("%d result lines, want one per workload (%d)", results, len(specs))
	}
}

// TestGeneratorUniform is the generator's self-calibration: over 10^6 draws
// the key histogram of both stationary workloads is what a uniform source
// gives — every bin within 5 binomial standard deviations of the mean, and
// the standard deviation across bins within 30% of the binomial one.
func TestGeneratorUniform(t *testing.T) {
	const draws = 1000000
	for _, sp := range specs {
		if sp.models != nil {
			continue
		}
		hist := make([]int, sp.keys)
		base := mix64(1)
		for i := uint64(0); i < draws; i++ {
			hist[uniformKey(base, i, sp.keys)]++
		}
		p := 1 / float64(sp.keys)
		mean, want := draws*p, math.Sqrt(draws*p*(1-p))
		var ss float64
		for k, n := range hist {
			d := float64(n) - mean
			ss += d * d
			if math.Abs(d) > 5*want {
				t.Errorf("%s: key %d drawn %d times, mean %.0f ± %.0f", sp.name, k, n, mean, want)
			}
		}
		if sd := math.Sqrt(ss / float64(sp.keys)); sd < 0.7*want || sd > 1.3*want {
			t.Errorf("%s: bin standard deviation %.1f, a uniform source gives %.1f", sp.name, sd, want)
		}
	}
}

// TestOracleRejects feeds the output oracle the violations it exists for.
func TestOracleRejects(t *testing.T) {
	sp, err := findSpec("fanout")
	if err != nil {
		t.Fatal(err)
	}
	sp = sp.sized(scales["tiny"])
	in := newInputs(&sp, 1)
	// A genuine pair: the first R step and the first later S step that
	// carry the same key.
	i, j := 0, 1
	for in.key(0, i) != in.key(1, j) {
		j++
	}
	good := wire.Pair{
		RSeq: uint64(2 * i), SSeq: uint64(2*j + 1),
		RKey: int64(in.key(0, i)), SKey: int64(in.key(1, j)),
		RPayload: in.payloadOf(0, i), SPayload: in.payloadOf(1, j),
	}
	check := func(name string, wantFailures int, pairs ...wire.Pair) {
		t.Helper()
		c := checker{in: in}
		c.wireReply(pairs, j+1)
		if c.failures != wantFailures {
			t.Errorf("%s: %d failures, want %d: %v", name, c.failures, wantFailures, c.first)
		}
	}
	check("genuine pair", 0, good)
	bad := good
	bad.SKey++
	check("unequal keys", 1, bad)
	bad = good
	bad.RKey, bad.SKey = bad.RKey+1, bad.SKey+1
	check("key not carried by those steps", 1, bad)
	bad = good
	bad.RSeq += 2 * uint64(j+1)
	check("arrival from the future", 1, bad)
	bad = good
	bad.RPayload = in.payloadOf(1, i)
	check("payload not echoed", 1, bad)
	check("duplicate within a reply", 1, good, good)

	if err := uniquePairs([]uint64{3<<32 | 5, 1<<32 | 7, 3<<32 | 5}); err == nil {
		t.Error("uniquePairs accepted a pair delivered twice")
	}
	if err := uniquePairs([]uint64{3<<32 | 5, 1<<32 | 7}); err != nil {
		t.Errorf("uniquePairs: %v", err)
	}
}

// TestQuartiles pins the spread statistic to Python's
// statistics.quantiles(range(1, 11), n=4), which the accepting driver uses.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestGate holds the interference gate to its definition: an interval
// counts when both probes around it are within probeSlack of the floor, the
// statistics come from the counted intervals alone, and a run with too few
// of them falls back to all.
func TestGate(t *testing.T) {
	const us = time.Microsecond
	fast, slow := 40*us, 80*us
	st := &steady{batch: 4}
	st.probes = append(st.probes, fast)
	for i := 0; i < 4*minCounted; i++ {
		// Every other stretch of minCounted cycles has a neighbour on the
		// core: probes read double and the cycle takes 1.65x as long.
		p, c := fast, cycle{wall: 0.010, cpu: 0.008, rtt: 9}
		if i/minCounted%2 == 1 {
			p, c = slow, cycle{wall: 0.0165, cpu: 0.0132, rtt: 15}
		}
		st.cycles = append(st.cycles, c)
		st.probes = append(st.probes, p)
	}
	st.gate(fast)
	// A cycle counts when the two probes before it and the two after it
	// are all fast: the last of the first quiet stretch, the first two and
	// the last of the second do not.
	if want := 2*minCounted - 4; len(st.lats) != want || st.share != float64(want)/float64(len(st.cycles)) {
		t.Fatalf("%d cycles counted, share %v; want %d", len(st.lats), st.share, want)
	}
	if st.lats[len(st.lats)-1] != 9 || math.Abs(st.rate-400) > 1e-6 || math.Abs(st.cpuPerStep-0.002) > 1e-9 {
		t.Errorf("counted cycles give max rtt %v ms, %v steps/s, %v CPU s/step; want 9, 400, 0.002", st.lats[len(st.lats)-1], st.rate, st.cpuPerStep)
	}

	// A host that is hardly ever quiet: the least disturbed cycles top the
	// count up to minCounted, the two undisturbed ones first.
	for i := range st.probes {
		st.probes[i] = slow + time.Duration(i)
	}
	for i := 99; i <= 103; i++ {
		st.probes[i] = fast
	}
	st.cycles[100].rtt, st.cycles[101].rtt = 1, 2
	st.gate(fast)
	if len(st.lats) != minCounted || st.share != 2/float64(len(st.cycles)) || st.lats[0] != 1 || st.lats[1] != 2 {
		t.Errorf("hardly any undisturbed cycle: %d counted, share %v, fastest %v", len(st.lats), st.share, st.lats[:2])
	}
}
