package engine

import (
	"fmt"
	"time"

	"stochstream/internal/core"
	"stochstream/internal/flightrec"
	"stochstream/internal/join"
	"stochstream/internal/process"
)

// Flight-recorder wiring: everything the operator does with
// Config.Flight lives here. engine.go's hot path only carries the
// j.rec != nil branches; the clock seam, the bundle plumbing and the
// lifecycle helpers are below.

// nowNanos is the engine's single wall-clock seam. The flight recorder and
// the step-latency telemetry both read time through it (via EnsureClock /
// j.now), so a test that pins flightrec.LogicalClock makes the whole
// operator — spans, latencies, exports — byte-deterministic.
func nowNanos() int64 {
	return time.Now().UnixNano()
}

// initFlight wires Config.Flight into the operator: the clock seam and —
// when telemetry is also configured — the registry's clock. Called once from
// NewJoin.
func (j *Join) initFlight() {
	rec := j.cfg.Flight
	if rec == nil {
		j.now = nowNanos
		return
	}
	j.rec = rec
	rec.EnsureClock(nowNanos)
	j.now = rec.Clock()
	if reg := j.cfg.Telemetry; reg != nil {
		reg.SetClock(j.now)
	}
}

// DumpBundle writes a diagnostics bundle — spans, lifecycle, telemetry and
// a checkpoint of the current state — and returns its directory. Call it
// from the stepping goroutine (it checkpoints). The engine also dumps
// automatically on recovered panics and invariant failures.
func (j *Join) DumpBundle(reason string) (string, error) {
	if j.rec == nil {
		return "", fmt.Errorf("engine: no flight recorder configured")
	}
	return j.rec.WriteBundle(
		flightrec.BundleInfo{Reason: reason, Step: j.time - 1},
		j.bundleSources(),
	)
}

// autoDumpBundle is DumpBundle for fault paths: it swallows every error and
// recovers every panic, because the fault being recorded must stay the
// primary failure.
func (j *Join) autoDumpBundle(reason string) {
	if j.rec == nil {
		return
	}
	defer func() { _ = recover() }()
	_, _ = j.DumpBundle(reason)
}

// bundleSources assembles the caller-side bundle inputs: always a
// checkpoint, plus a telemetry snapshot when a registry is configured.
func (j *Join) bundleSources() flightrec.BundleSources {
	src := flightrec.BundleSources{Checkpoint: j.Checkpoint}
	if reg := j.cfg.Telemetry; reg != nil {
		src.Telemetry = reg.WriteJSON
	}
	return src
}

// closeStep ends one step's root span; stepCore calls it on every exit path.
func (j *Join) closeStep(sp flightrec.Active, pairs, evictions int) {
	if j.rec != nil {
		j.rec.EndStep(sp, pairs, int64(evictions))
	}
}

// observeStep records the latency-histogram observation and the inline
// counters for n steps' worth of work. Step passes n = 1; StepBatch passes
// the batch length, amortizing one clock-read pair and one histogram
// observation across the whole batch (see docs/observability.md).
func (j *Join) observeStep(startNs int64, pairs, evictions, n int) {
	if j.stepLatency == nil {
		return
	}
	j.stepLatency.ObserveDuration(j.now() - startNs)
	j.stepCount.Add(int64(n))
	j.pairCount.Add(int64(pairs))
	j.evictCount.Add(int64(evictions))
}

// lifeTuple records one lifecycle event for a tuple's key when the flight
// recorder tracks it. Callers guard on j.rec != nil.
func (j *Join) lifeTuple(kind flightrec.LifeKind, step int, tp join.Tuple, partner int) {
	if tp.Value == process.NoValue || !j.rec.Sampled(tp.Value) {
		return
	}
	j.rec.Life(tp.Value, flightrec.LifeEvent{
		Step:    step,
		Kind:    kind,
		Stream:  streamName(tp.Stream),
		TupleID: tp.ID,
		Partner: partner,
	})
}

// lifeKey is lifeTuple for events on a bare arrival key with no tuple ID
// (a band-join match observed from the arrival's side).
func (j *Join) lifeKey(kind flightrec.LifeKind, step, key int, stream core.StreamID, partner int) {
	if key == process.NoValue || !j.rec.Sampled(key) {
		return
	}
	j.rec.Life(key, flightrec.LifeEvent{
		Step:    step,
		Kind:    kind,
		Stream:  streamName(stream),
		TupleID: -1,
		Partner: partner,
	})
}

// streamName returns the constant wire name for a stream, so lifecycle
// events allocate nothing.
func streamName(s core.StreamID) string {
	if s == core.StreamR {
		return "R"
	}
	return "S"
}
