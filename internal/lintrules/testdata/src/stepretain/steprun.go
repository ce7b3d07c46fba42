// Seeded violations for the numbered batch surface: the Batch StepRun
// returns, and each of its slices, are the operator's under the same contract
// as Step's result, so retaining one (directly, through a field of it, or
// through a local it flowed through) is flagged identically.
package stepretain

import "stochstream/internal/engine"

type runSink struct {
	batch  engine.Batch
	tuples []engine.Tuple
	refs   []engine.PairRef
}

var lastRun engine.Batch

func runStoreInField(j *engine.Join, s *runSink, batch []engine.TuplePair) {
	s.batch = j.StepRun(batch) // want "engine.Step result retained"
}

func runStoreInGlobal(j *engine.Join, batch []engine.TuplePair) {
	lastRun = j.StepRun(batch) // want "engine.Step result retained"
}

func runStoreTuples(j *engine.Join, s *runSink, batch []engine.TuplePair) {
	s.tuples = j.StepRun(batch).Tuples // want "engine.Step result retained"
}

func runStoreViaLocal(j *engine.Join, s *runSink, batch []engine.TuplePair) {
	b := j.StepRun(batch)
	s.refs = b.Pairs[1:] // want "engine.Step result retained"
}

func runLiteral(j *engine.Join, batch []engine.TuplePair) runSink {
	b := j.StepRun(batch)
	return runSink{tuples: b.Tuples} // want "engine.Step result retained"
}

func runCopyOutIsFine(j *engine.Join, s *runSink, batch []engine.TuplePair) {
	// Copying detaches the records from the reused buffers: not flagged.
	b := j.StepRun(batch)
	s.tuples = append(s.tuples[:0], b.Tuples...)
	s.refs = append(s.refs[:0], b.Pairs...)
}

func runLocalUseIsFine(j *engine.Join, batch []engine.TuplePair) int {
	b := j.StepRun(batch)
	return len(b.Pairs) + len(b.Tuples)
}
