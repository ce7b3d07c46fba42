// Package engine is the statecheck mutation corpus: a complete, clean
// checkpointable operator. The committed tree must pass the full suite;
// TestStatecheckMutants deletes the line marked ci:mutate-snapshot and then
// expects snapcomplete to fail the driver naming the dropped field.
package engine

// Config is the operator's construction-time identity.
type Config struct {
	CacheSize int
	Window    int
}

// Op is a checkpointable counter pair.
type Op struct {
	cfg   Config
	Count int
	Total int
}

// fingerprint folds every decision-path config field, so a checkpoint
// cannot restore across a config change.
func (o *Op) fingerprint() (int, int) { return o.cfg.CacheSize, o.cfg.Window }

// Bump is the operational write path.
func (o *Op) Bump(v int) {
	if v > o.cfg.Window {
		return
	}
	o.Count++
	o.Total += v
}

// SnapshotState captures the full persistent state.
func (o *Op) SnapshotState() ([]byte, error) {
	var out []byte
	out = append(out, byte(o.Count))
	out = append(out, byte(o.Total)) // ci:mutate-snapshot
	return out, nil
}

// RestoreState reads the state back in encode order.
func (o *Op) RestoreState(b []byte) error {
	o.Count = int(b[0])
	o.Total = int(b[1])
	return nil
}
