package policy

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"

	"stochstream/internal/stats"
)

// This file implements join.StateSnapshotter for the policies that carry
// decision state a checkpoint must capture: HEEB (adaptive α and the lifetime
// tracker), the RNG-driven RAND and RESERVOIR, and PROB and LIFE (the value
// counts no history keeps for them). FlowExpect's forecast window is
// re-derived from the restored histories, so it needs no snapshot code.
//
// Wire format: gob of an exported wire struct per policy, and no Go map in
// any of them: gob writes a map in iteration order, which would make two
// snapshots of one state differ. The bytes travel inside the engine
// checkpoint's versioned, checksummed envelope (internal/checkpoint), so no
// versioning is repeated here.

// heebWire carries only what is not re-derived.
type heebWire struct {
	Alpha                     float64
	TrackerDecay, TrackerMean float64
	TrackerN                  int
}

// SnapshotState implements join.StateSnapshotter.
func (p *HEEB) SnapshotState() ([]byte, error) {
	w := heebWire{Alpha: p.alpha}
	if p.tracker != nil {
		w.TrackerDecay, w.TrackerMean, w.TrackerN = p.tracker.State()
	}
	return gobEncode(w)
}

// RestoreState implements join.StateSnapshotter. The policy must have been
// Reset with the same configuration that produced the snapshot; the L table
// and the forecast window are rebuilt deterministically on demand. The
// restored state is the snapshot's alone: the tracker is always replaced,
// so a zero tracker (decay 0, which no Reset policy writes) is refused. A
// snapshot that does not validate leaves the policy as it was.
func (p *HEEB) RestoreState(data []byte) error {
	var w heebWire
	if err := gobDecode(data, &w); err != nil {
		return fmt.Errorf("policy: restoring HEEB state: %w", err)
	}
	if !(w.Alpha > 0) || math.IsInf(w.Alpha, 0) {
		return fmt.Errorf("policy: restoring HEEB state: alpha %v is not finite and positive", w.Alpha)
	}
	if err := p.tracker.Restore(w.TrackerDecay, w.TrackerMean, w.TrackerN); err != nil {
		return fmt.Errorf("policy: restoring HEEB lifetime tracker: %w", err)
	}
	if p.fc != nil {
		p.fc.Invalidate()
	}
	p.alpha = w.Alpha
	return nil
}

type randWire struct{ RNG []byte }

// SnapshotState implements join.StateSnapshotter.
func (p *Rand) SnapshotState() ([]byte, error) {
	b, err := p.rng.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return gobEncode(randWire{RNG: b})
}

// RestoreState implements join.StateSnapshotter.
func (p *Rand) RestoreState(data []byte) error {
	var w randWire
	if err := gobDecode(data, &w); err != nil {
		return fmt.Errorf("policy: restoring RAND state: %w", err)
	}
	return p.rng.UnmarshalBinary(w.RNG)
}

type reservoirWire struct {
	RNG  []byte
	Seen int
}

// SnapshotState implements join.StateSnapshotter.
func (p *Reservoir) SnapshotState() ([]byte, error) {
	b, err := p.rng.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return gobEncode(reservoirWire{RNG: b, Seen: p.seen})
}

// RestoreState implements join.StateSnapshotter. No run counts a negative
// number of tuples seen, so such a snapshot is refused before the RNG is
// replaced: a snapshot that does not validate leaves the policy as it was.
func (p *Reservoir) RestoreState(data []byte) error {
	var w reservoirWire
	if err := gobDecode(data, &w); err != nil {
		return fmt.Errorf("policy: restoring RESERVOIR state: %w", err)
	}
	if w.Seen < 0 {
		return fmt.Errorf("policy: restoring RESERVOIR state: %d tuples seen", w.Seen)
	}
	if err := p.rng.UnmarshalBinary(w.RNG); err != nil {
		return err
	}
	p.seen = w.Seen
	return nil
}

// countsWire is valueCounts with each stream's map laid out by ascending value.
type countsWire struct {
	Values, Counts [2][]int
}

// SnapshotState implements join.StateSnapshotter for PROB and LIFE.
func (vc *valueCounts) SnapshotState() ([]byte, error) {
	var w countsWire
	for s, c := range vc.counts {
		w.Values[s], w.Counts[s] = c.Sorted()
	}
	return gobEncode(w)
}

// RestoreState implements join.StateSnapshotter for PROB and LIFE.
func (vc *valueCounts) RestoreState(data []byte) error {
	var w countsWire
	if err := gobDecode(data, &w); err != nil {
		return fmt.Errorf("policy: restoring value counts: %w", err)
	}
	// Both streams are decoded before either is replaced, so a snapshot that
	// fails leaves the counts as they were.
	var counts [2]*stats.Counts
	for s := range counts {
		c, err := stats.CountsFrom(w.Values[s], w.Counts[s])
		if err != nil {
			return fmt.Errorf("policy: restoring value counts of stream %d: %w", s, err)
		}
		counts[s] = c
	}
	vc.counts = counts
	return nil
}

func gobEncode(v interface{}) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(data []byte, v interface{}) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}
