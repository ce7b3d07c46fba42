package policy

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"stochstream/internal/stats"
)

// This file implements join.StateSnapshotter for the policies that carry
// decision state a checkpoint must capture: HEEB (adaptive α and the lifetime
// tracker), the RNG-driven RAND and RESERVOIR, PROB and LIFE (the value counts
// no history keeps for them) and Ladder (which delegates to its rungs).
// FlowExpect's forecast window is re-derived from the restored histories, so
// it needs no snapshot code.
//
// Wire format: gob of an exported wire struct per policy, and no Go map in
// any of them: gob writes a map in iteration order, which would make two
// snapshots of one state differ. The bytes travel inside the engine
// checkpoint's versioned, checksummed envelope (internal/checkpoint), so no
// versioning is repeated here.

// heebWire carries only what is not re-derived: snapshots written before the
// per-tuple and per-offset score memos (fields Inc and OffsetH) were dropped
// still decode, gob skipping the fields it finds no home for.
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
// and the forecast window are rebuilt deterministically on demand.
func (p *HEEB) RestoreState(data []byte) error {
	var w heebWire
	if err := gobDecode(data, &w); err != nil {
		return fmt.Errorf("policy: restoring HEEB state: %w", err)
	}
	if p.fc != nil {
		p.fc.Invalidate()
	}
	if w.TrackerN > 0 || w.TrackerDecay != 0 {
		if err := p.tracker.Restore(w.TrackerDecay, w.TrackerMean, w.TrackerN); err != nil {
			return fmt.Errorf("policy: restoring HEEB lifetime tracker: %w", err)
		}
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

// RestoreState implements join.StateSnapshotter.
func (p *Reservoir) RestoreState(data []byte) error {
	var w reservoirWire
	if err := gobDecode(data, &w); err != nil {
		return fmt.Errorf("policy: restoring RESERVOIR state: %w", err)
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
	for s, m := range vc.counts {
		w.Values[s], w.Counts[s] = stats.SortedCounts(m)
	}
	return gobEncode(w)
}

// RestoreState implements join.StateSnapshotter for PROB and LIFE.
func (vc *valueCounts) RestoreState(data []byte) error {
	var w countsWire
	if err := gobDecode(data, &w); err != nil {
		return fmt.Errorf("policy: restoring value counts: %w", err)
	}
	for s := range vc.counts {
		m, err := stats.CountsFrom(w.Values[s], w.Counts[s])
		if err != nil {
			return fmt.Errorf("policy: restoring value counts of stream %d: %w", s, err)
		}
		vc.counts[s] = m
	}
	return nil
}

type ladderWire struct {
	Rungs     []ladderRungWire
	Fallbacks []uint64
	LastRung  int
}

type ladderRungWire struct {
	Name     string
	HasState bool
	State    []byte
}

// SnapshotState implements join.StateSnapshotter by capturing every rung
// that itself carries state, plus the ladder's fallback counters.
func (p *Ladder) SnapshotState() ([]byte, error) {
	w := ladderWire{Fallbacks: append([]uint64(nil), p.fallbacks...), LastRung: p.lastRung}
	for _, r := range p.Rungs {
		rw := ladderRungWire{Name: r.Name()}
		if s, ok := r.(interface{ SnapshotState() ([]byte, error) }); ok {
			b, err := s.SnapshotState()
			if err != nil {
				return nil, fmt.Errorf("policy: snapshotting ladder rung %s: %w", r.Name(), err)
			}
			rw.HasState, rw.State = true, b
		}
		w.Rungs = append(w.Rungs, rw)
	}
	return gobEncode(w)
}

// RestoreState implements join.StateSnapshotter. The ladder must have been
// Reset with the same rung list that produced the snapshot.
func (p *Ladder) RestoreState(data []byte) error {
	var w ladderWire
	if err := gobDecode(data, &w); err != nil {
		return fmt.Errorf("policy: restoring ladder state: %w", err)
	}
	if len(w.Rungs) != len(p.Rungs) {
		return fmt.Errorf("policy: ladder snapshot has %d rungs, policy has %d", len(w.Rungs), len(p.Rungs))
	}
	for i, rw := range w.Rungs {
		if rw.Name != p.Rungs[i].Name() {
			return fmt.Errorf("policy: ladder rung %d is %s, snapshot has %s", i, p.Rungs[i].Name(), rw.Name)
		}
		if !rw.HasState {
			continue
		}
		s, ok := p.Rungs[i].(interface{ RestoreState([]byte) error })
		if !ok {
			return fmt.Errorf("policy: ladder rung %s cannot restore state", rw.Name)
		}
		if err := s.RestoreState(rw.State); err != nil {
			return err
		}
	}
	if len(w.Fallbacks) == len(p.fallbacks) {
		copy(p.fallbacks, w.Fallbacks)
	}
	p.lastRung = w.LastRung
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
