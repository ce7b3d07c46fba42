package shardrt

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"stochstream/internal/checkpoint"
	"stochstream/internal/engine"
	"stochstream/internal/process"
)

// Sharded checkpoint/restore: one SSCP manifest envelope carrying the
// coordinator's counters plus every shard engine's own SSCP envelope, nested
// as opaque bytes. The shard envelopes are the engine's full fault-tolerance
// format — policy state, RNGs, cache payloads, the clock — so restore→replay
// is byte-identical to an uninterrupted sharded run (pinned by
// TestShardedCheckpointReplay).

// manifestVersion guards the gob schema inside the manifest envelope.
// Version 4 dropped the lanes: a dispatch steps every arrival it routes, so
// nothing waits between dispatches. Version 3 dropped the budget rebalancer:
// a shard keeps the budget New gave it, so the manifest carries no budgets and
// no rebalancer knobs or state. A binary restores its own version and the
// previous one: version 3 restores, its carried tails stepped once,
// one-sidedly (restoreTails); every other version is refused.
const manifestVersion = 4

type manifestWire struct {
	Version int
	// Fingerprint: a manifest only restores into a runtime built with the
	// same partitioning configuration.
	Shards     int
	TotalCache int
	Window     int
	Seed       uint64
	// Coordinator state. The next arrival's sequence number is 2·Ingested;
	// version 3 also wrote it as Seq, which Restore does not read.
	Ingested int
	Batches  int
	Merged   int
	// Lanes is what version 3 carried: per shard, the R and S arrivals routed
	// there and not yet stepped. Version 4 writes none (gob omits a nil
	// slice).
	Lanes [][2][]engine.Tuple
	// Envelopes holds each shard engine's own SSCP checkpoint.
	Envelopes [][]byte
}

// fingerprint returns the partitioning identity a manifest is bound to.
func (rt *Runtime) fingerprint() (shards, totalCache, window int, seed uint64) {
	return rt.cfg.Shards, rt.cfg.TotalCache, rt.cfg.Window, rt.cfg.Seed
}

// Checkpoint writes the full sharded state. Call it between IngestBatch
// calls (every shard is quiescent then). It refuses while a restored
// version-3 manifest's carried tails wait for the next dispatch: a version-4
// manifest has no place for them.
func (rt *Runtime) Checkpoint(w io.Writer) error {
	if err := rt.refused(); err != nil {
		return err
	}
	for _, sh := range rt.shards {
		if len(sh.batch) > 0 {
			return fmt.Errorf("shardrt: checkpoint: shard %d holds %d carried steps of a restored manifest; ingest or flush first", sh.id, len(sh.batch))
		}
	}
	shards, totalCache, window, seed := rt.fingerprint()
	wire := manifestWire{
		Version:    manifestVersion,
		Shards:     shards,
		TotalCache: totalCache,
		Window:     window,
		Seed:       seed,
		Ingested:   rt.ingested,
		Batches:    rt.batches,
		Merged:     rt.merged,
		Envelopes:  make([][]byte, len(rt.shards)),
	}
	for i, sh := range rt.shards {
		var buf bytes.Buffer
		if err := sh.eng.Checkpoint(&buf); err != nil {
			return fmt.Errorf("shardrt: checkpoint shard %d: %w", i, err)
		}
		wire.Envelopes[i] = buf.Bytes()
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&wire); err != nil {
		return fmt.Errorf("shardrt: encode manifest: %w", err)
	}
	return checkpoint.Write(w, payload.Bytes())
}

// Restore loads a manifest into a freshly built runtime with the same
// configuration (shards, total cache, window, seed, policy construction).
// The manifest is validated before any shard is touched; a failure while
// restoring the shard engines leaves the runtime partially restored, so
// discard it on error.
func (rt *Runtime) Restore(r io.Reader) error {
	if err := rt.refused(); err != nil {
		return err
	}
	payload, err := checkpoint.Read(r)
	if err != nil {
		return fmt.Errorf("shardrt: read manifest: %w", err)
	}
	var wire manifestWire
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&wire); err != nil {
		return fmt.Errorf("shardrt: decode manifest: %w", err)
	}
	if err := rt.validateManifest(&wire); err != nil {
		return err
	}
	for i, sh := range rt.shards {
		if err := sh.eng.Restore(bytes.NewReader(wire.Envelopes[i])); err != nil {
			return fmt.Errorf("shardrt: restore shard %d: %w", i, err)
		}
		sh.clock = sh.eng.Time()
		sh.batch = slices.Delete(sh.batch, 0, len(sh.batch))
		if sh.clock > wire.Ingested {
			return fmt.Errorf("shardrt: restore shard %d: its clock %d is past the %d steps ingested", i, sh.clock, wire.Ingested)
		}
	}
	rt.ingested = wire.Ingested
	rt.batches = wire.Batches
	rt.merged = wire.Merged
	return rt.restoreTails(wire.Lanes)
}

// restoreTails routes a version-3 manifest's carried tails: every tuple
// becomes a one-sided step of its shard at its own global step (Seq/2), in
// sequence order, for the next dispatch to step. The other stream's key at
// that step was never recorded; the step gives it as NoValue.
func (rt *Runtime) restoreTails(lanes [][2][]engine.Tuple) error {
	for i, tails := range lanes {
		sh := rt.shards[i]
		carried := slices.Concat(tails[0], tails[1])
		slices.SortFunc(carried, func(a, b engine.Tuple) int { return cmp.Compare(a.Seq, b.Seq) })
		for _, tu := range carried {
			if g := int(tu.Seq / 2); g < sh.clock {
				return fmt.Errorf("shardrt: restore shard %d: carried arrival of step %d precedes the shard's clock %d", i, g, sh.clock)
			}
			tp := sh.at(int(tu.Seq / 2))
			tp.R.Key, tp.S.Key = process.NoValue, process.NoValue
			if tu.Seq%2 == 0 {
				tp.R, tp.Arrivals = tu, engine.OnlyR
			} else {
				tp.S, tp.Arrivals = tu, engine.OnlyS
			}
		}
	}
	return nil
}

func (rt *Runtime) validateManifest(wire *manifestWire) error {
	if wire.Version != manifestVersion && wire.Version != manifestVersion-1 {
		return fmt.Errorf("shardrt: manifest version %d, want %d (or %d)", wire.Version, manifestVersion, manifestVersion-1)
	}
	shards, totalCache, window, seed := rt.fingerprint()
	if wire.Shards != shards || wire.TotalCache != totalCache ||
		wire.Window != window || wire.Seed != seed {
		return fmt.Errorf("shardrt: manifest fingerprint (shards %d, cache %d, window %d, seed %d) does not match runtime (shards %d, cache %d, window %d, seed %d): %w",
			wire.Shards, wire.TotalCache, wire.Window, wire.Seed,
			shards, totalCache, window, seed, engine.ErrConfigMismatch)
	}
	lanes := shards
	if wire.Version == manifestVersion {
		lanes = 0
	}
	if len(wire.Envelopes) != shards || len(wire.Lanes) != lanes {
		return fmt.Errorf("shardrt: manifest version %d shard-state lengths (%d envelopes, %d lanes) do not match %d shards",
			wire.Version, len(wire.Envelopes), len(wire.Lanes), shards)
	}
	if wire.Ingested < 0 {
		return fmt.Errorf("shardrt: manifest counts %d ingested steps", wire.Ingested)
	}
	next := 2 * uint64(wire.Ingested)
	// A carried tuple is an arrival routed but not yet stepped: a key in the
	// domain that routes to this shard, the tag its side was numbered with
	// (2·step for R, 2·step+1 for S), below every future arrival's, and in
	// ingress order along the lane.
	for i, lanes := range wire.Lanes {
		for side, lane := range lanes {
			for k, tu := range lane {
				switch {
				case tu.Key < engine.MinKey || tu.Key > engine.MaxKey:
					return fmt.Errorf("shardrt: manifest shard %d lane %d tuple %d: key %d outside [%d, %d]", i, side, k, tu.Key, engine.MinKey, engine.MaxKey)
				case ShardOf(tu.Key, shards) != i:
					return fmt.Errorf("shardrt: manifest shard %d lane %d tuple %d: key %d routes to shard %d", i, side, k, tu.Key, ShardOf(tu.Key, shards))
				case tu.Seq%2 != uint64(side):
					return fmt.Errorf("shardrt: manifest shard %d lane %d tuple %d: sequence %d is not the other side's", i, side, k, tu.Seq)
				case tu.Seq >= next:
					return fmt.Errorf("shardrt: manifest shard %d lane %d tuple %d: sequence %d not below the next arrival's %d", i, side, k, tu.Seq, next)
				case k > 0 && tu.Seq <= lane[k-1].Seq:
					return fmt.Errorf("shardrt: manifest shard %d lane %d tuple %d: sequence %d does not follow %d", i, side, k, tu.Seq, lane[k-1].Seq)
				}
			}
		}
	}
	return nil
}
