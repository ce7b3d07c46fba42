package shardrt

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"stochstream/internal/checkpoint"
	"stochstream/internal/engine"
)

// Sharded checkpoint/restore: one SSCP manifest envelope carrying the
// coordinator's state (ingress sequence, counters, lanes) plus every shard
// engine's own SSCP envelope, nested as opaque bytes. The shard envelopes are
// the engine's full fault-tolerance format — policy state, RNGs, cache
// payloads — so restore→replay is byte-identical to an uninterrupted sharded
// run (pinned by TestShardedCheckpointReplay).

func init() {
	// Checkpoints written before engine.Tuple carried the sequence number
	// hold Tagged payloads, in the shard envelopes' caches and the manifest's
	// lanes; decoding them needs the type registered.
	gob.Register(Tagged{})
}

// manifestVersion guards the gob schema inside the manifest envelope.
// Version 3 dropped the budget rebalancer: a shard keeps the budget New gave
// it, so the manifest carries no budgets and no rebalancer knobs or state.
// A version-2 manifest restores when its rebalancer never ran (manifestV2);
// version 1 predates the rebalancer's fingerprint and is refused.
const manifestVersion = 3

type manifestWire struct {
	Version int
	// Fingerprint: a manifest only restores into a runtime built with the
	// same partitioning configuration.
	Shards     int
	TotalCache int
	Window     int
	Seed       uint64
	// Coordinator state.
	Seq      uint64
	Ingested int
	Batches  int
	Merged   int
	Lanes    [][2][]engine.Tuple
	// Envelopes holds each shard engine's own SSCP checkpoint.
	Envelopes [][]byte
}

// manifestV2 is what a version-2 manifest carried beyond manifestWire: the
// rebalancer's knobs (floor and step normalized, 0 written as 1), the budgets
// it had moved to and its own state. Restore decodes the same payload into it
// a second time.
type manifestV2 struct {
	MinBudget, RebalanceEvery, RebalanceStep int
	Budgets                                  []int
	Moves                                    int
}

// fingerprint returns the partitioning identity a manifest is bound to.
func (rt *Runtime) fingerprint() (shards, totalCache, window int, seed uint64) {
	return rt.cfg.Shards, rt.cfg.TotalCache, rt.cfg.Window, rt.cfg.Seed
}

// Checkpoint writes the full sharded state. Call it between IngestBatch
// calls (the workers are quiescent then); the lanes are captured too, so a
// checkpoint does not require a Flush first.
func (rt *Runtime) Checkpoint(w io.Writer) error {
	if err := rt.refused(); err != nil {
		return err
	}
	shards, totalCache, window, seed := rt.fingerprint()
	wire := manifestWire{
		Version:    manifestVersion,
		Shards:     shards,
		TotalCache: totalCache,
		Window:     window,
		Seed:       seed,
		Seq:        rt.seq,
		Ingested:   rt.ingested,
		Batches:    rt.batches,
		Merged:     rt.merged,
		Lanes:      rt.lanes,
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
	for i := range wire.Lanes {
		untagLane(wire.Lanes[i][0])
		untagLane(wire.Lanes[i][1])
	}
	if err := rt.validateManifest(&wire, payload); err != nil {
		return err
	}
	for i, sh := range rt.shards {
		if err := sh.eng.Restore(bytes.NewReader(wire.Envelopes[i])); err != nil {
			return fmt.Errorf("shardrt: restore shard %d: %w", i, err)
		}
	}
	rt.seq = wire.Seq
	rt.ingested = wire.Ingested
	rt.batches = wire.Batches
	rt.merged = wire.Merged
	rt.lanes = wire.Lanes
	return nil
}

func (rt *Runtime) validateManifest(wire *manifestWire, payload []byte) error {
	if wire.Version != manifestVersion && wire.Version != 2 {
		return fmt.Errorf("shardrt: manifest version %d, want %d (or 2)", wire.Version, manifestVersion)
	}
	shards, totalCache, window, seed := rt.fingerprint()
	if wire.Shards != shards || wire.TotalCache != totalCache ||
		wire.Window != window || wire.Seed != seed {
		return fmt.Errorf("shardrt: manifest fingerprint (shards %d, cache %d, window %d, seed %d) does not match runtime (shards %d, cache %d, window %d, seed %d): %w",
			wire.Shards, wire.TotalCache, wire.Window, wire.Seed,
			shards, totalCache, window, seed, engine.ErrConfigMismatch)
	}
	if wire.Version == 2 {
		if err := rt.checkV2(payload); err != nil {
			return err
		}
	}
	if len(wire.Envelopes) != shards || len(wire.Lanes) != shards {
		return fmt.Errorf("shardrt: manifest shard-state lengths (%d envelopes, %d lanes) do not match %d shards",
			len(wire.Envelopes), len(wire.Lanes), shards)
	}
	if wire.Seq != uint64(2*wire.Ingested) {
		return fmt.Errorf("shardrt: manifest sequence %d inconsistent with %d ingested steps", wire.Seq, wire.Ingested)
	}
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
				case tu.Seq >= wire.Seq:
					return fmt.Errorf("shardrt: manifest shard %d lane %d tuple %d: sequence %d not below the next arrival's %d", i, side, k, tu.Seq, wire.Seq)
				case k > 0 && tu.Seq <= lane[k-1].Seq:
					return fmt.Errorf("shardrt: manifest shard %d lane %d tuple %d: sequence %d does not follow %d", i, side, k, tu.Seq, lane[k-1].Seq)
				}
			}
		}
	}
	return nil
}

// checkV2 admits a version-2 manifest only if its rebalancer never ran: the
// default knobs, no move, and every shard at the even split New gives it.
// Any other file describes budgets this runtime cannot have.
func (rt *Runtime) checkV2(payload []byte) error {
	var v2 manifestV2
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&v2); err != nil {
		return fmt.Errorf("shardrt: decode version-2 manifest: %w", err)
	}
	even := v2.MinBudget == 1 && v2.RebalanceEvery == 0 && v2.RebalanceStep == 1 &&
		v2.Moves == 0 && len(v2.Budgets) == len(rt.shards)
	for i := 0; even && i < len(rt.shards); i++ {
		even = v2.Budgets[i] == rt.shards[i].budget
	}
	if !even {
		return fmt.Errorf("shardrt: version-2 manifest whose rebalancer could have run (floor %d, every %d, step %d, %d moves, budgets %v): %w",
			v2.MinBudget, v2.RebalanceEvery, v2.RebalanceStep, v2.Moves, v2.Budgets, engine.ErrConfigMismatch)
	}
	return nil
}
