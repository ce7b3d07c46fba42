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
// coordinator's state (ingress sequence, lanes, budgets, rebalancer state)
// plus every shard engine's own SSCP envelope, nested as opaque bytes. The
// shard envelopes are the engine's full fault-tolerance format — policy
// state, RNGs, cache payloads — so restore→replay is byte-identical to an
// uninterrupted sharded run (pinned by TestShardedCheckpointReplay).

func init() {
	// Checkpoints written before engine.Tuple carried the sequence number
	// hold Tagged payloads, in the shard envelopes' caches and the manifest's
	// lanes; decoding them needs the type registered.
	gob.Register(Tagged{})
}

// manifestVersion guards the gob schema inside the manifest envelope.
// Version 2 added the rebalancer knobs (MinBudget, RebalanceEvery,
// RebalanceStep) to the fingerprint; version-1 manifests predate them and
// are rejected rather than restored with unchecked rebalancer state.
const manifestVersion = 2

type manifestWire struct {
	Version int
	// Fingerprint: a manifest only restores into a runtime built with the
	// same partitioning configuration. The rebalancer knobs are part of it
	// because they decide how budgets move after restore: replaying under a
	// different cadence or step diverges from the uninterrupted run.
	Shards         int
	TotalCache     int
	Window         int
	Seed           uint64
	MinBudget      int
	RebalanceEvery int
	RebalanceStep  int
	// Coordinator state.
	Seq      uint64
	Ingested int
	Batches  int
	Merged   int
	Lanes    [][2][]engine.Tuple
	// Budgets is each shard's current budget (post-rebalancing); LastPairs
	// and Moves are the rebalancer's state.
	Budgets   []int
	LastPairs []int
	Moves     int
	// Envelopes holds each shard engine's own SSCP checkpoint.
	Envelopes [][]byte
}

// fingerprint returns the partitioning identity a manifest is bound to.
// MinBudget and RebalanceStep are normalized (0 means 1, matching the
// rebalancer) so a zero-valued and an explicit-1 config fingerprint
// identically.
func (rt *Runtime) fingerprint() (shards, totalCache, window int, seed uint64, minBudget, rebalanceEvery, rebalanceStep int) {
	minBudget = rt.cfg.MinBudget
	if minBudget == 0 {
		minBudget = 1
	}
	rebalanceStep = rt.cfg.RebalanceStep
	if rebalanceStep == 0 {
		rebalanceStep = 1
	}
	return rt.cfg.Shards, rt.cfg.TotalCache, rt.cfg.Window, rt.cfg.Seed, minBudget, rt.cfg.RebalanceEvery, rebalanceStep
}

// Checkpoint writes the full sharded state. Call it between IngestBatch
// calls (the workers are quiescent then); the lanes are captured too, so a
// checkpoint does not require a Flush first.
func (rt *Runtime) Checkpoint(w io.Writer) error {
	if err := rt.refused(); err != nil {
		return err
	}
	shards, totalCache, window, seed, minBudget, rebEvery, rebStep := rt.fingerprint()
	wire := manifestWire{
		Version:        manifestVersion,
		Shards:         shards,
		TotalCache:     totalCache,
		Window:         window,
		Seed:           seed,
		MinBudget:      minBudget,
		RebalanceEvery: rebEvery,
		RebalanceStep:  rebStep,
		Seq:            rt.seq,
		Ingested:       rt.ingested,
		Batches:        rt.batches,
		Merged:         rt.merged,
		Lanes:          rt.lanes,
		Budgets:        make([]int, len(rt.shards)),
		LastPairs:      append([]int(nil), rt.reb.lastPairs...),
		Moves:          rt.reb.moves,
		Envelopes:      make([][]byte, len(rt.shards)),
	}
	for i, sh := range rt.shards {
		wire.Budgets[i] = sh.budget
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
// discard it on error. Budgets are re-applied via Resize before each shard
// restore, so a post-rebalance checkpoint restores into the even-split
// engines a fresh runtime starts with.
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
		if err := sh.eng.Resize(wire.Budgets[i]); err != nil {
			return fmt.Errorf("shardrt: restore shard %d: %w", i, err)
		}
		if err := sh.eng.Restore(bytes.NewReader(wire.Envelopes[i])); err != nil {
			return fmt.Errorf("shardrt: restore shard %d: %w", i, err)
		}
		sh.budget = wire.Budgets[i]
		if sh.budgetGauge != nil {
			sh.budgetGauge.Set(float64(sh.budget))
		}
	}
	rt.seq = wire.Seq
	rt.ingested = wire.Ingested
	rt.batches = wire.Batches
	rt.merged = wire.Merged
	rt.lanes = wire.Lanes
	for i := range rt.lanes {
		untagLane(rt.lanes[i][0])
		untagLane(rt.lanes[i][1])
	}
	copy(rt.reb.lastPairs, wire.LastPairs)
	rt.reb.moves = wire.Moves
	return nil
}

func (rt *Runtime) validateManifest(wire *manifestWire) error {
	if wire.Version != manifestVersion {
		return fmt.Errorf("shardrt: manifest version %d, want %d", wire.Version, manifestVersion)
	}
	shards, totalCache, window, seed, minBudget, rebEvery, rebStep := rt.fingerprint()
	if wire.Shards != shards || wire.TotalCache != totalCache ||
		wire.Window != window || wire.Seed != seed {
		return fmt.Errorf("shardrt: manifest fingerprint (shards %d, cache %d, window %d, seed %d) does not match runtime (shards %d, cache %d, window %d, seed %d): %w",
			wire.Shards, wire.TotalCache, wire.Window, wire.Seed,
			shards, totalCache, window, seed, engine.ErrConfigMismatch)
	}
	if wire.MinBudget != minBudget || wire.RebalanceEvery != rebEvery || wire.RebalanceStep != rebStep {
		return fmt.Errorf("shardrt: manifest rebalancer config (floor %d, every %d, step %d) does not match runtime (floor %d, every %d, step %d): %w",
			wire.MinBudget, wire.RebalanceEvery, wire.RebalanceStep,
			minBudget, rebEvery, rebStep, engine.ErrConfigMismatch)
	}
	if len(wire.Budgets) != rt.cfg.Shards || len(wire.Envelopes) != rt.cfg.Shards ||
		len(wire.Lanes) != rt.cfg.Shards || len(wire.LastPairs) != rt.cfg.Shards {
		return fmt.Errorf("shardrt: manifest shard-state lengths (%d budgets, %d envelopes, %d lanes, %d rebalance entries) do not match %d shards",
			len(wire.Budgets), len(wire.Envelopes), len(wire.Lanes), len(wire.LastPairs), rt.cfg.Shards)
	}
	total := 0
	for i, b := range wire.Budgets {
		if b < minBudget {
			return fmt.Errorf("shardrt: manifest budget %d for shard %d below floor %d", b, i, minBudget)
		}
		total += b
	}
	if total != rt.cfg.TotalCache {
		return fmt.Errorf("shardrt: manifest budgets sum to %d, want %d", total, rt.cfg.TotalCache)
	}
	if wire.Seq != uint64(2*wire.Ingested) {
		return fmt.Errorf("shardrt: manifest sequence %d inconsistent with %d ingested steps", wire.Seq, wire.Ingested)
	}
	return nil
}
