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
// coordinator's counters plus every shard engine's own SSCP envelope, nested
// as opaque bytes. The shard envelopes are the engine's full fault-tolerance
// format — policy state, RNGs, cache payloads, the clock — so restore→replay
// is byte-identical to an uninterrupted sharded run (pinned by
// TestShardedCheckpointReplay).

// manifestVersion guards the gob schema inside the manifest envelope.
// Version 5 nests shard envelopes without history counts (the engine's
// format moved). Version 4 dropped the lanes: a dispatch steps every arrival
// it routes, so nothing waits between dispatches. A binary restores its own
// version and the previous one; every other version is refused.
const manifestVersion = 5

type manifestWire struct {
	Version int
	// Fingerprint: a manifest only restores into a runtime built with the
	// same partitioning configuration.
	Shards     int
	TotalCache int
	Window     int
	Seed       uint64
	// Coordinator state. The next arrival's sequence number is 2·Ingested.
	Ingested int
	Batches  int
	Merged   int
	// Envelopes holds each shard engine's own SSCP checkpoint.
	Envelopes [][]byte
}

// fingerprint returns the partitioning identity a manifest is bound to.
func (rt *Runtime) fingerprint() (shards, totalCache, window int, seed uint64) {
	return rt.cfg.Shards, rt.cfg.TotalCache, rt.cfg.Window, rt.cfg.Seed
}

// Checkpoint writes the full sharded state. Call it between IngestBatch
// calls (every shard is quiescent then).
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
		if sh.clock > wire.Ingested {
			return fmt.Errorf("shardrt: restore shard %d: its clock %d is past the %d steps ingested", i, sh.clock, wire.Ingested)
		}
		if err := rt.checkRouting(sh); err != nil {
			return fmt.Errorf("shardrt: restore %w", err)
		}
	}
	rt.ingested = wire.Ingested
	rt.batches = wire.Batches
	rt.merged = wire.Merged
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
	if len(wire.Envelopes) != shards {
		return fmt.Errorf("shardrt: manifest carries %d shard envelopes for %d shards", len(wire.Envelopes), shards)
	}
	if wire.Ingested < 0 {
		return fmt.Errorf("shardrt: manifest counts %d ingested steps", wire.Ingested)
	}
	return nil
}
