package shardrt

import (
	"bytes"
	"os"
	"testing"

	"stochstream/internal/checkpoint"
)

// FuzzManifestRestore offers hostile bytes to Restore: the input as a file,
// and its payload (what lies between the 16-byte header and the 4-byte
// checksum) in an envelope with the checksum recomputed, as a hand-edited
// file would be, so that mutations reach the decoder, validateManifest and
// the shard envelopes. Restore never panics. A refused manifest may leave
// the runtime partially restored (Restore's contract: discard it), so only a
// restore that succeeds is checked further: the runtime passes
// CheckInvariants, and its checkpoint restores into a fresh runtime that
// writes the same bytes back.
//
// The seeds are the version-4 upgrade fixture, a fresh checkpoint of the
// fixture's run a thousand steps in, and that checkpoint with one of shard
// 0's entries re-keyed to another shard's key (misroutedManifest).
func FuzzManifestRestore(f *testing.F) {
	raw, err := os.ReadFile(shardedFixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	var own bytes.Buffer
	if err := busyRuntime(f).Checkpoint(&own); err != nil {
		f.Fatal(err)
	}
	f.Add(own.Bytes())
	misrouted, _ := misroutedManifest(f)
	f.Add(misrouted)
	f.Fuzz(func(t *testing.T, data []byte) {
		files := [][]byte{data}
		if len(data) >= 20 {
			var file bytes.Buffer
			if err := checkpoint.Write(&file, data[16:len(data)-4]); err != nil {
				t.Fatal(err)
			}
			files = append(files, file.Bytes())
		}
		for _, file := range files {
			if first := restored(t, file); first != nil {
				if second := restored(t, first); !bytes.Equal(first, second) {
					t.Fatal("a restored manifest's checkpoint, restored into a fresh runtime, checkpoints to other bytes")
				}
			}
		}
	})
}

// restored restores file into a fresh runtime of the fixture's configuration
// and returns the runtime's checkpoint, or nil when the restore is refused.
func restored(t *testing.T, file []byte) []byte {
	t.Helper()
	rt, err := New(upgradeConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	if rt.Restore(bytes.NewReader(file)) != nil {
		return nil
	}
	if err := rt.CheckInvariants(); err != nil {
		t.Fatalf("a restored manifest fails its invariants: %v", err)
	}
	var out bytes.Buffer
	if err := rt.Checkpoint(&out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}
