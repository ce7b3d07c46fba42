package flightrec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"stochstream/internal/checkpoint"
)

// Diagnostics bundles: on a fault (ErrInvariant, recovered panic) or an
// explicit signal, the engine dumps everything the flight
// recorder knows — plus operator state and telemetry snapshots supplied by
// the caller — into one versioned directory:
//
//	manifest.json    version, reason, step, file inventory (written last,
//	                 so a manifest's presence marks a complete bundle)
//	spans.json       the retained span ring, oldest first
//	trace.json       the same spans as Chrome trace_event JSON (Perfetto)
//	lifecycle.json   per-key lifecycle records for the sampled subset
//	telemetry.json   telemetry registry snapshot        (if source given)
//	checkpoint.sscp  operator checkpoint, SSCP envelope (if source given)
//
// Older version-1 bundles may also carry downgrades.json; the loader reads
// only the files above.
//
// Directory names are deterministic — bundle-<seq>-step<step>-<reason> —
// so identical seeded runs produce identical bundle paths.

// BundleVersion is the bundle format version recorded in every manifest.
const BundleVersion = 1

// Bundle write errors.
var (
	// ErrNoBundleDir means the recorder was built without Options.BundleDir.
	ErrNoBundleDir = errors.New("flightrec: no bundle directory configured")
	// ErrBundleLimit means the recorder has already written its 16
	// bundles; the fault is likely flapping and further dumps would only
	// fill the disk.
	ErrBundleLimit = errors.New("flightrec: bundle limit reached")
)

// BundleInfo describes why a bundle is being written.
type BundleInfo struct {
	// Reason is a short taxonomy word: "invariant", "panic", "signal". It
	// becomes part of the directory name.
	Reason string
	// Step is the operator step at which the fault surfaced.
	Step int
}

// BundleSources are caller-supplied writers for the parts of a bundle the
// recorder cannot see itself. Any nil source is skipped.
type BundleSources struct {
	// Checkpoint serializes the operator state (engine.Join.Checkpoint).
	// It runs outside the recorder lock, so the spans it records while
	// serializing are safe — they land in the ring after the snapshot this
	// bundle captures.
	Checkpoint func(io.Writer) error
	// Telemetry writes the registry snapshot (telemetry.Registry.WriteJSON).
	Telemetry func(io.Writer) error
}

// Manifest is the bundle's self-description, written last.
type Manifest struct {
	Version int    `json:"version"`
	Reason  string `json:"reason"`
	Step    int    `json:"step"`
	// Spans is the number of spans in spans.json; SpansTotal counts every
	// span ever recorded, so SpansTotal - Spans is how many the ring lost.
	Spans       int      `json:"spans"`
	SpansTotal  uint64   `json:"spans_total"`
	TrackedKeys int      `json:"tracked_keys"`
	Files       []string `json:"files"`
	// CheckpointError records a checkpoint source failure; the bundle is
	// still written (the spans are exactly what a failing serialize needs)
	// but checkpoint.sscp is absent.
	CheckpointError string `json:"checkpoint_error,omitempty"`
}

// Bundle is a loaded diagnostics bundle.
type Bundle struct {
	Dir       string
	Manifest  Manifest
	Spans     []Span
	Lifecycle []KeyLifecycle
	// Checkpoint is the raw checkpoint.sscp bytes (envelope included),
	// validated against the SSCP codec; pass them to engine.Join.Restore.
	// Nil when the bundle has no checkpoint.
	Checkpoint []byte
}

// WriteBundle dumps a diagnostics bundle and returns its directory. The span
// ring and lifecycle store are snapshotted atomically under the recorder
// lock; sources then run unlocked, so a Checkpoint source that records spans
// of its own does not deadlock.
func (r *Recorder) WriteBundle(info BundleInfo, src BundleSources) (string, error) {
	r.mu.Lock()
	if r.bundleDir == "" {
		r.mu.Unlock()
		return "", ErrNoBundleDir
	}
	if r.bundlesWritten >= maxBundles {
		r.mu.Unlock()
		return "", fmt.Errorf("%w (%d written)", ErrBundleLimit, r.bundlesWritten)
	}
	seq := r.bundlesWritten
	r.bundlesWritten++
	spans := r.spansLocked()
	life := r.lifecycleLocked()
	total := r.total
	root := r.bundleDir
	r.mu.Unlock()

	dir := filepath.Join(root, fmt.Sprintf("bundle-%04d-step%08d-%s", seq, info.Step, sanitizeReason(info.Reason)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("flightrec: creating bundle dir: %w", err)
	}

	man := Manifest{
		Version:     BundleVersion,
		Reason:      info.Reason,
		Step:        info.Step,
		Spans:       len(spans),
		SpansTotal:  total,
		TrackedKeys: len(life),
	}

	if err := writeJSONFile(dir, "spans.json", spans, &man); err != nil {
		return "", err
	}
	if err := writeFile(dir, "trace.json", &man, func(w io.Writer) error {
		return WriteChromeTrace(w, spans)
	}); err != nil {
		return "", err
	}
	if err := writeJSONFile(dir, "lifecycle.json", life, &man); err != nil {
		return "", err
	}
	if src.Telemetry != nil {
		if err := writeFile(dir, "telemetry.json", &man, src.Telemetry); err != nil {
			return "", err
		}
	}
	if src.Checkpoint != nil {
		if err := writeFile(dir, "checkpoint.sscp", &man, src.Checkpoint); err != nil {
			// A failing checkpoint must not lose the rest of the bundle —
			// the spans are the evidence for diagnosing that very failure.
			man.CheckpointError = err.Error()
			_ = os.Remove(filepath.Join(dir, "checkpoint.sscp"))
		}
	}

	mb, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return "", fmt.Errorf("flightrec: encoding manifest: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), append(mb, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("flightrec: writing manifest: %w", err)
	}
	return dir, nil
}

// LoadBundle reads a bundle directory back, validating the manifest version
// and — when a checkpoint is present — its SSCP envelope (magic, version,
// CRC32), so a corrupt bundle is rejected before anyone tries to restore it.
func LoadBundle(dir string) (*Bundle, error) {
	mb, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("flightrec: reading manifest: %w", err)
	}
	b := &Bundle{Dir: dir}
	if err := json.Unmarshal(mb, &b.Manifest); err != nil {
		return nil, fmt.Errorf("flightrec: decoding manifest: %w", err)
	}
	if b.Manifest.Version <= 0 || b.Manifest.Version > BundleVersion {
		return nil, fmt.Errorf("flightrec: bundle version %d, loader supports <= %d", b.Manifest.Version, BundleVersion)
	}
	sb, err := os.ReadFile(filepath.Join(dir, "spans.json"))
	if err != nil {
		return nil, fmt.Errorf("flightrec: reading spans: %w", err)
	}
	if err := json.Unmarshal(sb, &b.Spans); err != nil {
		return nil, fmt.Errorf("flightrec: decoding spans: %w", err)
	}
	lb, err := os.ReadFile(filepath.Join(dir, "lifecycle.json"))
	if err != nil {
		return nil, fmt.Errorf("flightrec: reading lifecycle: %w", err)
	}
	if err := json.Unmarshal(lb, &b.Lifecycle); err != nil {
		return nil, fmt.Errorf("flightrec: decoding lifecycle: %w", err)
	}
	ckPath := filepath.Join(dir, "checkpoint.sscp")
	if cb, err := os.ReadFile(ckPath); err == nil {
		if _, err := checkpoint.Read(bytes.NewReader(cb)); err != nil {
			return nil, fmt.Errorf("flightrec: bundle checkpoint invalid: %w", err)
		}
		b.Checkpoint = cb
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("flightrec: reading checkpoint: %w", err)
	}
	return b, nil
}

func writeJSONFile(dir, name string, v any, man *Manifest) error {
	return writeFile(dir, name, man, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

func writeFile(dir, name string, man *Manifest, fn func(io.Writer) error) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("flightrec: creating %s: %w", name, err)
	}
	werr := fn(f)
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("flightrec: writing %s: %w", name, werr)
	}
	if cerr != nil {
		return fmt.Errorf("flightrec: closing %s: %w", name, cerr)
	}
	man.Files = append(man.Files, name)
	return nil
}

// sanitizeReason maps a reason to directory-name-safe characters.
func sanitizeReason(reason string) string {
	if reason == "" {
		return "signal"
	}
	out := make([]byte, 0, len(reason))
	for i := 0; i < len(reason); i++ {
		c := reason[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-':
			out = append(out, c)
		case c >= 'A' && c <= 'Z':
			out = append(out, c+'a'-'A')
		default:
			out = append(out, '-')
		}
	}
	return string(out)
}
