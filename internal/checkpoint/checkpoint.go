// Package checkpoint defines the on-disk envelope for operator checkpoints:
// a fixed magic, a format version, the payload length, the payload, and an
// IEEE CRC32 of the payload. The envelope carries no knowledge of what the
// payload means — the engine serializes its state into opaque bytes and this
// package makes them self-identifying and corruption-evident, so a restore
// can reject bad input with a typed error before touching any operator state.
//
// Layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "SSCP" (stochstream checkpoint)
//	4       4     format version (currently 1)
//	8       8     payload length n
//	16      n     payload
//	16+n    4     IEEE CRC32 of payload
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic identifies a stochstream checkpoint stream.
const Magic = "SSCP"

// Version is the current envelope format version. Readers reject anything
// newer. A binary restores its own format and the previous one, and refuses
// anything older (there is only version 1 so far); the same rule holds for
// every state file inside the envelope (docs/fault-tolerance.md, "Formats:
// one format back").
const Version uint32 = 1

// MaxPayload bounds the declared payload length so a corrupted header cannot
// drive an allocation of arbitrary size.
const MaxPayload = 1 << 30

// Typed envelope errors. Restore paths test these with errors.Is to decide
// whether a failure is an envelope problem (bad input, state untouched) or a
// payload problem.
var (
	// ErrBadMagic means the stream does not start with the checkpoint magic —
	// it is not a checkpoint at all.
	ErrBadMagic = errors.New("checkpoint: bad magic")
	// ErrUnsupportedVersion means the envelope was written by a newer format
	// version than this reader understands.
	ErrUnsupportedVersion = errors.New("checkpoint: unsupported format version")
	// ErrChecksum means the payload bytes do not match the recorded CRC32.
	ErrChecksum = errors.New("checkpoint: payload checksum mismatch")
	// ErrTruncated means the stream ended before the declared payload and
	// checksum were read.
	ErrTruncated = errors.New("checkpoint: truncated stream")
)

// Write wraps payload in an envelope and writes it to w.
func Write(w io.Writer, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("checkpoint: payload of %d bytes exceeds limit %d", len(payload), MaxPayload)
	}
	var hdr [16]byte
	copy(hdr[:4], Magic)
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("checkpoint: writing header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("checkpoint: writing payload: %w", err)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("checkpoint: writing checksum: %w", err)
	}
	return nil
}

// Read reads one envelope from r, verifies magic, version and checksum, and
// returns the payload. All failures are typed: ErrBadMagic,
// ErrUnsupportedVersion, ErrChecksum or ErrTruncated (wrapped with detail).
func Read(r io.Reader) ([]byte, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrTruncated, err)
	}
	if string(hdr[:4]) != Magic {
		return nil, fmt.Errorf("%w: got %q", ErrBadMagic, hdr[:4])
	}
	v := binary.LittleEndian.Uint32(hdr[4:8])
	if v == 0 || v > Version {
		return nil, fmt.Errorf("%w: version %d, reader supports <= %d", ErrUnsupportedVersion, v, Version)
	}
	n := binary.LittleEndian.Uint64(hdr[8:16])
	if n > MaxPayload {
		return nil, fmt.Errorf("%w: declared payload of %d bytes exceeds limit %d", ErrChecksum, n, MaxPayload)
	}
	// The payload grows as it is read, so a header that declares more than
	// the stream holds costs what the stream holds, not what it declares.
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err == nil && uint64(len(payload)) < n {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("%w: reading %d-byte payload: %v", ErrTruncated, n, err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, fmt.Errorf("%w: reading checksum: %v", ErrTruncated, err)
	}
	want := binary.LittleEndian.Uint32(sum[:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: crc32 %08x, envelope records %08x", ErrChecksum, got, want)
	}
	return payload, nil
}
