package wire

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"
)

// Native fuzzers for the two decoders a peer's bytes reach first. Property,
// for any input: a typed ErrBadFrame, or a value whose re-encoding is the
// input byte for byte (so nil and empty payloads, flag bytes and counts have
// one encoding each); never a panic; and never more than allocPerByte bytes
// allocated per input byte plus a constant — the bound
// TestDecodeRejectsHostileCounts pins for hand-made inputs, held everywhere.
// The seed corpus under testdata/fuzz is the round-trip, truncation and
// hostile-count inputs of wire_test.go.
const (
	allocPerByte = 6 // a minimal step (24 B) decodes to a 64-byte Step, a minimal pair (43 B) to an 88-byte Pair, plus size-class rounding
	allocSlack   = 4096
)

// allocatedBy is the least TotalAlloc delta of a few runs of fn: the counter
// is process-wide and the fuzz worker's own goroutines allocate beside it.
// Runs stop as soon as one fits the bound.
func allocatedBy(bound uint64, fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for try := 0; try < 5 && least > bound; try++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		fn()
		runtime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	return least
}

func fuzzDecoder(f *testing.F, decodeEncode func(b []byte) (reencoded []byte, err error)) {
	f.Fuzz(func(t *testing.T, b []byte) {
		re, err := decodeEncode(b)
		switch {
		case err != nil && !errors.Is(err, ErrBadFrame):
			t.Fatalf("untyped error %v", err)
		case err == nil && !bytes.Equal(re, b):
			t.Fatalf("decoded value re-encodes to other bytes:\n in  %x\n out %x", b, re)
		}
		bound := uint64(allocPerByte*len(b) + allocSlack)
		if got := allocatedBy(bound, func() { _, _ = decodeEncode(b) }); got > bound {
			t.Fatalf("decoding and re-encoding %d bytes allocated %d, want <= %d", len(b), got, bound)
		}
	})
}

func FuzzDecodeResults(f *testing.F) {
	fuzzDecoder(f, func(b []byte) ([]byte, error) {
		res, err := DecodeResults(b)
		if err != nil {
			return nil, err
		}
		return EncodeResults(res), nil
	})
}

func FuzzDecodeIngest(f *testing.F) {
	fuzzDecoder(f, func(b []byte) ([]byte, error) {
		in, err := DecodeIngest(b)
		if err != nil {
			return nil, err
		}
		return EncodeIngest(in), nil
	})
}
