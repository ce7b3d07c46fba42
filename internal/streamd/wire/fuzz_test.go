package wire

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// Native fuzzers for the two decoders a peer's bytes reach first. For any
// input: a typed ErrBadFrame or a value that satisfies the decoder's
// property (below, with each fuzzer); never a panic; and never more than a
// per-byte bound allocated per input byte plus a constant, decoding and
// re-encoding together — the bound TestDecodeRejectsHostileCounts pins for
// hand-made inputs, held everywhere. The seed corpus under testdata/fuzz is
// the round-trip, reference, truncation and hostile-count inputs of
// wire_test.go.
const (
	// A minimal step (24 B) decodes to a 64-byte Step, plus size-class
	// rounding.
	allocPerByte = 6
	// A minimal pair (11 B: two references) decodes to an 88-byte Pair — 8 a
	// byte, 9 with size-class rounding — and the payload copies are at most
	// one a byte. The re-encoding is at most the input's length, in a buffer
	// append grew: ≤ 5 with the buffers it grew through. The encoder's table
	// keeps, for each tuple written inline, ≤ 4 cells of 16 B and room for 2
	// carried tuples of 40 B, doubled by the tables it grew through: 288 B,
	// against the ≥ 25.5 B an inline tuple takes (half a pair of two): 11.3.
	// An all-inline frame reads 1.9 + 5 + 11.3 = 18.2 at worst, 16.4
	// measured; an all-reference one 9 + 5; the bound leaves a margin.
	resultsAllocPerByte = 20
	allocSlack          = 4096
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

// fuzzDecoder holds a decoder to its contract: decodeEncode decodes the
// input and re-encodes what it accepts, an error must be ErrBadFrame, an
// accepted input must pass accepted, and the two together allocate at most
// perByte bytes an input byte plus allocSlack.
func fuzzDecoder(f *testing.F, perByte int, decodeEncode func(b []byte) ([]byte, error), accepted func(t *testing.T, in, re []byte)) {
	f.Fuzz(func(t *testing.T, b []byte) {
		re, err := decodeEncode(b)
		switch {
		case err != nil && !errors.Is(err, ErrBadFrame):
			t.Fatalf("untyped error %v", err)
		case err == nil:
			accepted(t, b, re)
		}
		bound := uint64(perByte*len(b) + allocSlack)
		if got := allocatedBy(bound, func() { _, _ = decodeEncode(b) }); got > bound {
			t.Fatalf("decoding and re-encoding %d bytes allocated %d, want <= %d", len(b), got, bound)
		}
	})
}

// FuzzDecodeResults: an accepted frame decodes to pairs P with
// decode(encode(P)) = P, and encode(P) is a fixed point:
// encode(decode(encode(P))) = encode(P). The input itself need not come
// back. A frame may carry one tuple inline twice, or refer to a pair that
// refers on, and decode correctly, where the encoder writes a reference to
// the pair that first carries the tuple. Every frame the encoder wrote does
// come back byte for byte: it is encode(P) of its own P.
func FuzzDecodeResults(f *testing.F) {
	fuzzDecoder(f, resultsAllocPerByte, func(b []byte) ([]byte, error) {
		res, err := DecodeResults(b)
		if err != nil {
			return nil, err
		}
		return EncodeResults(res), nil
	}, func(t *testing.T, in, enc []byte) {
		p, _ := DecodeResults(in)
		again, err := DecodeResults(enc)
		if err != nil || !reflect.DeepEqual(again, p) {
			t.Fatalf("the encoding of an accepted frame decodes to other pairs (%v):\n in  %x\n out %x", err, in, enc)
		}
		if re := EncodeResults(again); !bytes.Equal(re, enc) {
			t.Fatalf("the encoding is not a fixed point:\n in    %x\n once  %x\n twice %x", in, enc, re)
		}
	})
}

// FuzzDecodeIngest: an accepted frame re-encodes to the input byte for byte,
// so nil and empty payloads and counts have one encoding each.
func FuzzDecodeIngest(f *testing.F) {
	fuzzDecoder(f, allocPerByte, func(b []byte) ([]byte, error) {
		in, err := DecodeIngest(b)
		if err != nil {
			return nil, err
		}
		return EncodeIngest(in), nil
	}, func(t *testing.T, in, re []byte) {
		if !bytes.Equal(re, in) {
			t.Fatalf("decoded value re-encodes to other bytes:\n in  %x\n out %x", in, re)
		}
	})
}
