package wire

import (
	"bytes"
	"errors"
	"io"
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

// fuzzPool is what the pairs of FuzzNumberedResults are made of: repeated
// tuples, equal seqs with another key or payload, and absent against empty.
var fuzzPool = []struct {
	seq     uint64
	key     int64
	payload []byte
}{
	{1, 3, nil}, {1, 3, []byte{}}, {1, 3, []byte("x")}, {1, 4, []byte("x")},
	{2, 3, []byte("x")}, {2, 3, nil}, {1, 3, []byte("yy")}, {2, 4, []byte{}},
}

// FuzzNumberedResults: the numbered encoding of a listing — its tuples
// numbered by a scan, in an order the input picks — is the encoding the []Pair
// entry points give the same pairs, at any frame cap (the input picks one
// small enough to cut chunks), bare or framed; it is the same again with
// carriers that have encoded before; and it decodes to the pairs. Input byte
// 0 is the cap, byte 1 the numbering order, and every two bytes after them a
// pair: the R tuple, shard and same-step flag from the first, the S tuple
// from the second, each tuple with payload bytes of its own.
func FuzzNumberedResults(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1})
	f.Add([]byte{255, 1, 0, 0, 0, 0, 1, 1, 2, 2, 3, 3})
	f.Add([]byte{10, 2, 0, 4, 3, 4, 2, 5, 0, 4, 6, 1, 39, 7, 0, 4})
	f.Add([]byte{40, 3, 0, 1, 1, 0, 5, 2, 2, 5, 0, 1, 7, 7})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 2 {
			return
		}
		limit, order := 20+4*int(b[0]), b[1]
		var ps []Pair
		for rest := b[2:]; len(rest) >= 2; rest = rest[2:] {
			r, s := fuzzPool[rest[0]&7], fuzzPool[rest[1]&7]
			ps = append(ps, Pair{
				RSeq: r.seq, SSeq: s.seq, RKey: r.key, SKey: s.key,
				RPayload: bytes.Clone(r.payload), SPayload: bytes.Clone(s.payload),
				Shard: uint16(rest[0] >> 3 & 3), SameStep: rest[0]&32 != 0,
			})
		}
		src := listingOf(ps)
		perm := make([]uint32, len(src.tuples))
		for k := range perm {
			perm[k] = uint32(k)
			if order&1 == 1 {
				perm[k] = uint32(len(perm) - 1 - k)
			} else if len(perm) > 0 {
				perm[k] = uint32((k + int(order)) % len(perm))
			}
		}
		src = listingNumbered(ps, perm)
		res := Results{AckSeq: 7, Credits: 9, Flush: order&2 != 0, Pairs: ps}
		hdr := res
		hdr.Pairs = nil
		var c Carriers
		for _, framed := range []bool{false, true} {
			lim := limit
			if !framed {
				lim = math.MaxInt
			}
			want := new(TupleTable).encode(nil, res, framed, lim)
			if !framed && !bytes.Equal(want, EncodeResults(res)) {
				t.Fatal("a table's encoding diverges from EncodeResults")
			}
			for again := 0; again < 2; again++ {
				if got := encodeResults(nil, hdr, src, &c, framed, lim); !bytes.Equal(got, want) {
					t.Fatalf("framed %v, cap %d, run %d: the numbered encoding diverges:\n got %x\nwant %x", framed, lim, again, got, want)
				}
			}
			if framed {
				var back []Pair
				rd := framesOf(want)
				for {
					_, payload, err := rd.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					dec, err := AppendResults(back, payload)
					if err != nil {
						t.Fatal(err)
					}
					back = dec.Pairs
				}
				if len(ps) > 0 && !reflect.DeepEqual(back, ps) {
					t.Fatalf("the frames decode to other pairs:\n got %+v\nwant %+v", back, ps)
				}
			}
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
