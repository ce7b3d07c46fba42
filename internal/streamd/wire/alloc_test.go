package wire

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
)

// One ingest encoder, one results decoder: what they allocate, what they
// share, and that the bytes are the parent commit's.

func ingestOf(n, payload int) Ingest {
	f := Ingest{Base: 3, Steps: make([]Step, n)}
	for i := range f.Steps {
		f.Steps[i] = Step{RKey: int64(i), SKey: int64(n - i)}
		if payload > 0 {
			f.Steps[i].RPayload = bytes.Repeat([]byte{byte(i)}, payload)
			f.Steps[i].SPayload = bytes.Repeat([]byte{^byte(i)}, payload)
		}
	}
	return f
}

func resultsOf(n, payload int) Results {
	f := Results{AckSeq: 3, Credits: 4096, Pairs: make([]Pair, n)}
	for i := range f.Pairs {
		f.Pairs[i] = Pair{RSeq: uint64(2 * i), SSeq: uint64(2*i + 1), RKey: 7, SKey: 7, Shard: uint16(i % 4)}
		if payload > 0 {
			f.Pairs[i].RPayload = bytes.Repeat([]byte{byte(i)}, payload)
			f.Pairs[i].SPayload = bytes.Repeat([]byte{^byte(i)}, payload)
		}
	}
	return f
}

// TestIngestFrameIsTheParentCommitsBytes: AppendIngestFrame writes exactly
// Frame(TypeIngest, EncodeIngest(f)) — recorded here from commit 0387968's
// encoders — and the recorded frame decodes to the values it was made from.
func TestIngestFrameIsTheParentCommitsBytes(t *testing.T) {
	const recorded = "0300000043000000000000000700000002" +
		"fffffffffffffffb0000000000000009000000046c656674ffffffff" +
		"000000000000000000000000000000000000000000000003000102"
	in := Ingest{Base: 7, Steps: []Step{
		{RKey: -5, SKey: 9, RPayload: []byte("left"), SPayload: nil},
		{RKey: 0, SKey: 0, RPayload: []byte{}, SPayload: []byte{0, 1, 2}},
	}}
	frame := AppendIngestFrame(nil, in)
	if got := hex.EncodeToString(frame); got != recorded {
		t.Fatalf("frame bytes changed:\n got %s\nwant %s", got, recorded)
	}
	if !bytes.Equal(frame, Frame(TypeIngest, EncodeIngest(in))) {
		t.Fatal("AppendIngestFrame and Frame(TypeIngest, EncodeIngest) disagree")
	}
	typ, payload, err := framesOf(frame).Next()
	if err != nil || typ != TypeIngest {
		t.Fatalf("FrameReader.Next = type 0x%02x, err %v", typ, err)
	}
	out, err := DecodeIngest(payload)
	if err != nil || !reflect.DeepEqual(out, in) {
		t.Fatalf("recorded frame decodes to %+v (err %v), want %+v", out, err, in)
	}
	// Appending keeps what is already in dst.
	if got := AppendIngestFrame([]byte("xy"), in); !bytes.Equal(got[:2], []byte("xy")) || !bytes.Equal(got[2:], frame) {
		t.Fatal("AppendIngestFrame overwrote its destination's prefix")
	}
}

// TestIngestEncodeAllocs: into a buffer that has held a frame of the size, the
// encoder allocates nothing, with or without payloads.
func TestIngestEncodeAllocs(t *testing.T) {
	for _, payload := range []int{0, 64} {
		f := ingestOf(256, payload)
		buf := AppendIngestFrame(nil, f)
		if got := testing.AllocsPerRun(100, func() { buf = AppendIngestFrame(buf[:0], f) }); got != 0 {
			t.Errorf("payload %d: encoding into a warmed buffer allocates %.0f objects, want 0", payload, got)
		}
	}
}

// TestDecodeResultsAllocs: a reply of n payload-carrying pairs costs one
// object a pair plus the pair slice; a payload-free reply costs the slice
// alone, and nothing at all when decoded into a slice with room.
func TestDecodeResultsAllocs(t *testing.T) {
	const n = 500
	carrying := EncodeResults(resultsOf(n, 64))
	free := EncodeResults(resultsOf(n, 0))
	if got := testing.AllocsPerRun(50, func() { _, _ = DecodeResults(carrying) }); got > n+2 {
		t.Errorf("decoding %d payload-carrying pairs allocates %.0f objects, want <= n + 2", n, got)
	}
	if got := testing.AllocsPerRun(50, func() { _, _ = DecodeResults(free) }); got > 2 {
		t.Errorf("decoding %d payload-free pairs allocates %.0f objects, want <= 2", n, got)
	}
	dst := make([]Pair, 0, n)
	if got := testing.AllocsPerRun(50, func() { _, _ = AppendResults(dst, free) }); got != 0 {
		t.Errorf("decoding %d payload-free pairs into a slice with room allocates %.0f objects, want 0", n, got)
	}
}

// TestAppendResultsSharesPerPairOnly: the two payloads of a pair sit in one
// allocation, nil and empty survive it in every combination, r cannot grow
// into s, no pair shares with another or with the frame, and the pairs land
// behind what dst already held.
func TestAppendResultsSharesPerPairOnly(t *testing.T) {
	in := Results{AckSeq: 2, Credits: 9, Pairs: []Pair{
		{RSeq: 0, SSeq: 1, RPayload: []byte("left"), SPayload: []byte("right")},
		{RSeq: 2, SSeq: 3, RPayload: nil, SPayload: []byte("s")},
		{RSeq: 4, SSeq: 5, RPayload: []byte{}, SPayload: nil},
		{RSeq: 6, SSeq: 7, RPayload: nil, SPayload: []byte{}},
		{RSeq: 8, SSeq: 9, RPayload: []byte{}, SPayload: []byte{}},
		{RSeq: 10, SSeq: 11},
		{RSeq: 12, SSeq: 13, RPayload: []byte("r"), SPayload: []byte{}},
	}}
	frame := EncodeResults(in)
	kept := Pair{RSeq: 99, RPayload: []byte("kept")}
	out, err := AppendResults([]Pair{kept}, frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Pairs[0], kept) || !reflect.DeepEqual(out.Pairs[1:], in.Pairs) {
		t.Fatalf("decoded behind one kept pair:\n got %+v\nwant %+v", out.Pairs, in.Pairs)
	}
	if re := EncodeResults(Results{AckSeq: 2, Credits: 9, Pairs: out.Pairs[1:]}); !bytes.Equal(re, frame) {
		t.Fatal("re-encoding the decoded pairs changed the bytes")
	}
	for i := range frame {
		frame[i] = 0xEE // the frame buffer is the reader's; nothing decoded may alias it
	}
	if !reflect.DeepEqual(out.Pairs[1:], in.Pairs) {
		t.Fatal("decoded pairs alias the frame they were decoded from")
	}
	first := out.Pairs[1]
	if grown := append(first.RPayload, '!'); &grown[0] == &first.RPayload[0] || string(first.SPayload) != "right" {
		t.Fatalf("appending to RPayload reached SPayload: %q", first.SPayload)
	}
	for i := range first.RPayload {
		first.RPayload[i] = 'x'
	}
	if !reflect.DeepEqual(out.Pairs[2:], in.Pairs[1:]) {
		t.Fatal("writing one pair's payload changed another pair")
	}
	// On a bad frame the destination's elements are untouched.
	if res, err := AppendResults([]Pair{kept}, EncodeResults(in)[:40]); err == nil || res.Pairs != nil {
		t.Fatalf("truncated frame: pairs %v, err %v", res.Pairs, err)
	}
}
