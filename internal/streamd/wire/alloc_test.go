package wire

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
)

// One ingest and one results encoder and decoder each: what they allocate,
// what they share, and that the ingest bytes are the parent commit's.

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

// gridOf is a reply in which each of nr R tuples joins each of ns S tuples,
// R outermost: nr × ns pairs over nr + ns distinct payload tuples.
func gridOf(nr, ns, payload int) Results {
	f := Results{AckSeq: 3, Credits: 4096}
	for r := 0; r < nr; r++ {
		for s := 0; s < ns; s++ {
			f.Pairs = append(f.Pairs, Pair{
				RSeq: uint64(2 * r), SSeq: uint64(2*s + 1), RKey: 7, SKey: 7,
				RPayload: bytes.Repeat([]byte{byte(r)}, payload), SPayload: bytes.Repeat([]byte{^byte(s)}, payload),
			})
		}
	}
	return f
}

// TestDecodeResultsAllocs: a reply costs at most one object a pair — the
// payloads it carries inline — and at most one a distinct tuple, plus the
// pair slice; a payload-free reply costs the slice alone, and nothing at all
// when decoded into a slice with room.
func TestDecodeResultsAllocs(t *testing.T) {
	const n = 500
	carrying := EncodeResults(resultsOf(n, 64))
	grid := EncodeResults(gridOf(25, 20, 64)) // 500 pairs over k = 45 tuples
	free := EncodeResults(resultsOf(n, 0))
	if got := testing.AllocsPerRun(50, func() { _, _ = DecodeResults(carrying) }); got > n+2 {
		t.Errorf("decoding %d payload-carrying pairs allocates %.0f objects, want <= n + 2", n, got)
	}
	if got := testing.AllocsPerRun(50, func() { _, _ = DecodeResults(grid) }); got > 45+2 {
		t.Errorf("decoding %d pairs over 45 payload tuples allocates %.0f objects, want <= k + 2", n, got)
	}
	if got := testing.AllocsPerRun(50, func() { _, _ = DecodeResults(free) }); got > 2 {
		t.Errorf("decoding %d payload-free pairs allocates %.0f objects, want <= 2", n, got)
	}
	dst := make([]Pair, 0, n)
	if got := testing.AllocsPerRun(50, func() { _, _ = AppendResults(dst, free) }); got != 0 {
		t.Errorf("decoding %d payload-free pairs into a slice with room allocates %.0f objects, want 0", n, got)
	}
	// Pairs that only refer copy nothing: a frame whose pairs after the first
	// all repeat it costs the pair slice — nothing, into a slice with room —
	// and the first pair's payloads if it carries any. (With room, because the
	// race detector's build, which ci.sh runs, costs slices.Grow a temporary.)
	for _, tc := range []struct {
		payload int
		want    float64
	}{{0, 0}, {64, 1}} {
		f := resultsOf(1, tc.payload)
		for len(f.Pairs) < n {
			f.Pairs = append(f.Pairs, f.Pairs[0])
		}
		repeats := EncodeResults(f)
		if len(repeats) != resultsHeaderSize+2*(4+inlineSize+tc.payload)+3+(n-1)*minPairSize {
			t.Fatalf("payload %d: a reply of one pair repeated is %d bytes, not references after the first pair", tc.payload, len(repeats))
		}
		if got := testing.AllocsPerRun(50, func() { _, _ = AppendResults(dst, repeats) }); got != tc.want {
			t.Errorf("payload %d: decoding a pair and %d references to it allocates %.0f objects, want %.0f", tc.payload, n-1, got, tc.want)
		}
	}
}

// TestDecodeIngestAllocs: a batch costs one object a present payload — a
// copy the daemon may keep — and nothing else beyond what the sink's Grow
// takes; into a sink with room, a payload-free batch allocates nothing.
func TestDecodeIngestAllocs(t *testing.T) {
	const n = 256
	sink := &Ingest{Steps: make([]Step, 0, n)}
	for _, tc := range []struct {
		payload int
		want    float64
	}{{0, 0}, {64, 2 * n}} {
		frame := EncodeIngest(ingestOf(n, tc.payload))
		if got := testing.AllocsPerRun(50, func() {
			sink.Steps = sink.Steps[:0]
			_, _ = DecodeIngestTo(sink, frame)
		}); got != tc.want {
			t.Errorf("payload %d: decoding %d steps into a sink with room allocates %.0f objects, want %.0f", tc.payload, n, got, tc.want)
		}
	}
}

// TestResultsEncodeAllocs: into a buffer that has held the reply, with
// carriers that have encoded it, the encoder allocates nothing — the daemon's
// steady state: its replay buffer and its engine loop's carriers. A table
// that has numbered a []Pair listing numbers and encodes it again without
// allocating too.
func TestResultsEncodeAllocs(t *testing.T) {
	for _, f := range []Results{resultsOf(256, 64), gridOf(16, 16, 64)} {
		var c Carriers
		hdr := Results{AckSeq: f.AckSeq, Credits: f.Credits}
		src := listingOf(f.Pairs)
		buf := AppendResultsFramesFrom(nil, hdr, src, &c)
		if got := testing.AllocsPerRun(100, func() { buf = AppendResultsFramesFrom(buf[:0], hdr, src, &c) }); got != 0 {
			t.Errorf("%d pairs: encoding with a warmed buffer and carriers allocates %.0f objects, want 0", len(f.Pairs), got)
		}
		var tab TupleTable
		buf = tab.encode(buf[:0], f, true, MaxFramePayload)
		if got := testing.AllocsPerRun(100, func() { buf = tab.encode(buf[:0], f, true, MaxFramePayload) }); got != 0 {
			t.Errorf("%d pairs: numbering and encoding with a warmed buffer and table allocates %.0f objects, want 0", len(f.Pairs), got)
		}
	}
}

// TestAppendResultsSharesPerTuple: pairs that name one tuple share its
// payload bytes; the payloads a pair carries inline sit in one allocation
// with r clipped, so that appending to it cannot reach s; a pair keeps at most
// two payload allocations; nil and empty survive in every combination;
// nothing aliases the frame; and the pairs land behind what dst already held.
func TestAppendResultsSharesPerTuple(t *testing.T) {
	in := Results{AckSeq: 2, Credits: 9, Pairs: []Pair{
		{RSeq: 0, SSeq: 1, RPayload: []byte("left"), SPayload: []byte("right")},
		{RSeq: 2, SSeq: 3, RPayload: nil, SPayload: []byte("s")},
		{RSeq: 4, SSeq: 5, RPayload: []byte{}, SPayload: nil},
		{RSeq: 6, SSeq: 7, RPayload: nil, SPayload: []byte{}},
		{RSeq: 8, SSeq: 9, RPayload: []byte{}, SPayload: []byte{}},
		{RSeq: 10, SSeq: 11},
		{RSeq: 12, SSeq: 13, RPayload: []byte("r"), SPayload: []byte{}},
		{RSeq: 0, SSeq: 3, RPayload: []byte("left"), SPayload: []byte("s")}, // pair 0's R, pair 1's S
		{RSeq: 4, SSeq: 7, RPayload: []byte{}, SPayload: []byte{}},          // pair 2's R, pair 3's S
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
	first, again := out.Pairs[1], out.Pairs[8]
	if grown := append(first.RPayload, '!'); &grown[0] == &first.RPayload[0] || string(first.SPayload) != "right" {
		t.Fatalf("appending to RPayload reached SPayload: %q", first.SPayload)
	}
	if &again.RPayload[0] != &first.RPayload[0] || &again.SPayload[0] != &out.Pairs[2].SPayload[0] {
		t.Fatal("a pair that names two earlier tuples does not hold their payloads: it keeps other allocations than theirs")
	}
	for i := range first.RPayload {
		first.RPayload[i] = 'x'
	}
	if string(again.RPayload) != "xxxx" {
		t.Fatalf("writing a tuple's payload through one pair left another pair naming it at %q", again.RPayload)
	}
	if !reflect.DeepEqual(out.Pairs[2:8], in.Pairs[1:7]) || !reflect.DeepEqual(out.Pairs[9], in.Pairs[8]) {
		t.Fatal("writing one tuple's payload changed a pair that does not name it")
	}
	// On a bad frame the destination's elements are untouched.
	if res, err := AppendResults([]Pair{kept}, EncodeResults(in)[:40]); err == nil || res.Pairs != nil {
		t.Fatalf("truncated frame: pairs %v, err %v", res.Pairs, err)
	}
}
