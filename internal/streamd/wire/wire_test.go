package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestHelloRoundTrip(t *testing.T) {
	in := Hello{Version: Version, Session: "sess-a", LastSeq: 42}
	out, err := DecodeHello(EncodeHello(in))
	if err != nil {
		t.Fatalf("DecodeHello: %v", err)
	}
	if out != in {
		t.Fatalf("round trip %+v -> %+v", in, out)
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	in := Welcome{Credits: 4096, AckSeq: 17}
	out, err := DecodeWelcome(EncodeWelcome(in))
	if err != nil {
		t.Fatalf("DecodeWelcome: %v", err)
	}
	if out != in {
		t.Fatalf("round trip %+v -> %+v", in, out)
	}
}

func TestIngestRoundTrip(t *testing.T) {
	in := Ingest{Base: 7, Steps: []Step{
		{RKey: -5, SKey: 9, RPayload: []byte("left"), SPayload: nil},
		{RKey: 0, SKey: 0, RPayload: []byte{}, SPayload: []byte{0, 1, 2}},
	}}
	out, err := DecodeIngest(EncodeIngest(in))
	if err != nil {
		t.Fatalf("DecodeIngest: %v", err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip %+v -> %+v", in, out)
	}
	// The nil-vs-empty distinction is load-bearing: nil is the absent
	// marker, empty is a present zero-length payload.
	if out.Steps[0].SPayload != nil {
		t.Error("nil payload became non-nil")
	}
	if out.Steps[1].RPayload == nil {
		t.Error("empty payload became nil")
	}
}

func TestResultsRoundTrip(t *testing.T) {
	in := Results{AckSeq: 3, Credits: 100, Pairs: []Pair{
		{RSeq: 8, SSeq: 9, RKey: 4, SKey: 4, Shard: 2, SameStep: true, RPayload: []byte("r"), SPayload: nil},
		{RSeq: 2, SSeq: 11, RKey: -1, SKey: -1},
	}}
	out, err := DecodeResults(EncodeResults(in))
	if err != nil {
		t.Fatalf("DecodeResults: %v", err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip %+v -> %+v", in, out)
	}
}

// TestResultsRepeatIsTheWholeTuple: a side refers to an earlier pair only for
// the same side, seq, key and payload bytes. Pairs that share the seq but
// differ in key, payload bytes, or absent against empty, and the seqs on the
// other side, travel inline and round-trip as themselves; the same tuple in
// slices of its own is a repeat.
func TestResultsRepeatIsTheWholeTuple(t *testing.T) {
	in := Results{AckSeq: 6, Pairs: []Pair{
		{RSeq: 1, SSeq: 2, RKey: 3, SKey: 4, RPayload: []byte("r"), SPayload: []byte("s")},
		{RSeq: 1, SSeq: 2, RKey: 9, SKey: 4, RPayload: []byte("r"), SPayload: []byte("s")},
		{RSeq: 1, SSeq: 2, RKey: 3, SKey: 4, RPayload: []byte("x"), SPayload: []byte("s")},
		{RSeq: 1, SSeq: 2, RKey: 3, SKey: 4, RPayload: nil, SPayload: []byte("s")},
		{RSeq: 1, SSeq: 2, RKey: 3, SKey: 4, RPayload: []byte{}, SPayload: []byte("s")},
		{RSeq: 1, SSeq: 2, RKey: 3, SKey: 4, RPayload: nil, SPayload: []byte{}},
		{RSeq: 2, SSeq: 1, RKey: 4, SKey: 3, RPayload: []byte("s"), SPayload: []byte("r")},
		{RSeq: 7, SSeq: 8, RKey: 1, SKey: 1, RPayload: nil, SPayload: []byte{}},
		{RSeq: 7, SSeq: 8, RKey: 1, SKey: 1, RPayload: []byte{}, SPayload: nil},
		{RSeq: 1, SSeq: 2, RKey: 3, SKey: 4, RPayload: []byte("r"), SPayload: []byte("s")},
	}}
	b := EncodeResults(in)
	out, err := DecodeResults(b)
	if err != nil || !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip:\n got %+v (%v)\nwant %+v", out, err, in)
	}
	last := b[len(b)-minPairSize:]
	if r, s := binary.BigEndian.Uint32(last), binary.BigEndian.Uint32(last[4:]); r != 1 || s != 1 {
		t.Fatalf("the last pair repeats pair 0 on both sides but refers to %d and %d", r, s)
	}
}

func TestResultsMoreFlagRoundTrip(t *testing.T) {
	in := Results{AckSeq: 5, Credits: 64, More: true, Pairs: []Pair{{RSeq: 1, SSeq: 2}}}
	out, err := DecodeResults(EncodeResults(in))
	if err != nil {
		t.Fatalf("DecodeResults: %v", err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip %+v -> %+v", in, out)
	}
	// Unknown flag bits are a frame violation, not silently ignored; bit 0,
	// which marked a reply to the deleted Flush frame, among them.
	for _, flags := range []byte{0x80, 0x01, 0x03} {
		payload := EncodeResults(Results{AckSeq: 1})
		payload[12] = flags // flags byte follows AckSeq (8) + Credits (4)
		if _, err := DecodeResults(payload); !errors.Is(err, ErrBadFrame) {
			t.Errorf("flags 0x%02x: err = %v, want ErrBadFrame", flags, err)
		}
	}
}

// TestEncodeResultsFramesChunksOversizedReply pins the results chunker: a
// reply bigger than MaxFramePayload must arrive as several legal frames
// that reassemble exactly, with More set on every chunk but the last. Every
// pair names the same R tuple, so the cuts fall between its repeats: no
// reference crosses a frame — each chunk decodes alone, carries the tuple
// inline at its first pair and refers to it after that.
func TestEncodeResultsFramesChunksOversizedReply(t *testing.T) {
	big := bytes.Repeat([]byte{0xC7}, MaxPayloadBytes)
	f := Results{AckSeq: 9, Credits: 4096, Pairs: make([]Pair, 6)}
	for i := range f.Pairs {
		f.Pairs[i] = Pair{
			RSeq: 0, SSeq: uint64(2*i + 1), RKey: 7, SKey: 7,
			Shard: 1, SameStep: i%2 == 0, RPayload: big, SPayload: big,
		}
	}
	buf := EncodeResultsFrames(f) // 7 MiB of distinct tuples: must split
	rd := framesOf(buf)
	var got []Pair
	var mores []bool
	for {
		typ, payload, err := rd.Next() // enforces MaxFramePayload per frame
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("frame of chunk %d: %v", len(mores), err)
		}
		if typ != TypeResults {
			t.Fatalf("chunk %d type = 0x%02x, want results", len(mores), typ)
		}
		chunk, err := DecodeResults(payload)
		if err != nil {
			t.Fatalf("DecodeResults chunk %d: %v", len(mores), err)
		}
		if chunk.AckSeq != f.AckSeq || chunk.Credits != f.Credits {
			t.Fatalf("chunk %d header = %+v, want AckSeq %d Credits %d", len(mores), chunk, f.AckSeq, f.Credits)
		}
		if len(chunk.Pairs) == 0 {
			t.Fatalf("chunk %d carries no pairs", len(mores))
		}
		if ref := binary.BigEndian.Uint32(payload[resultsHeaderSize:]); ref != 0 {
			t.Fatalf("chunk %d opens with a reference to pair %d", len(mores), ref-1)
		}
		k := len(chunk.Pairs)
		if want := resultsHeaderSize + k*minPairSize + (k+1)*(inlineSize+MaxPayloadBytes); len(payload) != want {
			t.Fatalf("chunk %d of %d pairs is %d bytes, want %d: the shared tuple inline once, each S tuple once", len(mores), k, len(payload), want)
		}
		mores = append(mores, chunk.More)
		got = append(got, chunk.Pairs...)
	}
	if len(mores) < 2 {
		t.Fatalf("reply of %d bytes did not chunk (frames = %d)", len(buf), len(mores))
	}
	for i, m := range mores {
		if want := i < len(mores)-1; m != want {
			t.Errorf("chunk %d More = %v, want %v", i, m, want)
		}
	}
	if !reflect.DeepEqual(got, f.Pairs) {
		t.Fatal("reassembled pairs diverge from input")
	}

	// Encoding from a numbered listing is the same bytes, and each chunk is the
	// frame the reference form builds from that chunk alone: same cuts,
	// same More flags, same header repeats.
	hdr := Results{AckSeq: f.AckSeq, Credits: f.Credits}
	if !bytes.Equal(AppendResultsFramesFrom(nil, hdr, listingOf(f.Pairs), new(Carriers)), buf) {
		t.Fatal("chunked reply from a numbered listing diverges from EncodeResultsFrames")
	}
	var want []byte
	for at, k := 0, 0; k < len(mores); k++ {
		_, payload, _ := framesOf(buf[len(want):]).Next()
		chunk, _ := DecodeResults(payload)
		chunk.Pairs = f.Pairs[at : at+len(chunk.Pairs)]
		at += len(chunk.Pairs)
		want = append(want, Frame(TypeResults, EncodeResults(chunk))...)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("chunked reply diverges from its chunks framed one by one")
	}

	// The small path stays a single frame, byte-identical to the direct
	// encoder.
	small := Results{AckSeq: 3, Credits: 10, Pairs: []Pair{{RSeq: 1, SSeq: 2, RPayload: []byte("x")}}}
	if !bytes.Equal(EncodeResultsFrames(small), EncodeResultsFrame(small)) {
		t.Fatal("single-frame reply diverges from EncodeResultsFrame")
	}
}

// listing is a Listing outside the package's own, standing in for the
// daemon's view of the runtime's reply: its tuples are numbered by a scan,
// one number for each distinct (side, seq, key, payload), in the order
// numbers says — ascending by first pair when it is nil — and each pair names
// its two.
type listing struct {
	pairs  [][2]uint32
	shards []uint16
	same   []bool
	tuples []listed
}

type listed struct {
	side    uint32
	seq     uint64
	key     int64
	payload []byte
}

func (l *listing) Len() int { return len(l.pairs) }

func (l *listing) Pair(i int) (uint32, uint32, uint16, bool) {
	return l.pairs[i][0], l.pairs[i][1], l.shards[i], l.same[i]
}

func (l *listing) Tuples() int { return len(l.tuples) }

func (l *listing) Tuple(k uint32) (uint64, int64, []byte) {
	return l.tuples[k].seq, l.tuples[k].key, l.tuples[k].payload
}

// listingOf numbers the tuples of ps by first pair.
func listingOf(ps []Pair) *listing { return listingNumbered(ps, nil) }

// listingNumbered numbers the tuples of ps: the k-th distinct tuple, in
// order of first pair, gets number order[k] (k itself when order is nil).
func listingNumbered(ps []Pair, order []uint32) *listing {
	l := &listing{}
	var byFirst []listed
	num := func(tu listed) uint32 {
		for k, seen := range byFirst {
			if seen.side == tu.side && seen.seq == tu.seq && seen.key == tu.key &&
				(seen.payload == nil) == (tu.payload == nil) && bytes.Equal(seen.payload, tu.payload) {
				return uint32(k)
			}
		}
		byFirst = append(byFirst, tu)
		return uint32(len(byFirst) - 1)
	}
	for _, p := range ps {
		r := num(listed{0, p.RSeq, p.RKey, p.RPayload})
		s := num(listed{1, p.SSeq, p.SKey, p.SPayload})
		l.pairs = append(l.pairs, [2]uint32{r, s})
		l.shards = append(l.shards, p.Shard)
		l.same = append(l.same, p.SameStep)
	}
	l.tuples = make([]listed, len(byFirst))
	for k, tu := range byFirst {
		if order != nil {
			k = int(order[k])
		}
		l.tuples[k] = tu
	}
	if order != nil {
		for i := range l.pairs {
			l.pairs[i] = [2]uint32{order[l.pairs[i][0]], order[l.pairs[i][1]]}
		}
	}
	return l
}

func TestErrorRoundTrip(t *testing.T) {
	in := ErrorFrame{Code: CodeOverloaded, RetryAfterMillis: 50, Msg: "queue full"}
	out, err := DecodeError(EncodeError(in))
	if err != nil {
		t.Fatalf("DecodeError: %v", err)
	}
	if out != in {
		t.Fatalf("round trip %+v -> %+v", in, out)
	}
	if out.RetryAfter().Milliseconds() != 50 {
		t.Fatalf("RetryAfter = %v, want 50ms", out.RetryAfter())
	}
}

// mixedIngest is a batch whose steps carry present, absent and empty payloads
// on both sides.
var mixedIngest = Ingest{Base: 4, Steps: []Step{
	{RKey: 1, SKey: -2, RPayload: []byte("rp"), SPayload: nil},
	{RKey: 3, SKey: 3, RPayload: nil, SPayload: []byte{}},
	{RKey: 6, SKey: 7},
	{RKey: -4, SKey: 5, RPayload: []byte{}, SPayload: []byte("spay")},
}}

// mixedResults is a reply whose sides are inline and referenced, with absent,
// empty and present payloads.
var mixedResults = Results{AckSeq: 5, Credits: 7, Pairs: []Pair{
	{RSeq: 0, SSeq: 1, RKey: 2, SKey: 2, RPayload: []byte("r0"), SPayload: nil, Shard: 1, SameStep: true},
	{RSeq: 2, SSeq: 1, RKey: 2, SKey: 2, RPayload: []byte{}, SPayload: nil},
	{RSeq: 0, SSeq: 3, RKey: 2, SKey: 2, RPayload: []byte("r0"), SPayload: []byte("s3")},
	{RSeq: 2, SSeq: 3, RKey: 2, SKey: 2, RPayload: []byte{}, SPayload: []byte("s3"), Shard: 2},
	{RSeq: 4, SSeq: 5, RKey: 2, SKey: 2, RPayload: nil, SPayload: []byte{}},
}}

// TestTruncationSweep feeds every strict prefix of every payload kind to its
// decoder: each must fail with ErrBadFrame, never panic, never succeed. A
// prefix's capacity ends where it does, so a read past the cut panics instead
// of finding the rest of the frame.
func TestTruncationSweep(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"hello", EncodeHello(Hello{Version: 1, Session: "s", LastSeq: 9}),
			func(b []byte) error { _, err := DecodeHello(b); return err }},
		{"welcome", EncodeWelcome(Welcome{Credits: 1, AckSeq: 2}),
			func(b []byte) error { _, err := DecodeWelcome(b); return err }},
		{"ingest", EncodeIngest(Ingest{Base: 1, Steps: []Step{{RKey: 1, SKey: 2, RPayload: []byte("p")}}}),
			func(b []byte) error { _, err := DecodeIngest(b); return err }},
		{"results", EncodeResults(Results{AckSeq: 1, Pairs: []Pair{{RSeq: 0, SSeq: 1, SPayload: []byte("q")}}}),
			func(b []byte) error { _, err := DecodeResults(b); return err }},
		{"results with references", EncodeResults(Results{AckSeq: 1, Pairs: []Pair{
			{RSeq: 0, SSeq: 1, RKey: 5, SKey: 5, RPayload: []byte("r"), SPayload: []byte("s")},
			{RSeq: 0, SSeq: 3, RKey: 5, SKey: 5, RPayload: []byte("r")},
			{RSeq: 2, SSeq: 1, RKey: 5, SKey: 5, SPayload: []byte("s")},
		}}), func(b []byte) error { _, err := DecodeResults(b); return err }},
		{"ingest with present, absent and empty payloads", EncodeIngest(mixedIngest),
			func(b []byte) error { _, err := DecodeIngest(b); return err }},
		{"results with inline, referenced, absent and empty sides", EncodeResults(mixedResults),
			func(b []byte) error { _, err := DecodeResults(b); return err }},
		{"error", EncodeError(ErrorFrame{Code: 3, Msg: "m"}),
			func(b []byte) error { _, err := DecodeError(b); return err }},
	}
	for _, tc := range cases {
		for i := 0; i < len(tc.payload); i++ {
			if err := tc.decode(tc.payload[:i:i]); !errors.Is(err, ErrBadFrame) {
				t.Errorf("%s[:%d]: err = %v, want ErrBadFrame", tc.name, i, err)
			}
		}
		// Trailing garbage after a complete payload is equally a violation.
		if err := tc.decode(append(append([]byte{}, tc.payload...), 0xAA)); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s+garbage: err = %v, want ErrBadFrame", tc.name, err)
		}
	}
	// The whole frames decode to what they were made from.
	if got, err := DecodeIngest(EncodeIngest(mixedIngest)); err != nil || !reflect.DeepEqual(got, mixedIngest) {
		t.Errorf("mixed ingest decodes to %+v (%v)", got, err)
	}
	if got, err := DecodeResults(EncodeResults(mixedResults)); err != nil || !reflect.DeepEqual(got, mixedResults) {
		t.Errorf("mixed results decode to %+v (%v)", got, err)
	}
}

// TestTruncationNamesWantAndHave: a frame cut inside a field names the bytes
// the field wanted and the bytes left — for each fixed part the decoders
// check at once, and for a payload.
func TestTruncationNamesWantAndHave(t *testing.T) {
	long := bytes.Repeat([]byte{'x'}, 40)
	// 17 B header; pair 0: R inline at 17 (its payload at 41), S inline and
	// absent at 81, shard at 105; pair 1 refers to pair 0 at 108.
	results := EncodeResults(Results{AckSeq: 1, Pairs: []Pair{{RSeq: 1, SSeq: 2, RPayload: long}, {RSeq: 1, SSeq: 2, RPayload: long}}})
	// 12 B header; step 0 at 12 (R payload only); step 1 at 76, its R payload
	// at 96, its S length at 136 and its S payload at 140.
	ingest := EncodeIngest(Ingest{Base: 1, Steps: []Step{{RKey: 1, SKey: 2, RPayload: long}, {RKey: 3, SKey: 4, RPayload: long, SPayload: []byte("sp")}}})
	if len(results) != 119 || len(ingest) != 142 {
		t.Fatalf("frames of %d and %d bytes: not the layouts this test cuts", len(results), len(ingest))
	}
	decodeResults := func(b []byte) error { _, err := DecodeResults(b); return err }
	decodeIngest := func(b []byte) error { _, err := DecodeIngest(b); return err }
	for _, tc := range []struct {
		name   string
		cut    []byte
		decode func([]byte) error
		want   string
	}{
		{"results: a reference", results[:108+3], decodeResults, "want 4 bytes, have 3"},
		{"results: seq, key and length", results[:81+4+10], decodeResults, "want 20 bytes, have 10"},
		{"results: a payload", results[:41+2], decodeResults, "want 40 bytes, have 2"},
		{"results: shard and same-step byte", results[:105+2], decodeResults, "want 3 bytes, have 2"},
		{"ingest: keys and R length", ingest[:76+13], decodeIngest, "want 20 bytes, have 13"},
		{"ingest: R payload", ingest[:96+3], decodeIngest, "want 40 bytes, have 3"},
		{"ingest: S length", ingest[:136+3], decodeIngest, "want 4 bytes, have 3"},
		{"ingest: S payload", ingest[:140+1], decodeIngest, "want 2 bytes, have 1"},
	} {
		if err := tc.decode(tc.cut[:len(tc.cut):len(tc.cut)]); !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want ErrBadFrame naming %q", tc.name, err, tc.want)
		}
	}
}

// stepRecorder is a StepSink that keeps what it is handed and refuses step
// refuseAt.
type stepRecorder struct {
	steps    []Step
	refuseAt int
}

var errRefused = errors.New("refused by the sink")

func (r *stepRecorder) Grow(int) {}

func (r *stepRecorder) Step(i int, rkey, skey int64, rp, sp []byte) error {
	if i != len(r.steps) {
		return errors.New("steps out of order")
	}
	if i == r.refuseAt {
		return errRefused
	}
	r.steps = append(r.steps, Step{RKey: rkey, SKey: skey, RPayload: rp, SPayload: sp})
	return nil
}

// TestRefusedIngestHandsOnlyWholeSteps: whatever prefix of a batch arrives,
// the sink is handed only steps as they were sent, in order — never one cut
// short, with a payload missing or clipped — and a sink's own error comes
// back as it is.
func TestRefusedIngestHandsOnlyWholeSteps(t *testing.T) {
	frame := EncodeIngest(mixedIngest)
	for i := 0; i < len(frame); i++ {
		r := &stepRecorder{refuseAt: -1}
		if _, err := DecodeIngestTo(r, frame[:i:i]); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("prefix %d: err = %v, want ErrBadFrame", i, err)
		}
		for k, st := range r.steps {
			if !reflect.DeepEqual(st, mixedIngest.Steps[k]) {
				t.Fatalf("prefix %d: the sink was handed %+v as step %d", i, st, k)
			}
		}
	}
	r := &stepRecorder{refuseAt: 2}
	if _, err := DecodeIngestTo(r, frame); err != errRefused || len(r.steps) != 2 {
		t.Fatalf("a sink that refuses step 2: err %v after %d steps", err, len(r.steps))
	}
}

func TestDecodeHelloRejectsBadSession(t *testing.T) {
	if _, err := DecodeHello(EncodeHello(Hello{Version: 1, Session: ""})); !errors.Is(err, ErrBadFrame) {
		t.Errorf("empty session: err = %v, want ErrBadFrame", err)
	}
	long := make([]byte, MaxSessionName+1)
	for i := range long {
		long[i] = 'x'
	}
	if _, err := DecodeHello(EncodeHello(Hello{Version: 1, Session: string(long)})); !errors.Is(err, ErrBadFrame) {
		t.Errorf("oversize session: err = %v, want ErrBadFrame", err)
	}
}

func TestDecodeIngestRejectsOversizeBatch(t *testing.T) {
	steps := make([]Step, MaxBatchSteps+1)
	if _, err := DecodeIngest(EncodeIngest(Ingest{Base: 1, Steps: steps})); !errors.Is(err, ErrBadFrame) {
		t.Errorf("oversize batch: err = %v, want ErrBadFrame", err)
	}
}

// TestEncodeResultsFrameEquivalence pins every single-frame entry of the
// Results encoder — from f.Pairs and from a numbered listing — to the reference
// form Frame(TypeResults, EncodeResults(f)), and the format itself to bytes.
// The bytes were recorded again when Version 2 made a repeated tuple a
// reference: the third pair names the first pair's R tuple and the second
// pair's S tuple (in slices of their own, equal in bytes) and is eleven bytes.
func TestEncodeResultsFrameEquivalence(t *testing.T) {
	cases := []Results{
		{},
		{AckSeq: 9, Credits: 512},
		{AckSeq: 3, Credits: 100, Pairs: []Pair{
			{RSeq: 8, SSeq: 9, RKey: 4, SKey: 4, Shard: 2, SameStep: true, RPayload: []byte("rp"), SPayload: nil},
			{RSeq: 2, SSeq: 11, RKey: -1, SKey: -1, RPayload: []byte{}, SPayload: []byte{1, 2, 3}},
			{RSeq: 8, SSeq: 11, RKey: 4, SKey: -1, Shard: 1, RPayload: []byte("rp"), SPayload: []byte{1, 2, 3}},
		}},
	}
	for i, f := range cases {
		want := Frame(TypeResults, EncodeResults(f))
		hdr := f
		hdr.Pairs = nil
		for name, got := range map[string][]byte{
			"EncodeResultsFrame":      EncodeResultsFrame(f),
			"EncodeResultsFrames":     EncodeResultsFrames(f),
			"AppendResultsFramesFrom": AppendResultsFramesFrom(nil, hdr, listingOf(f.Pairs), new(Carriers)),
		} {
			if !bytes.Equal(got, want) {
				t.Errorf("case %d: %s diverges from reference (%d vs %d bytes)", i, name, len(got), len(want))
			}
		}
	}
	const recorded = "04" + "00000087" + "0000000000000003" + "00000064" + "00" + "00000003" +
		// pair 0: R inline (seq 8, key 4, "rp"), S inline (seq 9, key 4, absent), shard 2, same step
		"00000000" + "0000000000000008" + "0000000000000004" + "00000002" + "7270" +
		"00000000" + "0000000000000009" + "0000000000000004" + "ffffffff" + "0002" + "01" +
		// pair 1: R inline (seq 2, key −1, empty), S inline (seq 11, key −1, 01 02 03), shard 0
		"00000000" + "0000000000000002" + "ffffffffffffffff" + "00000000" +
		"00000000" + "000000000000000b" + "ffffffffffffffff" + "00000003" + "010203" + "0000" + "00" +
		// pair 2: R is pair 0's, S is pair 1's, shard 1
		"00000001" + "00000002" + "0001" + "00"
	if got := hex.EncodeToString(EncodeResultsFrames(cases[2])); got != recorded {
		t.Errorf("frame bytes changed:\n got %s\nwant %s", got, recorded)
	}
}

// TestDecodeRejectsHostileCounts: a claimed element count the payload cannot
// hold is a frame violation, caught before the decoder sizes a slice from it
// — a 17-byte Results payload used to preallocate 23 MB, a 12-byte Ingest
// payload 512 KiB.
func TestDecodeRejectsHostileCounts(t *testing.T) {
	results := EncodeResults(Results{AckSeq: 1})
	ingest := EncodeIngest(Ingest{Base: 1})
	onePair := EncodeResults(Results{AckSeq: 1, Pairs: []Pair{{RSeq: 1, SSeq: 2}}})
	oneStep := EncodeIngest(Ingest{Base: 1, Steps: []Step{{RKey: 1, SKey: 2}}})
	setCount := func(b []byte, at int, n uint32) []byte {
		out := append([]byte(nil), b...)
		binary.BigEndian.PutUint32(out[at:], n)
		return out
	}
	for _, tc := range []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"results/empty claims the old cap", setCount(results, 13, MaxFramePayload/16),
			func(b []byte) error { _, err := DecodeResults(b); return err }},
		{"results/empty claims max", setCount(results, 13, 0xFFFFFFFF),
			func(b []byte) error { _, err := DecodeResults(b); return err }},
		{"results/one pair claims two", setCount(onePair, 13, 2),
			func(b []byte) error { _, err := DecodeResults(b); return err }},
		{"ingest/empty claims the cap", setCount(ingest, 8, MaxBatchSteps),
			func(b []byte) error { _, err := DecodeIngest(b); return err }},
		{"ingest/one step claims two", setCount(oneStep, 8, 2),
			func(b []byte) error { _, err := DecodeIngest(b); return err }},
	} {
		// TotalAlloc is process-wide; the least of a few readings is the
		// decoder's own.
		least := uint64(math.MaxUint64)
		for try := 0; try < 5; try++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			err := tc.decode(tc.payload)
			runtime.ReadMemStats(&m1)
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("%s: err = %v, want ErrBadFrame", tc.name, err)
			}
			least = min(least, m1.TotalAlloc-m0.TotalAlloc)
		}
		if least >= 1024 {
			t.Errorf("%s: decoder allocated %d bytes before rejecting, want < 1 KiB", tc.name, least)
		}
	}
	// A count the payload does hold still decodes: absent payloads make the
	// smallest legal step and the smallest first pair.
	if f, err := DecodeResults(onePair); err != nil || len(f.Pairs) != 1 {
		t.Errorf("minimal pair: %d pairs, err %v", len(f.Pairs), err)
	}
	if f, err := DecodeIngest(oneStep); err != nil || len(f.Steps) != 1 {
		t.Errorf("minimal step: %d steps, err %v", len(f.Steps), err)
	}
}

// TestDecodeResultsRejectsBadSameStepByte: only 0 and 1 are booleans, so
// decode(encode(x)) == x has no second preimage.
func TestDecodeResultsRejectsBadSameStepByte(t *testing.T) {
	payload := EncodeResults(Results{AckSeq: 1, Pairs: []Pair{{RSeq: 1, SSeq: 2, SameStep: true}}})
	const at = resultsHeaderSize + 2*(4+inlineSize) + 2 // two inline sides, no payload bytes, the shard
	if payload[at] != 1 {
		t.Fatalf("same-step byte not at offset %d", at)
	}
	for _, v := range []byte{2, 0x80, 0xFF} {
		payload[at] = v
		if _, err := DecodeResults(payload); !errors.Is(err, ErrBadFrame) {
			t.Errorf("same-step byte 0x%02x: err = %v, want ErrBadFrame", v, err)
		}
	}
	payload[at] = 0
	if f, err := DecodeResults(payload); err != nil || f.Pairs[0].SameStep {
		t.Errorf("same-step byte 0: pair %+v, err %v", f.Pairs, err)
	}
}

// TestDecodeResultsRejectsBadRefs: a reference names an earlier pair of its
// own frame, or the frame is refused — a reference on the first pair, to its
// own pair, forward, past the count, and one behind an inline tuple whose
// payload runs past the frame — and a refused frame leaves the destination's
// elements as they were.
func TestDecodeResultsRejectsBadRefs(t *testing.T) {
	in := Results{AckSeq: 4, Pairs: []Pair{
		{RSeq: 0, SSeq: 1, RKey: 2, SKey: 2, RPayload: []byte("r0"), SPayload: []byte("s1")},
		{RSeq: 0, SSeq: 3, RKey: 2, SKey: 2, RPayload: []byte("r0"), SPayload: []byte("s3")},
		{RSeq: 4, SSeq: 3, RKey: 2, SKey: 2, RPayload: []byte("r4"), SPayload: []byte("s3")},
	}}
	good := EncodeResults(in)
	side := 4 + inlineSize + 2 // one inline side with a 2-byte payload
	p0R := resultsHeaderSize
	p1R := p0R + 2*side + 3 // pair 1's R refers to pair 0
	p2S := p1R + 4 + side + 3 + side
	ref := func(at int) uint32 { return binary.BigEndian.Uint32(good[at:]) }
	if ref(p0R) != 0 || ref(p1R) != 1 || ref(p2S) != 2 || len(good) != p2S+4+3 {
		t.Fatalf("the frame's layout is not the one this test edits: %x", good)
	}
	if out, err := DecodeResults(good); err != nil || !reflect.DeepEqual(out.Pairs, in.Pairs) {
		t.Fatalf("the unedited frame decodes to %+v (%v)", out.Pairs, err)
	}
	set := func(at int, v uint32) []byte {
		b := bytes.Clone(good)
		binary.BigEndian.PutUint32(b[at:], v)
		return b
	}
	kept := Pair{RSeq: 99, RPayload: []byte("kept")}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"first pair refers", set(p0R, 1)},
		{"pair refers to itself", set(p1R, 2)},
		{"forward reference", set(p1R, 3)},
		{"reference past the count", set(p2S, 100)},
		{"reference behind an overlong tuple", set(p0R+4+8+8, uint32(len(good)))},
	} {
		dst := append(make([]Pair, 0, 8), kept)
		res, err := AppendResults(dst, tc.payload)
		if !errors.Is(err, ErrBadFrame) || res.Pairs != nil {
			t.Errorf("%s: %d pairs, err %v; want ErrBadFrame", tc.name, len(res.Pairs), err)
		}
		if !reflect.DeepEqual(dst[0], kept) {
			t.Errorf("%s: the destination's pair became %+v", tc.name, dst[0])
		}
	}
}

// framesOf is the frame reader over a byte slice.
func framesOf(b []byte) *FrameReader { return NewFrameReader(bufio.NewReader(bytes.NewReader(b))) }

func TestFrameReadFrameRoundTrip(t *testing.T) {
	payload := []byte("hello payload")
	frame := Frame(TypeIngest, payload)
	typ, got, err := framesOf(frame).Next()
	if err != nil {
		t.Fatalf("FrameReader.Next: %v", err)
	}
	if typ != TypeIngest || !bytes.Equal(got, payload) {
		t.Fatalf("FrameReader.Next = (0x%02x, %q)", typ, got)
	}
}

func TestReadFrameRejectsOversizePayload(t *testing.T) {
	// A corrupted length field beyond the cap must fail before allocation.
	frame := Frame(TypeIngest, nil)
	frame[1], frame[2], frame[3], frame[4] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := framesOf(frame).Next(); !errors.Is(err, ErrBadFrame) {
		t.Errorf("oversize frame: err = %v, want ErrBadFrame", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	frame := Frame(TypeResults, []byte("full payload"))
	// Body cut short: the declared length never arrives.
	if _, _, err := framesOf(frame[:len(frame)-3]).Next(); !errors.Is(err, ErrBadFrame) {
		t.Errorf("truncated body: err = %v, want ErrBadFrame", err)
	}
	// Header cut short: plain io error so idle disconnects stay untyped.
	if _, _, err := framesOf(frame[:3]).Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated header: err = %v, want ErrUnexpectedEOF", err)
	}
}

// protocolConsts reads wire.go and returns the value of every constant named
// prefix followed by an upper-case letter: the protocol's frame types (Type)
// or error codes (Code). The constant table is the protocol, so a test that
// must cover it reads it rather than a copy.
func protocolConsts(t *testing.T, prefix string) map[string]uint64 {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "wire.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]uint64{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, id := range vs.Names {
				rest, ok := strings.CutPrefix(id.Name, prefix)
				if !ok || rest == "" || rest[0] < 'A' || rest[0] > 'Z' {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.INT {
					t.Fatalf("%s is not an integer literal", id.Name)
				}
				v, err := strconv.ParseUint(lit.Value, 0, 16)
				if err != nil {
					t.Fatal(err)
				}
				out[id.Name] = v
			}
		}
	}
	if len(out) == 0 {
		t.Fatalf("wire.go declares no %s constants", prefix)
	}
	return out
}

// TestFrameTypesHandled: every frame type wire.go declares has a row naming
// the endpoint test in which the receiving side handles it, and that test
// exists. A frame type added without a row, or a row whose test is gone,
// fails here.
func TestFrameTypesHandled(t *testing.T) {
	table := []struct {
		typ       uint8
		dir, test string // dir is relative to this package
	}{
		{TypeHello, "..", "TestProtocolVersionMismatch"},
		{TypeWelcome, "..", "TestClientRespectsCreditWindow"},
		{TypeIngest, "..", "TestProtocolCreditViolation"},
		{TypeResults, "../client", "TestChunkedAndSplitRepliesAreOneListing"},
		{TypeGoodbye, "..", "TestProtocolGoodbyeDetachesCleanly"},
		{TypeError, "..", "TestBadStepRejected"},
	}
	covered := map[uint64]bool{}
	for _, row := range table {
		covered[uint64(row.typ)] = true
		if !declaresTest(t, row.dir, row.test) {
			t.Errorf("frame type 0x%02x names %s in %s, which declares no such test", row.typ, row.test, row.dir)
		}
	}
	for name, v := range protocolConsts(t, "Type") {
		if !covered[v] {
			t.Errorf("frame type %s (0x%02x) has no row naming the endpoint test that handles it", name, v)
		}
	}
}

// declaresTest reports whether a _test.go file in dir declares func name.
func declaresTest(t *testing.T, dir, name string) bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name {
				return true
			}
		}
	}
	return false
}

// TestCodeErrMapping pins the full code↔sentinel table in both directions:
// every code wire.go declares has a row, every code decodes to exactly one
// sentinel, every sentinel encodes back to its code, and no two codes share a
// sentinel.
func TestCodeErrMapping(t *testing.T) {
	table := []struct {
		code     uint16
		sentinel error
	}{
		{CodeOverloaded, ErrOverloaded},
		{CodeDraining, ErrDraining},
		{CodeBadFrame, ErrBadFrame},
		{CodeBadStep, ErrBadStep},
		{CodeSessionBusy, ErrSessionBusy},
		{CodeSeqGap, ErrSeqGap},
		{CodeFlowControl, ErrFlowControl},
		{CodeInternal, ErrInternal},
	}
	covered := map[uint64]bool{}
	for _, tc := range table {
		covered[uint64(tc.code)] = true
	}
	for name, v := range protocolConsts(t, "Code") {
		if !covered[v] {
			t.Errorf("error code %s (%d) has no row", name, v)
		}
	}
	seen := map[error]uint16{}
	for _, tc := range table {
		// Decode direction: the code rebuilds exactly its sentinel.
		got := CodeToErr(tc.code)
		if !errors.Is(got, tc.sentinel) {
			t.Errorf("CodeToErr(%d) = %v, want sentinel %v", tc.code, got, tc.sentinel)
		}
		// Injectivity: the decoded error matches no other sentinel.
		for _, other := range table {
			if other.code != tc.code && errors.Is(got, other.sentinel) {
				t.Errorf("CodeToErr(%d) also matches %v: mapping not injective", tc.code, other.sentinel)
			}
		}
		// Encode direction: the sentinel maps back to the same code.
		if back := ErrToCode(tc.sentinel); back != tc.code {
			t.Errorf("ErrToCode(%v) = %d, want %d", tc.sentinel, back, tc.code)
		}
		if prev, dup := seen[tc.sentinel]; dup {
			t.Errorf("codes %d and %d share sentinel %v", prev, tc.code, tc.sentinel)
		}
		seen[tc.sentinel] = tc.code
	}
	// Wrapped overloads keep their code and hint semantics.
	if got := ErrToCode(&OverloadError{Reason: "queue"}); got != CodeOverloaded {
		t.Errorf("OverloadError code = %d, want %d", got, CodeOverloaded)
	}
	// Unknown errors collapse to CodeInternal on encode; unknown codes decode
	// to an anonymous error that names the code and matches no sentinel.
	if got := ErrToCode(errors.New("surprise")); got != CodeInternal {
		t.Errorf("unknown error code = %d, want %d", got, CodeInternal)
	}
	unknown := CodeToErr(999)
	if unknown == nil {
		t.Fatal("unknown code decoded to nil error")
	}
	if !strings.Contains(unknown.Error(), "999") {
		t.Errorf("unknown-code error %q does not name the code", unknown)
	}
	for _, tc := range table {
		if errors.Is(unknown, tc.sentinel) {
			t.Errorf("unknown code 999 decodes to sentinel %v", tc.sentinel)
		}
	}
}

// EncodeResults encodes f as one bare Results payload (no frame header, no
// size cap) — the reference form of the codec tests.
func EncodeResults(f Results) []byte {
	return new(TupleTable).encode(nil, f, false, math.MaxInt)
}

// EncodeResultsFrame builds the complete Results frame (header included).
// Callers that may exceed MaxFramePayload use EncodeResultsFrames instead.
func EncodeResultsFrame(f Results) []byte {
	return new(TupleTable).encode(nil, f, true, math.MaxInt)
}
