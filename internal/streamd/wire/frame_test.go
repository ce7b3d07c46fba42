package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"testing"
)

// The one frame reader: what a view is worth (no object per frame), how long
// it lives (until the next read, and no decoder outlives it), and — the
// fuzzer — that it frames any byte stream, in any read sizes, exactly like
// the plain header-then-ReadFull reader it replaced.

// refReadFrame is the reference: a 5-byte header, then the declared payload
// in a slice of its own. A body the rest of the input cannot hold is refused
// before it is allocated, which the reference can afford to know.
func refReadFrame(rd *bytes.Reader) (typ uint8, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(rd, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFramePayload || int(n) > rd.Len() {
		return 0, nil, fmt.Errorf("%w: frame payload of %d, cap %d, %d bytes left", ErrBadFrame, n, MaxFramePayload, rd.Len())
	}
	payload = make([]byte, n)
	_, _ = io.ReadFull(rd, payload)
	return hdr[0], payload, nil
}

// chunkReader delivers b in reads of 1 + sizes[k mod len] bytes.
type chunkReader struct {
	b, sizes []byte
	k        int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := min(1+int(r.sizes[r.k%len(r.sizes)]), len(p), len(r.b))
	r.k++
	copy(p, r.b[:n])
	r.b = r.b[n:]
	return n, nil
}

// TestFrameViewDiesAtTheNextRead: a frame that fits the reader's buffer is a
// view of it, and the next read reuses those bytes. Every frame of a stream —
// small ones that are views, two that outgrow the 256-byte buffer — is
// decoded, its payload is then overwritten (a view is the caller's until the
// next read), the next frame is read over it, and only then are the decoded
// values compared with what was encoded: nothing a decoder returns may alias
// the frame it came from. Frames that are views cost no object at all.
func TestFrameViewDiesAtTheNextRead(t *testing.T) {
	want := []interface{}{
		Hello{Version: Version, Session: "view", LastSeq: 7},
		ingestOf(3, 16),
		resultsOf(2, 24),
		ingestOf(40, 0), // 977 bytes: the reader's large buffer
		ErrorFrame{Code: CodeOverloaded, RetryAfterMillis: 50, Msg: "shed"},
		resultsOf(30, 8), // 2027 bytes: the large buffer again, grown
		Welcome{Credits: 4096, AckSeq: 9},
		ingestOf(1, 64),
	}
	var stream []byte
	for _, v := range want {
		switch v := v.(type) {
		case Hello:
			stream = append(stream, Frame(TypeHello, EncodeHello(v))...)
		case Welcome:
			stream = append(stream, Frame(TypeWelcome, EncodeWelcome(v))...)
		case Ingest:
			stream = AppendIngestFrame(stream, v)
		case Results:
			stream = append(stream, EncodeResultsFrame(v)...)
		case ErrorFrame:
			stream = append(stream, Frame(TypeError, EncodeError(v))...)
		}
	}
	fr := NewFrameReader(bufio.NewReaderSize(&chunkReader{b: stream, sizes: []byte{200, 3, 90}}, 256))
	var got []interface{}
	for range want {
		typ, payload, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", len(got), err)
		}
		var v interface{}
		switch typ {
		case TypeHello:
			v, err = DecodeHello(payload)
		case TypeWelcome:
			v, err = DecodeWelcome(payload)
		case TypeIngest:
			v, err = DecodeIngest(payload)
		case TypeResults:
			v, err = DecodeResults(payload)
		case TypeError:
			v, err = DecodeError(payload)
		}
		if err != nil {
			t.Fatalf("frame %d (type 0x%02x): %v", len(got), typ, err)
		}
		got = append(got, v)
		for i := range payload {
			payload[i] = 0xEE
		}
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
	for k := range want {
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Errorf("frame %d decoded to\n %+v\nafter the frames behind it were read, want\n %+v", k, got[k], want[k])
		}
	}

	small := bytes.Repeat(Frame(TypeGoodbye, make([]byte, 100)), 64)
	rd := bytes.NewReader(small)
	br := bufio.NewReaderSize(rd, 256)
	fr = NewFrameReader(br)
	if allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(small)
		br.Reset(rd)
		for {
			if _, _, err := fr.Next(); err != nil {
				break
			}
		}
	}); allocs != 0 {
		t.Errorf("reading 64 frames that fit the buffer allocates %.0f objects, want 0", allocs)
	}
}

// TestFrameReaderOwnsOneLargeBuffer: frames too long for the buffered reader
// all land in the one slice the FrameReader owns. The first large frame pays
// for it, a smaller large frame is read into the same bytes (so the view of
// the first is dead, like any view, at that Next) without shrinking it, and a
// connection that has seen its largest frame reads every later one, large or
// small, without allocating.
func TestFrameReaderOwnsOneLargeBuffer(t *testing.T) {
	big := Frame(TypeResults, bytes.Repeat([]byte{0xB1}, 3000))
	mid := Frame(TypeIngest, bytes.Repeat([]byte{0x3D}, 1000))
	small := Frame(TypeGoodbye, []byte("view"))
	stream := slices.Concat(big, small, mid, big)
	rd := bytes.NewReader(stream)
	br := bufio.NewReaderSize(rd, 256)
	fr := NewFrameReader(br)
	next := func(typ uint8, n int) []byte {
		t.Helper()
		gotTyp, payload, err := fr.Next()
		if err != nil || gotTyp != typ || len(payload) != n {
			t.Fatalf("frame 0x%02x of %d bytes (%v), want 0x%02x of %d", gotTyp, len(payload), err, typ, n)
		}
		return payload
	}
	first := next(TypeResults, 3000)
	kept := bytes.Clone(first)
	next(TypeGoodbye, 4)
	if !bytes.Equal(first, kept) {
		t.Fatal("a frame that fits the reader's buffer was read over the large buffer")
	}
	second := next(TypeIngest, 1000)
	if &second[0] != &first[0] {
		t.Fatal("the second large frame has a slice of its own, want the one the reader owns")
	}
	if first[0] != 0x3D {
		t.Fatal("the first large frame's view survived the Next that read the second")
	}
	if got := cap(fr.large); got != len(big) {
		t.Fatalf("after a %d-byte frame the large buffer holds %d bytes, want the %d of the largest frame seen", len(mid), got, len(big))
	}
	if third := next(TypeResults, 3000); &third[0] != &first[0] || !bytes.Equal(third, kept) {
		t.Fatal("the third large frame is not the first one's bytes in the first one's storage")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(stream)
		br.Reset(rd)
		for {
			if _, _, err := fr.Next(); err != nil {
				break
			}
		}
	}); allocs != 0 {
		t.Errorf("reading large frames the connection has seen the size of allocates %.0f objects, want 0", allocs)
	}
}

// FuzzFrameReader: arbitrary bytes, delivered in arbitrary read sizes through
// a 64-byte buffered reader, are framed exactly as by refReadFrame — same
// types and payloads, then the same end: io.EOF between frames,
// io.ErrUnexpectedEOF inside a header, ErrBadFrame for a length over the cap
// or a body cut short; never a panic. What the reader allocates is bounded by
// the input: at most allocPerByte a byte plus a constant — plus, when the
// stream ends inside a frame too large for the buffer, the large buffer
// grown to what that frame was promised (the cap bounds it; a length over the
// cap allocates nothing). The committed corpus has a large-small-large
// sequence: the frames share that buffer and the reference must not notice.
func FuzzFrameReader(f *testing.F) {
	f.Add(Frame(TypeGoodbye, nil), []byte{0})
	f.Fuzz(func(t *testing.T, data, sizes []byte) {
		if len(sizes) == 0 {
			sizes = []byte{0}
		}
		const bufSize = 64
		read := func(each func(typ uint8, payload []byte)) error {
			fr := NewFrameReader(bufio.NewReaderSize(&chunkReader{b: data, sizes: sizes}, bufSize))
			for {
				typ, payload, err := fr.Next()
				if err != nil {
					return err
				}
				each(typ, payload)
			}
		}
		ref := bytes.NewReader(data)
		var refErr error
		frames := 0
		err := read(func(typ uint8, payload []byte) {
			var wtyp uint8
			var want []byte
			if refErr == nil {
				wtyp, want, refErr = refReadFrame(ref)
			}
			if refErr != nil || typ != wtyp || !bytes.Equal(payload, want) {
				t.Fatalf("frame %d: got type 0x%02x payload %x, reference type 0x%02x payload %x (err %v)", frames, typ, payload, wtyp, want, refErr)
			}
			frames++
		})
		if refErr == nil {
			_, _, refErr = refReadFrame(ref)
		}
		for _, class := range []error{io.EOF, io.ErrUnexpectedEOF, ErrBadFrame} {
			if errors.Is(err, class) != errors.Is(refErr, class) {
				t.Fatalf("after %d frames the stream ends with %v, the reference with %v", frames, err, refErr)
			}
		}

		bound := uint64(allocPerByte*len(data) + allocSlack)
		if errors.Is(refErr, ErrBadFrame) { // the reference stopped right behind the header it refused
			hdr := data[len(data)-ref.Len()-5:]
			if n := binary.BigEndian.Uint32(hdr[1:]); n <= MaxFramePayload && 5+n > bufSize {
				bound += uint64(n) + 8192 // the promised slice, rounded up to its size class
			}
		}
		if got := allocatedBy(bound, func() { _ = read(func(uint8, []byte) {}) }); got > bound {
			t.Fatalf("framing %d bytes allocated %d, want <= %d", len(data), got, bound)
		}
	})
}
