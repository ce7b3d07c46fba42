package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"time"
)

// Wire protocol of the daemon: length-prefixed binary frames over a byte
// stream. Every frame is
//
//	type   uint8
//	length uint32 big-endian   (payload bytes, not counting this header)
//	payload
//
// Integers inside payloads are big-endian; strings and byte slices are
// length-prefixed (uint16 for strings, uint32 for payload blobs). The
// payload cap bounds a malicious or corrupted length field before any
// allocation happens.
//
// The conversation is strictly client-initiated: the client sends Hello and
// receives Welcome, then alternates Ingest with Results/Error frames.
// Result frames carry the credit regrant — there is no standalone credit
// frame — and tag every pair with its global ingress sequence numbers so a
// client that reconnects can discard replayed results it has already seen.

// Frame types.
const (
	TypeHello   = 0x01 // client → server: session attach / resume
	TypeWelcome = 0x02 // server → client: attach accepted, credit grant
	TypeIngest  = 0x03 // client → server: batch of steps
	TypeResults = 0x04 // server → client: pairs + ack + credit regrant
	TypeGoodbye = 0x06 // client → server: clean detach (0x05 is unassigned)
	TypeError   = 0x07 // server → client: typed rejection
)

// Version is bumped on incompatible frame layout changes; Hello carries
// the client's version and the server rejects mismatches with ErrBadFrame.
// Version 2 names each tuple of a Results frame once (tuple references).
const Version = 2

// MaxFramePayload bounds a single frame's payload. 4 MiB comfortably holds
// the largest legal ingest (MaxBatchSteps full-payload steps) while keeping
// a corrupted length field from provoking a giant allocation.
const MaxFramePayload = 4 << 20

// MaxBatchSteps bounds the steps in one ingest frame; larger batches must be
// split by the client (the client package does this transparently).
const MaxBatchSteps = 8192

// MaxPayloadBytes bounds one tuple payload blob, on every ingest route.
// It keeps the largest possible join pair (two echoed payloads plus fixed
// fields) well under MaxFramePayload, which is what lets the results
// chunker guarantee every emitted frame is legal.
const MaxPayloadBytes = 1 << 20

// MaxSessionName bounds the session identifier length.
const MaxSessionName = 256

// Wire error codes, mirrored by the typed errors in errors.go.
const (
	CodeOverloaded  = 1
	CodeDraining    = 2
	CodeBadFrame    = 3
	CodeBadStep     = 4
	CodeSessionBusy = 5
	CodeSeqGap      = 6
	CodeFlowControl = 7
	CodeInternal    = 8
)

// CodeToErr rebuilds the sentinel for a wire code on the client side.
func CodeToErr(code uint16) error {
	switch code {
	case CodeOverloaded:
		return ErrOverloaded
	case CodeDraining:
		return ErrDraining
	case CodeBadFrame:
		return ErrBadFrame
	case CodeBadStep:
		return ErrBadStep
	case CodeSessionBusy:
		return ErrSessionBusy
	case CodeSeqGap:
		return ErrSeqGap
	case CodeFlowControl:
		return ErrFlowControl
	case CodeInternal:
		return ErrInternal
	default:
		return fmt.Errorf("streamd: server error (code %d)", code)
	}
}

// ErrToCode maps a daemon-side error to its wire code.
func ErrToCode(err error) uint16 {
	switch {
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, ErrDraining):
		return CodeDraining
	case errors.Is(err, ErrBadFrame):
		return CodeBadFrame
	case errors.Is(err, ErrBadStep):
		return CodeBadStep
	case errors.Is(err, ErrSessionBusy):
		return CodeSessionBusy
	case errors.Is(err, ErrSeqGap):
		return CodeSeqGap
	case errors.Is(err, ErrFlowControl):
		return CodeFlowControl
	default:
		return CodeInternal
	}
}

// Step is one (R, S) arrival pair in an ingest frame. Payloads travel as
// raw bytes; the daemon stores them opaquely and echoes them back in result
// frames. A nil payload travels as an explicit absent marker and
// round-trips as nil.
type Step struct {
	RKey, SKey         int64
	RPayload, SPayload []byte
}

// Pair is one join result in a results frame, tagged with the global
// ingress sequence numbers of both participating tuples. A tuple is its
// side, sequence number, key and payload: the same tuple in several pairs of
// one frame travels once.
type Pair struct {
	RSeq, SSeq         uint64
	RKey, SKey         int64
	Shard              uint16
	SameStep           bool
	RPayload, SPayload []byte
}

// Hello attaches (or resumes) a session.
type Hello struct {
	Version uint8
	Session string
	LastSeq uint64 // highest batch base the client saw acked; 0 = fresh
}

// Welcome accepts an attach.
type Welcome struct {
	Credits uint32 // initial credit window, in steps
	AckSeq  uint64 // highest batch base the server has processed
}

// Ingest carries a batch. Base is the 1-based batch sequence number of
// this batch within the session; batches must arrive with contiguous bases.
type Ingest struct {
	Base  uint64
	Steps []Step
}

// Results acknowledges batch Base and regrants credits. A reply whose pair
// listing would overflow MaxFramePayload travels as several Results frames:
// every chunk repeats AckSeq/Credits, all but the last set More, and
// the receiver accumulates pairs until More clears (EncodeResultsFrames
// does the splitting).
type Results struct {
	AckSeq  uint64
	Credits uint32
	More    bool // true when further chunks of the same reply follow
	Pairs   []Pair
}

// ErrorFrame is a typed rejection; RetryAfterMillis is meaningful only for
// CodeOverloaded.
type ErrorFrame struct {
	Code             uint16
	RetryAfterMillis uint32
	Msg              string
}

func (e ErrorFrame) RetryAfter() time.Duration {
	return time.Duration(e.RetryAfterMillis) * time.Millisecond
}

// --- encoding -------------------------------------------------------------

// wireBuf is an append-only encoder for frame payloads.
type wireBuf struct{ b []byte }

func (w *wireBuf) u8(v uint8)   { w.b = append(w.b, v) }
func (w *wireBuf) u16(v uint16) { w.b = binary.BigEndian.AppendUint16(w.b, v) }
func (w *wireBuf) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *wireBuf) u64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *wireBuf) i64(v int64)  { w.u64(uint64(v)) }

func (w *wireBuf) str(s string) {
	w.u16(uint16(len(s)))
	w.b = append(w.b, s...)
}

// blob writes a length-prefixed byte slice; nil and empty are distinguished
// (nil = 0xFFFFFFFF marker) so absent payloads round-trip as nil.
func (w *wireBuf) blob(b []byte) {
	if b == nil {
		w.u32(0xFFFFFFFF)
		return
	}
	w.u32(uint32(len(b)))
	w.b = append(w.b, b...)
}

// Frame assembles a complete wire frame (header + payload) as one byte
// slice — the unit of the daemon's writer queues and replay buffers.
func Frame(typ uint8, payload []byte) []byte {
	var w wireBuf
	w.b = make([]byte, 0, 5+len(payload))
	w.u8(typ)
	w.u32(uint32(len(payload)))
	w.b = append(w.b, payload...)
	return w.b
}

func EncodeHello(f Hello) []byte {
	var w wireBuf
	w.u8(f.Version)
	w.str(f.Session)
	w.u64(f.LastSeq)
	return w.b
}

func EncodeWelcome(f Welcome) []byte {
	var w wireBuf
	w.u32(f.Credits)
	w.u64(f.AckSeq)
	return w.b
}

// IngestHeaderSize is the fixed payload prefix of an ingest frame (base +
// step count); StepSize is the exact encoded length of one step. Together
// they let the client split batches so every ingest frame stays under
// MaxFramePayload, mirroring the encoder below exactly.
const IngestHeaderSize = 8 + 4

// minStepSize is the encoded length of a step with two absent payloads.
const minStepSize = 8 + 8 + 4 + 4

func StepSize(st *Step) int {
	return minStepSize + len(st.RPayload) + len(st.SPayload)
}

// appendIngest is the one Ingest encoder: it sizes the batch exactly from
// StepSize, grows dst once if it has to, and appends f — as a complete frame
// with framed set, otherwise as the bare payload.
func appendIngest(dst []byte, f Ingest, framed bool) []byte {
	size := IngestHeaderSize
	for i := range f.Steps {
		size += StepSize(&f.Steps[i])
	}
	total := size
	if framed {
		total += 5
	}
	w := wireBuf{b: slices.Grow(dst, total)}
	if framed {
		w.u8(TypeIngest)
		w.u32(uint32(size))
	}
	w.u64(f.Base)
	w.u32(uint32(len(f.Steps)))
	for i := range f.Steps {
		st := &f.Steps[i]
		w.i64(st.RKey)
		w.i64(st.SKey)
		w.blob(st.RPayload)
		w.blob(st.SPayload)
	}
	return w.b
}

// EncodeIngest encodes f as one bare Ingest payload (no frame header).
func EncodeIngest(f Ingest) []byte { return appendIngest(nil, f, false) }

// AppendIngestFrame appends the complete Ingest frame for f (header
// included) to dst and returns the extended slice. Nothing of f is retained,
// and a dst with room for the frame is not reallocated: a client that sends
// one batch at a time passes its previous frame's buffer, truncated.
func AppendIngestFrame(dst []byte, f Ingest) []byte { return appendIngest(dst, f, true) }

// Results flags byte: bit 1 = More; any other bit is refused.
const resultsFlagMore = 1 << 1

// A Results payload is its header — AckSeq u64, Credits u32, flags u8, pair
// count u32 — and the pairs. A pair is a tuple reference for R, one for S,
// the shard (u16) and the same-step byte (0 or 1). A reference is a u32:
//
//	0      the tuple follows inline: seq u64, key i64, payload blob
//	k ≥ 1  the same tuple as this side of pair k−1 of this frame
//
// A tuple is written inline at the first pair of the frame that names it and
// referred to after that, so a reply carries each tuple's bytes once however
// many pairs it joins in. No reference crosses a frame: every chunk of a
// chunked reply decodes alone.

// resultsHeaderSize is the fixed payload prefix of a Results frame
// (AckSeq + Credits + flags + pair count).
const resultsHeaderSize = 8 + 4 + 1 + 4

// minPairSize is the encoded length of a pair whose two sides are references
// (two references, shard, same-step byte); inlineSize is what a side written
// inline adds to its reference, payload bytes aside (seq, key, blob length).
const (
	minPairSize = 4 + 4 + 2 + 1
	inlineSize  = 8 + 8 + 4
)

// Listing is a reply's pairs in emission order over numbered tuples, as the
// daemon's runtime emits them. A number names one tuple of one side. Pair is
// called once per index, in order, and Tuple only for a tuple written inline;
// its payload (nil when absent) is copied, not kept.
type Listing interface {
	Len() int
	Pair(i int) (r, s uint32, shard uint16, sameStep bool)
	Tuples() int // every number is below it
	Tuple(k uint32) (seq uint64, key int64, payload []byte)
}

// Carriers is the Results encoder's record, per tuple number, of the pair of
// the current frame that carries the tuple inline, stamped per frame. It
// holds no pointer; the zero value is ready, and one kept across replies stops
// allocating once it has seen the most tuples.
type Carriers struct {
	cells []carrier
	stamp uint32 // the current frame's
}

type carrier struct{ stamp, pair uint32 }

// newFrame starts a frame over n tuple numbers. Stamps wrap after 2^32
// frames, and only then are the cells cleared.
func (c *Carriers) newFrame(n int) {
	if len(c.cells) < n {
		c.cells = make([]carrier, max(n, 2*len(c.cells)))
	}
	if c.stamp++; c.stamp == 0 {
		clear(c.cells)
		c.stamp = 1
	}
}

// refer returns the reference for tuple k in pair i, in the frame that starts
// at pair start: j − start + 1 when pair j carries it, otherwise 0 — and pair
// i carries it.
func (c *Carriers) refer(i, start int, k uint32) uint32 {
	e := &c.cells[k]
	if e.stamp == c.stamp {
		return e.pair - uint32(start) + 1
	}
	*e = carrier{stamp: c.stamp, pair: uint32(i)}
	return 0
}

// encodeResults is the one Results encoder. It appends the reply described by
// f's header fields over the pairs of src (f.Pairs is not read) to dst in one
// pass: with framed set, as complete frames whose payloads stay within limit,
// otherwise as one bare payload. The source's type is a parameter so that it
// is not boxed into an interface value per reply. A chunk closes when the next
// pair would overflow it and always takes at least one pair; every chunk
// repeats AckSeq and Credits, and all but the last set More. A chunk's
// length, flags and pair count are written when it closes; c finds the
// repeats, a chunk at a time, and a tuple is read only to be written inline.
func encodeResults[L Listing](dst []byte, f Results, src L, c *Carriers, framed bool, limit int) []byte {
	w := wireBuf{b: dst}
	hdr := 0
	if framed {
		hdr = 5
	}
	tuples := src.Tuples()
	at, start := w.openResults(f, framed), 0
	c.newFrame(tuples)
	n := src.Len()
	for i := 0; i < n; i++ {
		r, s, shard, sameStep := src.Pair(i)
		rref, sref := c.refer(i, start, r), c.refer(i, start, s)
		var rseq, sseq uint64
		var rkey, skey int64
		var rp, sp []byte
		size := minPairSize
		if rref == 0 {
			rseq, rkey, rp = src.Tuple(r)
			size += inlineSize + len(rp)
		}
		if sref == 0 {
			sseq, skey, sp = src.Tuple(s)
			size += inlineSize + len(sp)
		}
		if i > start && len(w.b)-at-hdr+size > limit {
			w.closeResults(at, framed, true, i-start)
			at, start = w.openResults(f, framed), i
			c.newFrame(tuples)
			if rref != 0 {
				rseq, rkey, rp = src.Tuple(r)
			}
			if sref != 0 {
				sseq, skey, sp = src.Tuple(s)
			}
			rref, sref = c.refer(i, start, r), c.refer(i, start, s)
		}
		w.tuple(rref, rseq, rkey, rp)
		w.tuple(sref, sseq, skey, sp)
		w.u16(shard)
		if sameStep {
			w.u8(1)
		} else {
			w.u8(0)
		}
	}
	w.closeResults(at, framed, f.More, n-start)
	return w.b
}

// TupleTable numbers the tuples of a []Pair for the Results encoder (the
// []Pair entry points go through one): an open-addressed table from (side,
// seq), probed linearly. Two sides are one tuple when side, seq, key and
// payload bytes are equal (absent is not empty), numbered 2i+side after the
// first pair i that names it. The zero value is ready; a table holds no pointer
// between encodes and, kept, stops allocating at the largest listing.
type TupleTable struct {
	cells    []tupleCell
	shift    uint8  // 64 − log2(len(cells)): a hash's top bits index the table
	tuples   int    // numbered in the current listing
	ps       []Pair // the listing, while it is encoded
	nums     []uint32
	carriers Carriers
}

// tupleCell is a tuple's seq and its number + 1; 0 is an empty cell.
type tupleCell struct {
	seq  uint64
	num1 uint32
}

// numbered is the listing t has numbered: side s of pair i is nums[2i+s].
type numbered struct{ t *TupleTable }

func (l numbered) Len() int { return len(l.t.ps) }

func (l numbered) Pair(i int) (r, s uint32, shard uint16, sameStep bool) {
	return l.t.nums[2*i], l.t.nums[2*i+1], l.t.ps[i].Shard, l.t.ps[i].SameStep
}

func (l numbered) Tuples() int { return len(l.t.nums) }

func (l numbered) Tuple(k uint32) (uint64, int64, []byte) {
	p := &l.t.ps[k>>1]
	if k&1 == 1 {
		return p.SSeq, p.SKey, p.SPayload
	}
	return p.RSeq, p.RKey, p.RPayload
}

func (t *TupleTable) home(seq uint64, side uint32) int {
	return int((seq<<1 | uint64(side)) * 0x9E3779B97F4A7C15 >> t.shift)
}

// grow doubles the table (16 cells at first) and re-enters its cells.
func (t *TupleTable) grow() {
	old := t.cells
	t.cells = make([]tupleCell, max(2*len(old), 16))
	t.shift = uint8(64 - bits.Len(uint(len(t.cells)-1)))
	mask := len(t.cells) - 1
	for _, c := range old {
		if c.num1 == 0 {
			continue
		}
		h := t.home(c.seq, (c.num1-1)&1)
		for t.cells[h].num1 != 0 {
			h = (h + 1) & mask
		}
		t.cells[h] = c
	}
}

// encode is encodeResults over f.Pairs, numbered by t, which keeps no pair
// past it.
func (t *TupleTable) encode(dst []byte, f Results, framed bool, limit int) []byte {
	clear(t.cells)
	t.ps, t.tuples, t.nums = f.Pairs, 0, slices.Grow(t.nums[:0], 2*len(f.Pairs))
	for k := range 2 * len(f.Pairs) {
		t.nums = append(t.nums, t.number(uint32(k)))
	}
	dst = encodeResults(dst, f, numbered{t}, &t.carriers, framed, limit)
	t.ps = nil
	return dst
}

// number returns the number of side k&1 of pair k>>1: k, unless an earlier
// pair names the same tuple.
func (t *TupleTable) number(k uint32) uint32 {
	if 2*(t.tuples+1) > len(t.cells) {
		t.grow()
	}
	l, mask := numbered{t}, len(t.cells)-1
	seq, key, payload := l.Tuple(k)
	for h := t.home(seq, k&1); ; h = (h + 1) & mask {
		c := &t.cells[h]
		if c.num1 == 0 {
			*c = tupleCell{seq: seq, num1: k + 1}
			t.tuples++
			return k
		}
		if n := c.num1 - 1; c.seq == seq && n&1 == k&1 {
			if _, ck, cp := l.Tuple(n); ck == key && samePayload(cp, payload) {
				return n
			}
		}
	}
}

// samePayload: both absent, or both present with equal bytes.
func samePayload(a, b []byte) bool {
	return (a == nil) == (b == nil) && bytes.Equal(a, b)
}

// openResults appends the headers of a Results chunk and returns where it
// starts; its length, flags and pair count are closeResults' to write.
func (w *wireBuf) openResults(f Results, framed bool) int {
	at := len(w.b)
	if framed {
		w.u8(TypeResults)
		w.u32(0)
	}
	w.u64(f.AckSeq)
	w.u32(f.Credits)
	w.u8(0)
	w.u32(0)
	return at
}

// closeResults completes the chunk that starts at at: it holds the pairs
// since, count of them, and more says whether another chunk follows.
func (w *wireBuf) closeResults(at int, framed, more bool, count int) {
	b := w.b[at:]
	if framed {
		binary.BigEndian.PutUint32(b[1:], uint32(len(b)-5))
		b = b[5:]
	}
	var flags uint8
	if more {
		flags |= resultsFlagMore
	}
	b[12] = flags
	binary.BigEndian.PutUint32(b[13:], uint32(count))
}

// tuple writes one side of a pair: its reference, and after a 0 the tuple.
func (w *wireBuf) tuple(ref uint32, seq uint64, key int64, payload []byte) {
	w.u32(ref)
	if ref == 0 {
		w.u64(seq)
		w.i64(key)
		w.blob(payload)
	}
}

// EncodeResultsFrames encodes f as one or more complete Results frames
// concatenated into a single byte slice, splitting the pair listing so that
// no frame payload exceeds MaxFramePayload (a join-heavy batch can produce
// a reply far larger than the ingest that caused it). Because ingest
// payloads are capped at MaxPayloadBytes, a single pair always fits a
// frame, so the split cannot fail. The concatenation is the daemon's unit
// of delivery and replay — one writer-queue entry, one replay buffer — and
// decodes on the client as an ordinary frame sequence.
func EncodeResultsFrames(f Results) []byte {
	return new(TupleTable).encode(nil, f, true, MaxFramePayload)
}

// AppendResultsFramesFrom is EncodeResultsFrames with the pair listing read
// from src instead of f.Pairs, the repeats found with c, and the frames
// appended to dst. A dst with room for the reply is not reallocated: the
// daemon passes the session's previous reply, truncated, once nothing else
// reads it, and the carriers its engine loop keeps.
func AppendResultsFramesFrom[L Listing](dst []byte, f Results, src L, c *Carriers) []byte {
	return encodeResults(dst, f, src, c, true, MaxFramePayload)
}

func EncodeError(f ErrorFrame) []byte {
	var w wireBuf
	w.u16(f.Code)
	w.u32(f.RetryAfterMillis)
	w.str(f.Msg)
	return w.b
}

// --- decoding -------------------------------------------------------------

// wireCursor is a truncation-safe decoder over a frame payload: every read
// checks remaining length and poisons the cursor on underflow, so decode
// functions can read unconditionally and check err once at the end. It reads
// at an offset into b and never reslices b: a read stores an integer, not a
// pointer, so it takes no GC write barrier.
type wireCursor struct {
	b   []byte
	off int
	err error
}

// take reads the next n bytes as a view into the frame buffer: the decoders
// read a record's fixed part with one take, its fields at constant offsets.
func (c *wireCursor) take(n int) []byte {
	if c.err != nil || n < 0 || n > len(c.b)-c.off {
		c.truncate(n)
		return nil
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out
}

// truncate poisons the cursor, unless it already is, for a read of n bytes
// past the end.
func (c *wireCursor) truncate(n int) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: truncated payload (want %d bytes, have %d)", ErrBadFrame, n, len(c.b)-c.off)
	}
}

func (c *wireCursor) u8() uint8 {
	b := c.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (c *wireCursor) u16() uint16 {
	b := c.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (c *wireCursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (c *wireCursor) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (c *wireCursor) str() string {
	n := int(c.u16())
	return string(c.take(n))
}

// blob reads the payload whose length field, n, was just read, as a view into
// the frame buffer; present is false for the absent marker (and after an
// error).
func (c *wireCursor) blob(n uint32) (b []byte, present bool) {
	if n == 0xFFFFFFFF {
		return nil, false
	}
	b = c.take(int(n))
	return b, c.err == nil
}

// view reads a length-prefixed byte slice as a view into the frame buffer.
func (c *wireCursor) view() (b []byte, present bool) { return c.blob(c.u32()) }

// side reads one side of pair i of a Results frame: a reference k ≥ 1 to an
// earlier pair of the frame, or 0 and the tuple inline — its seq, key and
// payload length under one length check, its payload a view (present is false
// for the absent marker). A reference to pair i or later is a frame violation.
func (c *wireCursor) side(i int) (ref uint32, seq uint64, key int64, payload []byte, present bool) {
	b, off := c.b, c.off
	if c.err != nil || len(b)-off < 4 {
		c.truncate(4)
		return 0, 0, 0, nil, false
	}
	if ref = binary.BigEndian.Uint32(b[off:]); ref != 0 {
		if c.off = off + 4; uint64(ref) > uint64(i) {
			c.err = fmt.Errorf("%w: pair %d refers to pair %d, not one before it", ErrBadFrame, i, uint64(ref)-1)
		}
		return ref, 0, 0, nil, false
	}
	if c.off = off + 4; len(b)-c.off < inlineSize {
		c.truncate(inlineSize)
		return 0, 0, 0, nil, false
	}
	t := b[c.off : c.off+inlineSize]
	c.off += inlineSize
	payload, present = c.blob(binary.BigEndian.Uint32(t[16:]))
	return 0, binary.BigEndian.Uint64(t), int64(binary.BigEndian.Uint64(t[8:])), payload, present
}

// copyPayloads copies the payloads one pair carries inline into one
// allocation: r is clipped to its own length, so appending to it cannot reach
// s. Absent stays nil and empty stays non-nil empty (make of zero bytes is
// non-nil and allocates nothing).
func copyPayloads(rv []byte, rok bool, sv []byte, sok bool) (r, s []byte) {
	buf := make([]byte, len(rv)+len(sv))
	n := copy(buf, rv)
	copy(buf[n:], sv)
	if rok {
		r = buf[:n:n]
	}
	if sok {
		s = buf[n:]
	}
	return r, s
}

// badFlag is the error for a boolean byte other than 0 or 1: decoding is the
// exact inverse of encoding.
func badFlag(b byte) error {
	return fmt.Errorf("%w: boolean byte 0x%02x (want 0 or 1)", ErrBadFrame, b)
}

// count reads an element count and rejects one the rest of the payload
// cannot hold at minSize bytes an element, so the slice a decoder
// preallocates from it is bounded by the bytes actually received.
func (c *wireCursor) count(minSize int, what string) int {
	n := c.u32()
	if left := len(c.b) - c.off; c.err == nil && uint64(n) > uint64(left/minSize) {
		c.err = fmt.Errorf("%w: %d %s claimed, %d payload bytes left hold at most %d", ErrBadFrame, n, what, left, left/minSize)
	}
	if c.err != nil {
		return 0
	}
	return int(n)
}

// done rejects trailing garbage after a complete decode.
func (c *wireCursor) done() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.b) {
		return fmt.Errorf("%w: %d trailing bytes after frame payload", ErrBadFrame, len(c.b)-c.off)
	}
	return nil
}

// FrameReader is the one frame reader, over the buffered reader each end of
// a connection already has. A frame is returned as a view that dies at the
// next call — every decoder copies out what it keeps — of that reader's
// buffer when it fits (no header object, no payload copy), otherwise of the
// one slice the FrameReader owns for large frames. That slice is as long as
// the largest frame the connection has carried (MaxFramePayload bounds it) and
// goes when the FrameReader does, with the connection.
type FrameReader struct {
	rd    *bufio.Reader
	held  int    // length of the frame the last Next returned as a view of rd: still buffered
	large []byte // backs every frame too long for rd's buffer; grows, never shrinks
}

func NewFrameReader(rd *bufio.Reader) *FrameReader { return &FrameReader{rd: rd} }

// Next reads one complete frame, enforcing the payload cap before any
// allocation. A stream that ends inside a header is io.ErrUnexpectedEOF
// (io.EOF between frames), inside a body ErrBadFrame.
func (fr *FrameReader) Next() (typ uint8, payload []byte, err error) {
	_, _ = fr.rd.Discard(fr.held) // buffered since the last call: cannot fail
	fr.held = 0
	hdr, err := fr.rd.Peek(5)
	if err != nil {
		if len(hdr) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	typ, n := hdr[0], int(binary.BigEndian.Uint32(hdr[1:]))
	if n > MaxFramePayload {
		return 0, nil, fmt.Errorf("%w: frame payload %d exceeds cap %d", ErrBadFrame, n, MaxFramePayload)
	}
	var frame []byte
	if 5+n <= fr.rd.Size() {
		frame, err = fr.rd.Peek(5 + n)
		fr.held = len(frame)
	} else {
		if cap(fr.large) < 5+n {
			fr.large = make([]byte, 5+n)
		}
		frame = fr.large[:5+n]
		_, err = io.ReadFull(fr.rd, frame)
	}
	if err != nil {
		return 0, nil, fmt.Errorf("%w: truncated frame body: %v", ErrBadFrame, err)
	}
	return typ, frame[5:], nil
}

func DecodeHello(b []byte) (Hello, error) {
	c := wireCursor{b: b}
	f := Hello{Version: c.u8(), Session: c.str(), LastSeq: c.u64()}
	if err := c.done(); err != nil {
		return Hello{}, err
	}
	if len(f.Session) == 0 || len(f.Session) > MaxSessionName {
		return Hello{}, fmt.Errorf("%w: session name length %d (want 1..%d)", ErrBadFrame, len(f.Session), MaxSessionName)
	}
	return f, nil
}

func DecodeWelcome(b []byte) (Welcome, error) {
	c := wireCursor{b: b}
	f := Welcome{Credits: c.u32(), AckSeq: c.u64()}
	if err := c.done(); err != nil {
		return Welcome{}, err
	}
	return f, nil
}

// StepSink receives an ingest frame's steps as they are decoded — the mirror
// of PairSource: the daemon decodes into its runtime's steps, not a []Step.
type StepSink interface {
	// Grow announces n more steps; n is bounded by the bytes received.
	Grow(n int)
	// Step takes step i. The payloads are copies the sink may keep (nil is an
	// absent payload). An error ends the decode and is returned as it is.
	Step(i int, rkey, skey int64, rpayload, spayload []byte) error
}

func (f *Ingest) Grow(n int) { f.Steps = slices.Grow(f.Steps, n) }

func (f *Ingest) Step(_ int, rkey, skey int64, rpayload, spayload []byte) error {
	f.Steps = append(f.Steps, Step{RKey: rkey, SKey: skey, RPayload: rpayload, SPayload: spayload})
	return nil
}

// DecodeIngestTo is the one Ingest decoder: it hands the frame's steps to
// sink and returns the batch base. A step is read in one pass: its length is
// checked once for its keys and R length, once for its S length, and each
// present payload is copied out. On error the sink has seen some of the
// steps, each of them whole.
func DecodeIngestTo(sink StepSink, b []byte) (base uint64, err error) {
	c := wireCursor{b: b}
	base = c.u64()
	n := c.count(minStepSize, "steps")
	if n > MaxBatchSteps {
		return 0, fmt.Errorf("%w: batch of %d steps exceeds cap %d", ErrBadFrame, n, MaxBatchSteps)
	}
	sink.Grow(n)
	for i := range n {
		st := c.take(8 + 8 + 4)
		if st == nil {
			break
		}
		rv, rok := c.blob(binary.BigEndian.Uint32(st[16:]))
		sv, sok := c.view()
		if c.err != nil {
			break
		}
		err = sink.Step(i, int64(binary.BigEndian.Uint64(st)), int64(binary.BigEndian.Uint64(st[8:])), clonePayload(rv, rok), clonePayload(sv, sok))
		if err != nil {
			return 0, err
		}
	}
	return base, c.done()
}

// clonePayload copies a payload view out of the frame buffer, so the caller
// may retain it after the buffer is gone; absent stays nil.
func clonePayload(v []byte, present bool) []byte {
	if !present {
		return nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

// DecodeIngest decodes one Ingest payload into an Ingest of its own.
func DecodeIngest(b []byte) (Ingest, error) {
	f := &Ingest{Steps: []Step{}}
	var err error
	if f.Base, err = DecodeIngestTo(f, b); err != nil {
		return Ingest{}, err
	}
	return *f, nil
}

// DecodeResults decodes one Results payload. The pairs are the caller's:
// nothing in them aliases b. Pairs that name one tuple share its payload
// bytes, and the payloads a pair carries inline share one allocation, so a
// pair keeps at most two allocations alive.
func DecodeResults(b []byte) (Results, error) { return AppendResults(nil, b) }

// resultsHeader reads the fixed prefix of a Results payload.
func (c *wireCursor) resultsHeader() Results {
	f := Results{AckSeq: c.u64(), Credits: c.u32()}
	flags := c.u8()
	if c.err == nil && flags&^resultsFlagMore != 0 {
		c.err = fmt.Errorf("%w: unknown results flags 0x%02x", ErrBadFrame, flags)
	}
	f.More = flags&resultsFlagMore != 0
	return f
}

// AppendResults is the one Results decoder: DecodeResults, with the frame's
// pairs appended to dst and the extended slice returned as Pairs, so a reply
// that arrives in several frames (More) or batches is written once into the
// slice its consumer ends up holding. A referenced side is the earlier pair's
// tuple, payload slice included. On error dst's elements are untouched and
// the returned Results is empty; what was written beyond len(dst) is garbage
// the caller never sees. A pair is read in one pass, its shard and same-step
// byte checked at once, and written in place in the destination.
func AppendResults(dst []Pair, b []byte) (Results, error) {
	c := wireCursor{b: b}
	f := c.resultsHeader()
	n := c.count(minPairSize, "pairs")
	f.Pairs = slices.Grow(dst, n)[:len(dst)+n]
	pairs := f.Pairs[len(dst):]
	for i := range pairs {
		rref, rseq, rkey, rv, rok := c.side(i)
		sref, sseq, skey, sv, sok := c.side(i)
		t := c.take(2 + 1)
		if t == nil {
			break
		}
		if t[2] > 1 {
			return Results{}, badFlag(t[2])
		}
		var r, s []byte
		if rok || sok {
			r, s = copyPayloads(rv, rok, sv, sok)
		}
		if rref != 0 {
			q := &pairs[rref-1]
			rseq, rkey, r = q.RSeq, q.RKey, q.RPayload
		}
		if sref != 0 {
			q := &pairs[sref-1]
			sseq, skey, s = q.SSeq, q.SKey, q.SPayload
		}
		p := &pairs[i]
		p.RSeq, p.SSeq, p.RKey, p.SKey, p.RPayload, p.SPayload = rseq, sseq, rkey, skey, r, s
		p.Shard, p.SameStep = binary.BigEndian.Uint16(t), t[2] == 1
	}
	if err := c.done(); err != nil {
		return Results{}, err
	}
	return f, nil
}

func DecodeError(b []byte) (ErrorFrame, error) {
	c := wireCursor{b: b}
	f := ErrorFrame{Code: c.u16(), RetryAfterMillis: c.u32(), Msg: c.str()}
	if err := c.done(); err != nil {
		return ErrorFrame{}, err
	}
	return f, nil
}
