package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB, 0x00, 0x7F}, 1000)} {
		var buf bytes.Buffer
		if err := Write(&buf, payload); err != nil {
			t.Fatalf("Write: %v", err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload round-trip: got %d bytes, want %d", len(got), len(payload))
		}
	}
}

func envelope(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, payload); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func TestBadMagic(t *testing.T) {
	env := envelope(t, []byte("hello"))
	env[0] = 'X'
	if _, err := Read(bytes.NewReader(env)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("got %v, want ErrBadMagic", err)
	}
}

func TestUnsupportedVersion(t *testing.T) {
	env := envelope(t, []byte("hello"))
	binary.LittleEndian.PutUint32(env[4:8], Version+1)
	if _, err := Read(bytes.NewReader(env)); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("future version: got %v, want ErrUnsupportedVersion", err)
	}
	binary.LittleEndian.PutUint32(env[4:8], 0)
	if _, err := Read(bytes.NewReader(env)); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("version 0: got %v, want ErrUnsupportedVersion", err)
	}
}

func TestChecksumMismatch(t *testing.T) {
	env := envelope(t, []byte("hello"))
	env[16] ^= 0xFF // flip a payload byte
	if _, err := Read(bytes.NewReader(env)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt payload: got %v, want ErrChecksum", err)
	}
	env = envelope(t, []byte("hello"))
	env[len(env)-1] ^= 0xFF // flip a checksum byte
	if _, err := Read(bytes.NewReader(env)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt checksum: got %v, want ErrChecksum", err)
	}
}

func TestTruncated(t *testing.T) {
	env := envelope(t, []byte("hello"))
	for _, cut := range []int{0, 3, 15, 17, len(env) - 1} {
		if _, err := Read(bytes.NewReader(env[:cut])); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: got %v, want ErrTruncated", cut, err)
		}
	}
}

func TestOversizedDeclaredLength(t *testing.T) {
	env := envelope(t, []byte("hello"))
	binary.LittleEndian.PutUint64(env[8:16], MaxPayload+1)
	_, err := Read(bytes.NewReader(env))
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("oversized length: got %v, want typed error", err)
	}
}

// A header may declare up to MaxPayload bytes; a stream that holds five of
// them costs what it holds, not a gigabyte, before it is refused as
// truncated.
func TestDeclaredLengthCostsWhatTheStreamHolds(t *testing.T) {
	env := envelope(t, []byte("hello"))
	binary.LittleEndian.PutUint64(env[8:16], MaxPayload)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(env))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("got %v, want ErrTruncated", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("reading a 25-byte stream that declares %d bytes allocated %d bytes", MaxPayload, n)
	}
}
