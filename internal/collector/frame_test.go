package collector

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// TestFrameRoundTrip: request and response frames survive the wire.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := request{Op: "util", Key: ChannelKey{Global: 7}, Span: 2.5, BudgetMS: 43.5}
	if err := writeFrame(&buf, &in, 0); err != nil {
		t.Fatal(err)
	}
	var out request
	if err := readFrame(&buf, &out, 0); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

// TestFrameIndependentStreams: each frame is self-contained (no type
// information or state carries over from earlier frames), so a reader
// can start at any frame boundary — the property that makes
// reconnect-after-abort safe.
func TestFrameIndependentStreams(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := writeFrame(&buf, &request{Op: "ping"}, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Skip the first frame entirely, then decode the second from the
	// boundary.
	var hdr [4]byte
	if _, err := io.ReadFull(&buf, hdr[:]); err != nil {
		t.Fatal(err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	buf.Next(int(n))
	var out request
	if err := readFrame(&buf, &out, 0); err != nil {
		t.Fatalf("decoding from a later frame boundary: %v", err)
	}
	if out.Op != "ping" {
		t.Fatalf("got %+v", out)
	}
}

// TestFrameOversizedWriteRejected: an over-limit message is refused at
// encode time with the typed error.
func TestFrameOversizedWriteRejected(t *testing.T) {
	var buf bytes.Buffer
	big := response{Err: string(make([]byte, 4096))}
	err := writeFrame(&buf, &big, 128)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected frame still wrote %d bytes", buf.Len())
	}
}

// TestFrameHostilePrefixRejected: a length prefix claiming a huge
// payload is rejected before any allocation or payload read.
func TestFrameHostilePrefixRejected(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 0xFFFF_FFFF) // claims ~4 GiB
	r := &countingReader{r: bytes.NewReader(hdr[:])}
	var out response
	err := readFrame(r, &out, DefaultMaxFrame)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	if r.n > 4 {
		t.Fatalf("read %d bytes past the rejected prefix", r.n)
	}
}

// TestFrameTruncatedPayload: a frame cut off mid-payload fails with an
// I/O error, not a hang or a panic.
func TestFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, &request{Op: "topo"}, 0); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	var out request
	err := readFrame(bytes.NewReader(cut), &out, 0)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: got %v, want ErrUnexpectedEOF", err)
	}
}

// TestFrameCorruptPayload: a well-sized payload of garbage errors
// cleanly.
func TestFrameCorruptPayload(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("\xff\xfe\xfdnot a frame")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	buf.Write(hdr[:])
	buf.Write(payload)
	var out request
	if err := readFrame(&buf, &out, 0); err == nil {
		t.Fatal("corrupt payload decoded without error")
	}
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}
