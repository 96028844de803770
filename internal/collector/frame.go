package collector

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Bounded wire framing for the TCP query protocol. Each message is a
// 4-byte big-endian length prefix followed by one self-contained
// payload in the binary encoding of wire.go. The explicit prefix exists
// so both ends can reject an oversized frame *before* allocating or
// decoding anything: a corrupt or hostile length must cost a bounded
// read and a typed error, never an unbounded allocation.

// DefaultMaxFrame bounds one wire frame in bytes. Topology frames for
// very large domains are the biggest legitimate messages; 4 MiB covers
// tens of thousands of links with an order of magnitude to spare.
const DefaultMaxFrame = 4 << 20

// ErrFrameTooLarge is the typed rejection for a frame whose length
// prefix exceeds the configured cap — on read (corrupt or hostile
// prefix) or on write (a response that should never have grown so big).
var ErrFrameTooLarge = errors.New("collector: wire frame too large")

// maxPooledFrame caps what the buffer pool retains: a rare multi-
// megabyte topology frame must not pin its buffer for the life of the
// process. Typical measurement frames are well under a kilobyte.
const maxPooledFrame = 1 << 18

// frameBuf is one pooled frame buffer (w.b) with the codec cursors
// that work on it, so coding a frame allocates nothing of its own. A
// busy query server reads and writes one frame per request, and each
// buffer is dead the moment it hits the socket or has been decoded.
type frameBuf struct {
	w wireWriter
	r wireReader
}

var framePool = sync.Pool{New: func() any {
	return &frameBuf{w: wireWriter{b: make([]byte, 0, 1024)}}
}}

func putFrameBuf(fb *frameBuf) {
	if cap(fb.w.b) <= maxPooledFrame {
		framePool.Put(fb)
	}
}

// writeFrame encodes m as one length-prefixed frame on w.
func writeFrame(w io.Writer, m wireMsg, max int) error {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	fb := framePool.Get().(*frameBuf)
	defer putFrameBuf(fb)
	fb.w.b = append(fb.w.b[:0], 0, 0, 0, 0, wireVersion) // length placeholder, version
	m.encodeWire(&fb.w)
	payload := len(fb.w.b) - 4
	if payload > max {
		return fmt.Errorf("%w: %d > %d bytes", ErrFrameTooLarge, payload, max)
	}
	binary.BigEndian.PutUint32(fb.w.b[:4], uint32(payload))
	_, err := w.Write(fb.w.b)
	return err
}

// readFrame reads one length-prefixed frame from r into m, rejecting
// frames over max bytes without reading (or allocating) their payload.
// The payload buffer is pooled; the decoder copies everything into m,
// so nothing aliases the buffer after return.
func readFrame(r io.Reader, m wireMsg, max int) error {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if int64(n) > int64(max) {
		return fmt.Errorf("%w: prefix claims %d > %d bytes", ErrFrameTooLarge, n, max)
	}
	fb := framePool.Get().(*frameBuf)
	defer putFrameBuf(fb)
	if cap(fb.w.b) < int(n) {
		fb.w.b = make([]byte, n)
	}
	payload := fb.w.b[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return err
	}
	return fb.r.frame(payload, m)
}
