package frame

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// hashBlockBytes is how much of its byte stream Hash gathers before
// each write to SHA-256. One write per cell costs several times the
// compression itself; a block of this size makes the write overhead
// negligible while the buffer stays a small per-call allocation.
const hashBlockBytes = 32 << 10

// Hash computes the canonical SHA-256 content hash of the frame: column
// names, dtypes, null masks and values are hashed in order with length
// framing, so identical frames hash identically and any change to a
// value, name, type, or row/column order changes the hash. Unlike hashing
// a CSV rendering, Hash never allocates the serialized form, which makes
// it cheap enough to key caches on (dataset hash, policy hash) per audit.
//
// The stream is, all integers 8-byte little-endian: the column count,
// the row count, then per column its length-prefixed name, its dtype,
// and per row a 0 byte for a null, or a 1 byte and the value (float
// bits, the int, the length-prefixed string, or one byte for a bool).
// It is the identity of every dataset ref and persisted record, so it
// must never change.
func (f *Frame) Hash() string {
	return f.hashWith(make([]byte, 0, hashBlockBytes))
}

// hashWith is Hash gathering the stream in buf, which it writes to
// SHA-256 each time it fills; buf must hold at least 9 bytes.
func (f *Frame) hashWith(buf []byte) string {
	w := hashStream{h: sha256.New(), buf: buf}
	w.uint64(uint64(f.NumCols()))
	w.uint64(uint64(f.NumRows()))
	for _, c := range f.cols {
		w.str(c.name)
		w.uint64(uint64(c.dtype))
		nulls := c.nulls
		null := func(i int) bool { return nulls != nil && nulls[i] }
		switch c.dtype {
		case Float64:
			for i, v := range c.floats {
				w.room(9)
				if null(i) {
					w.buf = append(w.buf, 0)
					continue
				}
				w.buf = binary.LittleEndian.AppendUint64(append(w.buf, 1), math.Float64bits(v))
			}
		case Int64:
			for i, v := range c.ints {
				w.room(9)
				if null(i) {
					w.buf = append(w.buf, 0)
					continue
				}
				w.buf = binary.LittleEndian.AppendUint64(append(w.buf, 1), uint64(v))
			}
		case Bool:
			for i, v := range c.bools {
				w.room(2)
				switch {
				case null(i):
					w.buf = append(w.buf, 0)
				case v:
					w.buf = append(w.buf, 1, 1)
				default:
					w.buf = append(w.buf, 1, 0)
				}
			}
		case String:
			for i, n := 0, c.Len(); i < n; i++ {
				w.room(9)
				if null(i) {
					w.buf = append(w.buf, 0)
					continue
				}
				v := c.strAt(i)
				w.buf = binary.LittleEndian.AppendUint64(append(w.buf, 1), uint64(len(v)))
				w.bytes(v)
			}
		}
	}
	w.flush()
	return hex.EncodeToString(w.h.Sum(nil))
}

// hashStream gathers a byte stream into blocks for a hash.
type hashStream struct {
	h   hash.Hash
	buf []byte
}

// room makes space for n more bytes, writing out a full block first.
func (w *hashStream) room(n int) {
	if len(w.buf)+n > cap(w.buf) {
		w.flush()
	}
}

// flush writes the gathered bytes to the hash.
func (w *hashStream) flush() {
	w.h.Write(w.buf)
	w.buf = w.buf[:0]
}

// uint64 appends v little-endian.
func (w *hashStream) uint64(v uint64) {
	w.room(8)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// str appends s after its length.
func (w *hashStream) str(s string) {
	w.uint64(uint64(len(s)))
	w.bytes(s)
}

// bytes appends s, a block at a time when it does not fit.
func (w *hashStream) bytes(s string) {
	for {
		n := copy(w.buf[len(w.buf):cap(w.buf)], s)
		w.buf, s = w.buf[:len(w.buf)+n], s[n:]
		if s == "" {
			return
		}
		w.flush()
	}
}
