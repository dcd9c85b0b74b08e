// Package strarena provides a bump-pointer arena for short-lived result
// strings produced by hot UDF loops (lower/upper, concatenation,
// percent formatting). Each interned string costs an amortized fraction
// of one chunk allocation instead of its own heap object, which is
// where most of the per-row allocation count of string-heavy pipelines
// goes.
//
// Safety model: chunks are append-only. Intern copies the bytes to the
// chunk's tail and returns a string aliasing that region via
// unsafe.String; the region is never rewritten afterwards (a full chunk
// is abandoned to the garbage collector, never reset), so the aliasing
// string is as immutable as any other. Returned strings keep their
// chunk alive through normal GC liveness — an arena needs no explicit
// free and must never be Reset while interned strings are still
// reachable.
package strarena

import "unsafe"

// Chunk sizing: start small and double. Short-lived arenas (streamed
// ingest creates one frame set per chunk task) intern only a few
// strings each, so a fixed large quantum would strand most of its
// capacity; long-lived arenas quickly reach maxChunk and amortize tens
// of thousands of strings per allocation.
const (
	minChunk = 1 << 10
	maxChunk = 64 << 10
)

// Arena interns strings into append-only chunks. The zero value is
// ready to use. Not safe for concurrent use; give each worker its own.
type Arena struct {
	buf  []byte
	next int // next chunk size
}

// grow abandons the current chunk and starts a fresh one with room for
// at least n bytes.
func (a *Arena) grow(n int) {
	c := a.next
	if c < minChunk {
		c = minChunk
	}
	if a.next < maxChunk {
		a.next = c * 2
	}
	if n > c {
		c = n
	}
	a.buf = make([]byte, 0, c)
}

// Intern copies b into the arena and returns it as a string without a
// per-string allocation.
func (a *Arena) Intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(a.buf)+len(b) > cap(a.buf) {
		a.grow(len(b))
	}
	off := len(a.buf)
	a.buf = append(a.buf, b...)
	s := a.buf[off:]
	return unsafe.String(&s[0], len(b))
}
