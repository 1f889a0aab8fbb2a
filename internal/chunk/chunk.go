// Package chunk keeps an append-only sequence of encoded records in byte
// chunks that hold no pointers, so the garbage collector never traces
// them. The ledger's journal and the run scheduler's archive of finished
// runs share it. A log given a Sink writes each chunk it closes there and
// drops the chunk's bytes from the heap, reading them back when asked.
package chunk

import (
	"fmt"
	"io"
	"slices"
	"sync"

	"melody/internal/obs"
)

// Full is the capacity of a full chunk: 32 KiB, four 8 KiB pages and the
// largest object the allocator serves from a size class.
const Full = 32 << 10

// First is the first chunk's starting capacity. It doubles up to Full, so
// a small log pays for about the records it holds.
const First = 64

// Log is an append-only list of byte chunks. A record never straddles two
// chunks. A chunk is closed when the next record does not fit: every
// chunk but the first and the last has capacity Full, except that a record
// longer than that gets a chunk of its own at exactly its size. Growth
// appends a chunk and never copies a full one; only the first chunk is
// copied while it doubles, and a record keeps its chunk and offset.
//
// With a sink (SpillTo), a closed chunk's bytes move to the sink and its
// entry in Chunks becomes nil; Read returns any chunk's bytes either way.
type Log struct {
	// Chunks are the chunks in order; the last one takes appends. A chunk
	// spilled to the sink is nil.
	Chunks [][]byte
	// Size is the chunks' capacity in bytes, spilled ones included.
	Size int
	// spans holds where each spilled chunk's bytes sit in the sink,
	// indexed like Chunks; it grows at the first spill.
	spans []span
	sink  *Sink
	name  string
}

// span is a spilled chunk: n bytes at offset off of the sink.
type span struct {
	off int64
	n   int
}

// SpillTo makes the log write every chunk it closes from now on to sink,
// keeping only where the chunk's bytes went. name names the log in a
// failed read's panic. A log spills to one sink: a second SpillTo is
// ignored.
func (l *Log) SpillTo(sink *Sink, name string) {
	if l.sink == nil {
		l.sink, l.name = sink, name
	}
}

// Sink returns the sink the log spills to, nil when it keeps every chunk
// in the heap.
func (l *Log) Sink() *Sink { return l.sink }

// Room reports whether need more bytes fit in the last chunk. While that
// chunk is the only one and below Full, it doubles until they fit.
func (l *Log) Room(need int) bool {
	n := len(l.Chunks)
	if n == 0 {
		return false
	}
	c := l.Chunks[n-1]
	if cap(c)-len(c) >= need {
		return true
	}
	if n != 1 {
		return false
	}
	size := cap(c)
	for size < len(c)+need && size < Full {
		size *= 2
	}
	if size == cap(c) || len(c)+need > size {
		return false
	}
	grown := make([]byte, len(c), size)
	copy(grown, c)
	l.Chunks[0] = grown
	l.Size += size - cap(c)
	return true
}

// Open closes the last chunk and starts one with room for a record of need
// bytes: Full, or exactly need when that is more. The first chunk starts
// at First, doubled until need fits or it reaches Full. With a sink, the
// closed chunk is spilled.
func (l *Log) Open(need int) {
	size := Full
	if n := len(l.Chunks); n == 0 {
		size = First
		for size < need && size < Full {
			size *= 2
		}
	} else if l.sink != nil {
		l.spill(n - 1)
	}
	l.Chunks = append(l.Chunks, make([]byte, 0, max(size, need)))
	l.Size += cap(l.Chunks[len(l.Chunks)-1])
}

// spill writes chunk i to the sink and drops its bytes. A failed write
// leaves the chunk in the heap; the sink counts the failure.
func (l *Log) spill(i int) {
	c := l.Chunks[i]
	off, ok := l.sink.write(c)
	if !ok {
		return
	}
	if len(l.spans) < len(l.Chunks) {
		l.spans = append(l.spans, make([]span, len(l.Chunks)-len(l.spans))...)
	}
	l.spans[i] = span{off: off, n: len(c)}
	l.Chunks[i] = nil
}

// Append copies rec into the last chunk, or into a new one when it does not
// fit, and returns the chunk's index and the offset rec starts at.
func (l *Log) Append(rec []byte) (chunk, off int) {
	if !l.Room(len(rec)) {
		l.Open(len(rec))
	}
	chunk = len(l.Chunks) - 1
	off = len(l.Chunks[chunk])
	l.Chunks[chunk] = append(l.Chunks[chunk], rec...)
	return chunk, off
}

// Read returns n bytes of chunk i from offset off, or the rest of the chunk
// when n is negative or more than remain. A chunk in the heap is returned
// in place. A spilled chunk's bytes are read back into *buf, grown to fit,
// and stay valid until *buf is next used. A failed read panics with a
// *ReadError.
func (l *Log) Read(i, off, n int, buf *[]byte) []byte {
	if c := l.Chunks[i]; c != nil {
		if n < 0 || off+n > len(c) {
			return c[off:]
		}
		return c[off : off+n]
	}
	s := l.spans[i]
	if n < 0 || off+n > s.n {
		n = s.n - off
	}
	b := slices.Grow((*buf)[:0], n)[:n]
	*buf = b
	at := s.off + int64(off)
	if got, err := l.sink.f.ReadAt(b, at); got < n {
		panic(&ReadError{Log: l.name, Chunk: i, Off: at, Err: err})
	}
	return b
}

// ReadError is the panic value of a failed read of a spilled chunk: the
// bytes are not in the heap, so the read has nothing to return.
type ReadError struct {
	// Log names the log, Chunk is the chunk's index and Off the sink
	// offset the read started at.
	Log   string
	Chunk int
	Off   int64
	Err   error
}

func (e *ReadError) Error() string {
	return fmt.Sprintf("chunk: read %s chunk %d at spill offset %d: %v", e.Log, e.Chunk, e.Off, e.Err)
}

func (e *ReadError) Unwrap() error { return e.Err }

// File is what a sink stores chunks in: a scratch file, or memory in
// tests.
type File interface {
	io.ReaderAt
	io.WriterAt
}

// Sink hands out space in a File to the logs that spill to it, one chunk
// after the other. Logs may share a sink and write to it concurrently;
// reads of written chunks need no lock.
type Sink struct {
	f File

	mu  sync.Mutex
	end int64
	// bytes and writeErrors count the bytes written and the failed writes,
	// summed over the sinks reporting on one registry; nil handles count
	// nothing.
	bytes       *obs.Gauge
	writeErrors *obs.Counter
}

// NewSink returns a sink that stores chunks in f from offset 0 and reports
// them on reg (obs.MetricSpillBytes, obs.MetricSpillWriteErrorsTotal); a
// nil reg reports nothing.
func NewSink(f File, reg *obs.Registry) *Sink {
	return &Sink{
		f:           f,
		bytes:       reg.Gauge(obs.MetricSpillBytes, "Bytes of closed ledger-journal and run-archive chunks spilled to scratch files."),
		writeErrors: reg.Counter(obs.MetricSpillWriteErrorsTotal, "Chunk spills that failed to write and left the chunk in the heap."),
	}
}

// Size returns the bytes the sink holds.
func (s *Sink) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.end
}

// write stores b after the bytes already held and returns its offset, or
// false when the write failed, whose space the next write reuses.
func (s *Sink) write(b []byte) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.WriteAt(b, s.end); err != nil {
		s.writeErrors.Inc()
		return 0, false
	}
	off := s.end
	s.end += int64(len(b))
	s.bytes.Add(float64(len(b)))
	return off, true
}

// bufs holds read buffers. A fresh one is empty, so a log whose chunks
// are all in the heap never grows one.
var bufs = sync.Pool{New: func() any { return new([]byte) }}

// Buffer returns a read buffer from a pool, for Read; Release returns it.
func Buffer() *[]byte { return bufs.Get().(*[]byte) }

// Release returns a buffer Buffer handed out; one grown past Full for an
// oversized chunk is left to the collector.
func Release(buf *[]byte) {
	if cap(*buf) <= Full {
		bufs.Put(buf)
	}
}
