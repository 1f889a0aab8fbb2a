// Package chunktest provides an in-memory chunk.File whose reads and writes
// can be made to fail, for tests of logs that spill.
package chunktest

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
)

// ErrInjected is the error a failing File returns.
var ErrInjected = errors.New("chunktest: injected failure")

// File is a chunk.File in memory. It is safe for concurrent use.
type File struct {
	// FailReads and FailWrites make every ReadAt or WriteAt fail with
	// ErrInjected while set.
	FailReads, FailWrites atomic.Bool

	mu sync.RWMutex
	b  []byte
}

// WriteAt stores p at off, growing the file as needed.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if f.FailWrites.Load() {
		return 0, ErrInjected
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if end := int(off) + len(p); end > len(f.b) {
		f.b = append(f.b, make([]byte, end-len(f.b))...)
	}
	return copy(f.b[off:], p), nil
}

// ReadAt reads len(p) bytes at off, or returns io.EOF with fewer.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if f.FailReads.Load() {
		return 0, ErrInjected
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if off >= int64(len(f.b)) {
		return 0, io.EOF
	}
	n := copy(p, f.b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Len returns the file's length.
func (f *File) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.b)
}
