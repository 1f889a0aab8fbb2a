// Package chunk keeps an append-only sequence of encoded records in byte
// chunks that hold no pointers, so the garbage collector never traces
// them. The ledger's journal and the run scheduler's archive of finished
// runs share it.
package chunk

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
type Log struct {
	// Chunks are the chunks in order; the last one takes appends.
	Chunks [][]byte
	// Size is the chunks' capacity in bytes.
	Size int
}

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
// at First, doubled until need fits or it reaches Full.
func (l *Log) Open(need int) {
	size := Full
	if len(l.Chunks) == 0 {
		size = First
		for size < need && size < Full {
			size *= 2
		}
	}
	l.Chunks = append(l.Chunks, make([]byte, 0, max(size, need)))
	l.Size += cap(l.Chunks[len(l.Chunks)-1])
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
