package chunk

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"melody/internal/chunk/chunktest"
	"melody/internal/obs"
)

// fill appends records of varying lengths, some longer than a chunk, to
// both logs until the first has n chunks.
func fill(t *testing.T, n int, logs ...*Log) {
	t.Helper()
	for i := 0; len(logs[0].Chunks) < n; i++ {
		rec := bytes.Repeat([]byte{byte(i)}, 1+i%301)
		if i%97 == 50 {
			rec = bytes.Repeat([]byte{byte(i)}, Full+i)
		}
		for _, l := range logs {
			l.Append(rec)
		}
	}
}

// TestSpillMovesClosedChunks: a log with a sink keeps only its last chunk
// in the heap, and reads every chunk, whole or in part, as the same log
// without a sink holds it. The sink holds exactly the closed chunks' bytes
// and reports them.
func TestSpillMovesClosedChunks(t *testing.T) {
	reg := obs.NewRegistry()
	var f chunktest.File
	var resident, spilled Log
	spilled.SpillTo(NewSink(&f, reg), "test log")
	fill(t, 9, &resident, &spilled)
	if resident.Size != spilled.Size {
		t.Errorf("spilled log counts %d bytes, the resident one %d", spilled.Size, resident.Size)
	}
	last := len(spilled.Chunks) - 1
	closed := 0
	for i, c := range spilled.Chunks {
		if (c == nil) != (i < last) {
			t.Fatalf("chunk %d of %d is nil %v", i, last+1, c == nil)
		}
		if i < last {
			closed += len(resident.Chunks[i])
		}
	}
	if got := spilled.Sink().Size(); got != int64(closed) || f.Len() != closed {
		t.Errorf("the sink holds %d bytes and its file %d; the closed chunks take %d", got, f.Len(), closed)
	}
	if got := reg.Gauge(obs.MetricSpillBytes, "").Value(); got != float64(closed) {
		t.Errorf("%s = %v, want %d", obs.MetricSpillBytes, got, closed)
	}
	buf := Buffer()
	defer Release(buf)
	for i, want := range resident.Chunks {
		if got := spilled.Read(i, 0, -1, buf); !bytes.Equal(got, want) {
			t.Fatalf("chunk %d reads back %d bytes, want %d", i, len(got), len(want))
		}
		for _, r := range [][2]int{{0, 1}, {len(want) / 3, 7}, {len(want) - 2, 5}, {1, -1}} {
			off, n := r[0], r[1]
			end := len(want)
			if n >= 0 && off+n < end {
				end = off + n
			}
			if got := spilled.Read(i, off, n, buf); !bytes.Equal(got, want[off:end]) {
				t.Fatalf("chunk %d from %d for %d reads %q, want %q", i, off, n, got, want[off:end])
			}
		}
	}
}

// TestSpillWriteFailureKeepsChunk: a chunk whose spill fails stays in the
// heap and is counted, and the next spill reuses its space in the file.
func TestSpillWriteFailureKeepsChunk(t *testing.T) {
	reg := obs.NewRegistry()
	var f chunktest.File
	var resident, spilled Log
	spilled.SpillTo(NewSink(&f, reg), "test log")
	fill(t, 2, &resident, &spilled)
	f.FailWrites.Store(true)
	fill(t, 3, &resident, &spilled)
	f.FailWrites.Store(false)
	fill(t, 4, &resident, &spilled)
	if spilled.Chunks[0] != nil || spilled.Chunks[1] == nil || spilled.Chunks[2] != nil {
		t.Fatalf("chunks in the heap: %v %v %v, want only chunk 1 (its spill failed)",
			spilled.Chunks[0] != nil, spilled.Chunks[1] != nil, spilled.Chunks[2] != nil)
	}
	if got := reg.Counter(obs.MetricSpillWriteErrorsTotal, "").Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MetricSpillWriteErrorsTotal, got)
	}
	if want := len(resident.Chunks[0]) + len(resident.Chunks[2]); f.Len() != want {
		t.Errorf("the file holds %d bytes, want the two spilled chunks' %d", f.Len(), want)
	}
	buf := Buffer()
	defer Release(buf)
	for i, want := range resident.Chunks {
		if got := spilled.Read(i, 0, -1, buf); !bytes.Equal(got, want) {
			t.Fatalf("chunk %d reads back other bytes", i)
		}
	}
}

// TestSpillReadFailurePanics: a failed read of a spilled chunk panics with
// a *ReadError naming the log, the chunk and the offset.
func TestSpillReadFailurePanics(t *testing.T) {
	var f chunktest.File
	var resident, l Log
	l.SpillTo(NewSink(&f, nil), "test log")
	fill(t, 3, &resident, &l)
	f.FailReads.Store(true)
	defer func() {
		re, ok := recover().(*ReadError)
		if !ok {
			t.Fatalf("read panicked with %v, want a *ReadError", re)
		}
		off := int64(len(resident.Chunks[0]) + 3)
		if re.Log != "test log" || re.Chunk != 1 || re.Off != off || !errors.Is(re, chunktest.ErrInjected) ||
			!strings.Contains(re.Error(), "test log chunk 1 at spill offset") {
			t.Errorf("read error %+v, want test log chunk 1 at offset %d and the injected error", re, off)
		}
	}()
	buf := Buffer()
	l.Read(1, 3, 2, buf)
	t.Fatal("a failed read returned")
}
