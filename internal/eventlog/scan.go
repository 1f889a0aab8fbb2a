package eventlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Recovery reads a log exactly once. A decoder goroutine splits the file
// into records, decodes and verifies each one, and hands them over in
// batches; the caller applies them on its own goroutine. Decoding therefore
// runs a few batches ahead of replay instead of before it, and a multi-core
// host overlaps the two.
const (
	// scanBatch is the number of events per hand-off: large enough that the
	// channel operation is noise next to decoding the batch, small enough
	// that replay starts within microseconds of the first record.
	scanBatch = 256
	// scanAhead is how many decoded batches may wait for the applier. Decode
	// and apply costs vary record by record (an open_run with a hundred
	// tasks, a close that runs the auction), so a few batches of slack keep
	// either side from stalling on the other's slow records.
	scanAhead = 4
	// scanFree is how many applied batches may wait for the decoder to
	// refill them: every batch that can be in flight at once, the queued
	// ones, the one being applied and the one being filled, so the applier
	// never finds the free list full while the decoder keeps up.
	scanFree = scanAhead + 2
)

// crcMember opens the checksum member of a record. Event.CRC is the last
// field of the encoding, so in every checksummed record this member is the
// last one before the closing brace.
var crcMember = []byte(`,"crc":`)

// recordChecksum computes the CRC-32 of a record's canonical encoding from
// the record bytes as written, without re-encoding the event. The canonical
// encoding is the event's JSON with CRC zeroed, and a zero CRC is omitted,
// so it is exactly the record with its trailing crc member cut out. ok is
// false when the line does not end in a crc member, which no checksummed
// record written by this package can do.
func recordChecksum(line []byte) (sum uint32, ok bool) {
	line = bytes.TrimSuffix(line, []byte("\n"))
	n := len(line)
	if n == 0 || line[n-1] != '}' {
		return 0, false
	}
	i := bytes.LastIndex(line, crcMember)
	if i < 0 {
		return 0, false
	}
	digits := line[i+len(crcMember) : n-1]
	if len(digits) == 0 {
		return 0, false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	sum = crc32.ChecksumIEEE(line[:i])
	return crc32.Update(sum, crc32.IEEETable, line[n-1:]), true
}

// decodeRecord parses one newline-terminated record and checks it against
// the log's integrity rules: it must follow sequence prev, satisfy its
// kind's invariants, and, when it carries a CRC, match it. Records without
// a CRC (written before checksumming existed) are accepted unverified.
// Records in the writer's own layout skip reflection (see parseRecord);
// every other record, and so every malformed one, takes json.Unmarshal.
func decodeRecord(line []byte, prev int64) (Event, error) {
	e, ok := parseRecord(line)
	if !ok {
		// A variable of its own: json.Unmarshal takes its address, which
		// would move e to the heap on every record, fast path included.
		var u Event
		if err := json.Unmarshal(line, &u); err != nil {
			return Event{}, fmt.Errorf("eventlog: corrupt event after seq %d: %w", prev, err)
		}
		e = u
	}
	if e.Seq != prev+1 {
		return Event{}, fmt.Errorf("eventlog: sequence gap: %d follows %d", e.Seq, prev)
	}
	if err := e.validate(); err != nil {
		return Event{}, err
	}
	if e.CRC != 0 {
		if sum, ok := recordChecksum(line); !ok || sum != e.CRC {
			return Event{}, fmt.Errorf("eventlog: checksum mismatch on seq %d: record is corrupt", e.Seq)
		}
		e.CRC = 0
	}
	return e, nil
}

// scanEnd is where a scan stopped: the byte length of the valid record
// prefix (the torn-tail truncation point), the sequence of its last record,
// and the running CRC-32 of those bytes continued from the caller's seed.
type scanEnd struct {
	valid int64
	last  int64
	crc   uint32
}

// recordBatch is one hand-off from the decoder: events in log order, the
// scan position after the last of them, and the error that ended the scan
// right after them, if any.
type recordBatch struct {
	events []Event
	end    scanEnd
	err    error
}

// scanRecords reads newline-terminated records from r, the first of which
// must carry sequence from.last+1, and calls fn with each valid event in
// order. from.valid and from.crc seed the returned position, so a caller
// that has already consumed a header continues its offset and chain CRC.
//
// A final line without a newline is a torn write and ends the scan cleanly;
// corruption anywhere else is an error, returned after fn has seen every
// event before it. An error from fn stops the scan and is returned as is.
// fn runs on the calling goroutine and may keep the events it is given:
// it receives them by value, so the batch that carried them goes back to
// the decoder to be refilled.
func scanRecords(r io.Reader, from scanEnd, fn func(Event) error) (scanEnd, error) {
	batches := make(chan recordBatch, scanAhead)
	free := make(chan []Event, scanFree)
	stop := make(chan struct{})
	go decodeRecords(r, from, batches, free, stop)
	defer func() {
		// Stop the decoder and wait for it to exit, so it never reads r
		// after the caller closes it.
		close(stop)
		for range batches {
		}
	}()
	end := from
	for b := range batches {
		for _, e := range b.events {
			if err := fn(e); err != nil {
				return end, err
			}
		}
		end = b.end
		if b.err != nil {
			return end, b.err
		}
		select {
		case free <- b.events[:0]:
		default:
		}
	}
	return end, nil
}

// decodeRecords is scanRecords' decoder goroutine. It fills batches taken
// from free, allocating one only when none is waiting there. It closes out
// when it returns, which it does at the end of the input, on the first bad
// record, or once stop is closed.
func decodeRecords(r io.Reader, pos scanEnd, out chan<- recordBatch, free <-chan []Event, stop <-chan struct{}) {
	defer close(out)
	events := make([]Event, 0, scanBatch)
	send := func(err error) bool {
		select {
		case out <- recordBatch{events: events, end: pos, err: err}:
			select {
			case events = <-free:
			default:
				events = make([]Event, 0, scanBatch)
			}
			return true
		case <-stop:
			return false
		}
	}
	br := bufio.NewReaderSize(r, 64<<10)
	var long []byte // a record longer than the read buffer, reassembled
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			long = append(long[:0], line...)
			for errors.Is(err, bufio.ErrBufferFull) {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		switch {
		case errors.Is(err, io.EOF):
			// Whatever follows the last newline is a torn final write.
			send(nil)
			return
		case err != nil:
			send(fmt.Errorf("eventlog: read: %w", err))
			return
		}
		e, err := decodeRecord(line, pos.last)
		if err != nil {
			send(err)
			return
		}
		events = append(events, e)
		pos.valid += int64(len(line))
		pos.last = e.Seq
		pos.crc = crc32.Update(pos.crc, crc32.IEEETable, line)
		if len(events) == scanBatch && !send(nil) {
			return
		}
	}
}

// scanFile scans the log at path read-only, calling fn with each valid
// event in order; see scanRecords.
func scanFile(path string, fn func(Event) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = scanRecords(f, scanEnd{}, fn)
	return err
}
