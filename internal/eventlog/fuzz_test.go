package eventlog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// mustLine encodes one event the way Append does (CRC over the canonical
// encoding, newline-terminated), for building seed corpus logs.
func mustLine(t testing.TB, e Event) []byte {
	t.Helper()
	crc, err := e.checksum()
	if err != nil {
		t.Fatal(err)
	}
	e.CRC = crc
	buf, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return append(buf, '\n')
}

// FuzzWALReplay feeds arbitrary bytes to the write-ahead log as an on-disk
// file and checks the crash-recovery contract:
//
//  1. ReadAll never panics, whatever the file contains;
//  2. Open agrees with ReadAll about validity (both accept or both reject);
//  3. after Open truncates a torn tail, appending a fresh event and
//     replaying yields exactly the old events plus the new one, with a
//     contiguous sequence — recovery never strands the log in a state that
//     rejects further appends.
//
// Explore with `go test ./internal/eventlog -run '^$' -fuzz FuzzWALReplay`.
func FuzzWALReplay(f *testing.F) {
	valid := mustLine(f, Event{Seq: 1, Kind: KindRegister, Worker: "w1"})
	valid = append(valid, mustLine(f, Event{Seq: 2, Kind: KindOpenRun, Budget: 10,
		Tasks: []TaskRecord{{ID: "t", Threshold: 5}}})...)
	f.Add(valid)
	f.Add(valid[:len(valid)-4]) // torn final record
	f.Add([]byte(`{"seq":1,"kind":"register","worker":"w"}` + "\n" + `{garbage`))
	f.Add([]byte(`{"seq":1,"kind":"register","worker":"w","crc":12345}` + "\n")) // CRC mismatch
	f.Add([]byte(`{"seq":7,"kind":"register","worker":"w"}` + "\n"))             // sequence gap
	f.Add([]byte("not json at all"))
	f.Add([]byte{})
	f.Add([]byte("\n\n\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		events, readErr := ReadAll(path)

		log, openErr := Open(path, true)
		if (readErr == nil) != (openErr == nil) {
			t.Fatalf("ReadAll err=%v but Open err=%v: recovery disagrees with replay", readErr, openErr)
		}
		if openErr != nil {
			return
		}
		defer log.Close()

		if n := len(events); n > 0 && log.Seq() != events[n-1].Seq {
			t.Fatalf("Open resumed at seq %d, last replayed event is %d", log.Seq(), events[n-1].Seq)
		}
		seq, err := log.Append(Event{Kind: KindRegister, Worker: "fuzz"})
		if err != nil {
			t.Fatalf("append after recovery failed: %v", err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}

		replayed, err := ReadAll(path)
		if err != nil {
			t.Fatalf("replay after recovered append failed: %v", err)
		}
		if len(replayed) != len(events)+1 {
			t.Fatalf("replayed %d events, want %d", len(replayed), len(events)+1)
		}
		for i, e := range replayed {
			if e.Seq != int64(i)+1 {
				t.Fatalf("event %d has seq %d; sequence must be contiguous from 1", i, e.Seq)
			}
		}
		last := replayed[len(replayed)-1]
		if last.Seq != seq || last.Kind != KindRegister || last.Worker != "fuzz" {
			t.Fatalf("appended event came back as %+v", last)
		}
	})
}

// decodeRecordReference is decodeRecord without the layout parser: every
// record is decoded by json.Unmarshal. FuzzRecordDecode holds decodeRecord
// to it.
func decodeRecordReference(line []byte, prev int64) (Event, error) {
	var e Event
	if err := json.Unmarshal(line, &e); err != nil {
		return Event{}, fmt.Errorf("eventlog: corrupt event after seq %d: %w", prev, err)
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

// FuzzRecordDecode is the differential check of the layout parser. For any
// bytes, decodeRecord must return the same event and the same error text
// as decodeRecordReference. Each input is decoded after sequence 0 and,
// when it decodes to another sequence, right before that one, so the
// validation and checksum checks are compared as well as the decode.
// Whenever parseRecord accepts an input, json.Unmarshal must decode it to
// the same event.
//
// Explore with `go test ./internal/eventlog -run '^$' -fuzz FuzzRecordDecode`.
func FuzzRecordDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		var ref Event
		refErr := json.Unmarshal(line, &ref)
		if e, ok := parseRecord(line); ok && (refErr != nil || !reflect.DeepEqual(e, ref)) {
			t.Fatalf("parseRecord accepted %q as %+v; json.Unmarshal gives %+v, %v", line, e, ref, refErr)
		}
		prevs := []int64{0}
		if refErr == nil && ref.Seq != 1 {
			prevs = append(prevs, ref.Seq-1)
		}
		for _, prev := range prevs {
			got, err := decodeRecord(line, prev)
			want, wantErr := decodeRecordReference(line, prev)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("decodeRecord(%q, %d) = %+v, %v; reference gives %+v, %v", line, prev, got, err, want, wantErr)
			}
		}
	})
}
