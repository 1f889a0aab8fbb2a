package ledger

import (
	"errors"
	"fmt"
)

// Snapshot is a point-in-time copy of the ledger's full state: every
// balance, the complete entry history and the entry sequence counter. It is
// the ledger's contribution to a platform state snapshot, so a restored
// ledger continues exactly where the snapshotted one stopped (same
// balances, same audit trail, same next entry sequence).
type Snapshot struct {
	Balances map[Account]float64 `json:"balances,omitempty"`
	Entries  []Entry             `json:"entries,omitempty"`
	Seq      int64               `json:"seq"`
}

// Snapshot returns a deep copy of the ledger's state. The copy shares no
// memory with the live ledger, so it stays stable while mutations continue.
func (l *Ledger) Snapshot() *Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &Snapshot{Seq: int64(l.journal.n)}
	if len(l.balances) > 0 {
		s.Balances = make(map[Account]float64, len(l.balances))
		for a, b := range l.balances {
			s.Balances[a] = b
		}
	}
	if l.journal.n > 0 {
		s.Entries = l.entriesLocked()
	}
	return s
}

// Restore replaces the ledger's state wholesale with the snapshot's. The
// snapshot is authoritative: any state the target ledger accumulated before
// the restore — in particular boot-time deposits an operator repeats on
// every start, which the snapshot already contains — is discarded, so a
// recovery can never double-count funding.
//
// An entry's Seq is its position in the history, so the snapshot's entries
// must be numbered 1…n with Seq = n, as every snapshot the ledger writes
// is; any other snapshot is rejected and the ledger left unchanged.
func (l *Ledger) Restore(s *Snapshot) error {
	if s == nil {
		return errors.New("ledger: restore needs a snapshot")
	}
	if s.Seq != int64(len(s.Entries)) {
		return fmt.Errorf("ledger: snapshot sequence %d does not match its %d entries", s.Seq, len(s.Entries))
	}
	for i, e := range s.Entries {
		if e.Seq != int64(i+1) {
			return fmt.Errorf("ledger: snapshot entry %d has sequence %d", i+1, e.Seq)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.balances = make(map[Account]float64, len(s.Balances))
	for a, b := range s.Balances {
		l.balances[a] = b
	}
	sink := l.journal.Sink()
	l.journal = journal{}
	l.journal.SpillTo(sink, journalName)
	l.names, l.ids = nil, make(map[string]uint32)
	for _, e := range s.Entries {
		l.write(e.Kind, e.From, e.To, e.Amount, parseMemo(e.Memo))
	}
	return nil
}
