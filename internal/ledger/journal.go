package ledger

import (
	"encoding/binary"
	"math"
	"strconv"
	"strings"

	"melody/internal/chunk"
)

// journal is the entry history as an append-only log of encoded entries in
// byte chunks that hold no pointers (chunk.Log: an entry never straddles
// two chunks, full chunks are never copied, and an entry longer than a
// chunk gets one of its own). Each chunk's first entry is encoded in full,
// so every chunk decodes on its own (see chunkReader), and a chunk spilled
// to disk (chunk.Log.SpillTo) is its bytes verbatim.
//
// An entry is encoded as
//
//	header    1 byte: the memo form, and sameText when the entry's text
//	          repeats the previous entry's in its chunk
//	kind      uvarint index into the ledger's names
//	from, to  uvarint indexes into the ledger's names
//	number    zigzag varint: the run or epoch number minus that of the
//	          chunk's previous entry with one (0 before the first);
//	          absent for a verbatim memo
//	amount    8 bytes, the IEEE-754 bits, little-endian
//	text      uvarint length and the bytes; absent under sameText
//
// Payments arrive grouped by task, so a run's payments for one task share
// their text.
type journal struct {
	chunk.Log
	n int
	// The encoder's state in the last chunk: the number of its last entry
	// with a run or epoch number, and where its last entry's text sits.
	num             int64
	textAt, textLen int
}

// journalName names the journal in a failed spill read's panic.
const journalName = "ledger journal"

// The header byte: the memo form in its low bits, and the sameText flag.
const (
	formBits byte = 0x07
	sameText byte = 0x08
)

// append encodes an entry as the last one.
func (j *journal) append(kind, from, to uint32, amount float64, m memoParts) {
	last := len(j.Chunks) - 1
	same := last >= 0 && len(j.Chunks[last]) > 0 && string(j.Chunks[last][j.textAt:j.textAt+j.textLen]) == m.text
	if !j.Room(encodedLen(kind, from, to, m, j.num, same)) {
		// A new chunk: its first entry is encoded in full.
		j.num, same = 0, false
		j.Open(encodedLen(kind, from, to, m, 0, false))
		last = len(j.Chunks) - 1
	}
	c := j.Chunks[last]
	h := byte(m.form)
	if same {
		h |= sameText
	}
	c = append(c, h)
	c = binary.AppendUvarint(c, uint64(kind))
	c = binary.AppendUvarint(c, uint64(from))
	c = binary.AppendUvarint(c, uint64(to))
	if m.form != memoVerbatim {
		c = binary.AppendVarint(c, m.num-j.num)
		j.num = m.num
	}
	c = binary.LittleEndian.AppendUint64(c, math.Float64bits(amount))
	if !same {
		c = binary.AppendUvarint(c, uint64(len(m.text)))
		j.textAt, j.textLen = len(c), len(m.text)
		c = append(c, m.text...)
	}
	j.Chunks[last] = c
	j.n++
}

// encodedLen returns the bytes an entry takes after an entry numbered num,
// with its text repeated (same) or not.
func encodedLen(kind, from, to uint32, m memoParts, num int64, same bool) int {
	n := 1 + uvarintLen(uint64(kind)) + uvarintLen(uint64(from)) + uvarintLen(uint64(to)) + 8
	if m.form != memoVerbatim {
		d := m.num - num
		n += uvarintLen(uint64(d<<1) ^ uint64(d>>63))
	}
	if !same {
		n += uvarintLen(uint64(len(m.text))) + len(m.text)
	}
	return n
}

// uvarintLen returns the length of v's uvarint encoding.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// rec is one decoded entry; its text aliases the chunk.
type rec struct {
	kind, from, to uint64
	amount         float64
	form           memoForm
	num            int64
	text           []byte
	// same is set when the text repeats the previous entry's in the chunk.
	same bool
}

// chunkReader decodes one chunk's entries in order, starting from the
// state every chunk's encoding starts in.
type chunkReader struct {
	c    []byte
	num  int64
	text []byte
}

// next decodes the next entry into r, reporting false at the chunk's end.
// A malformed chunk panics: chunks are only ever written by append.
func (d *chunkReader) next(r *rec) bool {
	if len(d.c) == 0 {
		return false
	}
	h := d.c[0]
	d.c = d.c[1:]
	if h&^(formBits|sameText) != 0 || int(h&formBits) >= len(memoAffixes) {
		panic("ledger: corrupt journal chunk")
	}
	r.form = memoForm(h & formBits)
	r.kind, r.from, r.to = d.uvarint(), d.uvarint(), d.uvarint()
	r.num = 0
	if r.form != memoVerbatim {
		v, n := binary.Varint(d.c)
		if n <= 0 {
			panic("ledger: corrupt journal chunk")
		}
		d.c = d.c[n:]
		d.num += v
		r.num = d.num
	}
	r.amount = math.Float64frombits(binary.LittleEndian.Uint64(d.c))
	d.c = d.c[8:]
	r.same = h&sameText != 0
	if !r.same {
		n := d.uvarint()
		d.text, d.c = d.c[:n:n], d.c[n:]
	}
	r.text = d.text
	return true
}

func (d *chunkReader) uvarint() uint64 {
	v, n := binary.Uvarint(d.c)
	if n <= 0 {
		panic("ledger: corrupt journal chunk")
	}
	d.c = d.c[n:]
	return v
}

// memo formats r's memo as the settlement paths write it.
func (r *rec) memo() string {
	if r.form == memoVerbatim {
		return string(r.text)
	}
	a := memoAffixes[r.form]
	var buf [64]byte
	b := append(buf[:0], a[0]...)
	b = strconv.AppendInt(b, r.num, 10)
	b = append(b, a[1]...)
	return string(append(b, r.text...))
}

// memoForm is the shape of an entry's memo.
type memoForm uint8

// The memo forms: a verbatim memo is its text; every other form is its
// affixes around the run or epoch number, followed by the text.
const (
	memoVerbatim memoForm = iota
	memoBudget
	memoPayment
	memoRefund
	memoPayout
	memoResidue
)

var memoAffixes = [...][2]string{
	memoBudget:  {"run ", " budget"},
	memoPayment: {"run ", " task "},
	memoRefund:  {"run ", " refund"},
	memoPayout:  {"epoch ", " payout"},
	memoResidue: {"epoch ", " rounding residue"},
}

// memoParts is a memo as its form, its run or epoch number, and its text:
// what follows the affixes (a payment's task ID), or the whole of a
// verbatim memo.
type memoParts struct {
	form memoForm
	num  int64
	text string
}

// parseMemo splits a memo into the parts that format back to it; a memo in
// no settlement form stays verbatim.
func parseMemo(memo string) memoParts {
	for form := memoBudget; int(form) < len(memoAffixes); form++ {
		a := memoAffixes[form]
		rest, ok := strings.CutPrefix(memo, a[0])
		if !ok {
			continue
		}
		digits, text, ok := strings.Cut(rest, a[1])
		if !ok {
			continue
		}
		num, err := strconv.ParseInt(digits, 10, 64)
		if err != nil || strconv.FormatInt(num, 10) != digits {
			continue
		}
		return memoParts{form: form, num: num, text: text}
	}
	return memoParts{text: memo}
}
