package eventlog

import (
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// Recovery decodes each record with parseRecord, a parser for exactly the
// layout Log writes: encoding/json's encoding of Event, its keys in
// declaration order with empty omitempty members left out, and no
// whitespace. Every boot decodes the whole log, and json.Unmarshal's
// reflection costs more CPU per record than replaying the record does.
//
// The parser accepts a record only when json.Unmarshal would decode it to
// the same Event. Keys must come in declaration order, each at most once;
// a missing key leaves its field zero, as it does for json.Unmarshal.
// Numbers follow JSON's grammar and go through the strconv calls
// encoding/json makes. A string must be free of escapes and valid UTF-8,
// so that its bytes are its value. Anything else, such as an escaped or
// invalid string, another key order or spacing, null, an empty array, an
// em triple of another length, or an unknown or repeated key, is left to
// json.Unmarshal. An empty object is read, as the writer's empty em member
// is `{}`. The records
// recovery accepts, their values and its error messages are therefore
// json.Unmarshal's, whichever path a record takes.

// Event's keys, in declaration order.
const (
	evSeq = iota
	evKind
	evWorker
	evTask
	evCost
	evFrequency
	evScore
	evBudget
	evTasks
	evRun
	evTenant
	evPolicy
	evEM
	evBids
	evScores
	evCRC
)

var eventKeys = []string{
	evSeq:       "seq",
	evKind:      "kind",
	evWorker:    "worker",
	evTask:      "task",
	evCost:      "cost",
	evFrequency: "frequency",
	evScore:     "score",
	evBudget:    "budget",
	evTasks:     "tasks",
	evRun:       "run",
	evTenant:    "tenant",
	evPolicy:    "policy",
	evEM:        "em",
	evBids:      "bids",
	evScores:    "scores",
	evCRC:       "crc",
}

// TaskRecord's keys, in declaration order.
const (
	taskID = iota
	taskThreshold
)

var taskKeys = []string{taskID: "id", taskThreshold: "threshold"}

// BidRecord's keys, in declaration order.
const (
	bidWorker = iota
	bidCost
	bidFrequency
)

var bidKeys = []string{bidWorker: "worker", bidCost: "cost", bidFrequency: "frequency"}

// ScoreRecord's keys, in declaration order.
const (
	scoreWorker = iota
	scoreTask
	scoreScore
)

var scoreKeys = []string{scoreWorker: "worker", scoreTask: "task", scoreScore: "score"}

// PolicyRecord's keys, in declaration order.
const (
	polBudgetQuota = iota
	polEpochBudgetQuota
	polMaxRuns
	polWeight
)

var policyKeys = []string{
	polBudgetQuota:      "budgetQuota",
	polEpochBudgetQuota: "epochBudgetQuota",
	polMaxRuns:          "maxRuns",
	polWeight:           "weight",
}

// EMRecord's keys, in declaration order.
const (
	emWorkers = iota
	emParams
)

var emKeys = []string{emWorkers: "workers", emParams: "params"}

// parseRecord decodes one record written in the writer's layout, optionally
// newline-terminated. ok is false when the record leaves that layout
// anywhere; the caller then decodes it with json.Unmarshal.
func parseRecord(line []byte) (e Event, ok bool) {
	p := layoutParser{b: line}
	ok = p.object(eventKeys, func(field int) (ok bool) {
		switch field {
		case evSeq:
			e.Seq, ok = p.int64()
		case evKind:
			var b []byte
			b, ok = p.strBytes()
			e.Kind = kindOf(b)
		case evWorker:
			e.Worker, ok = p.str()
		case evTask:
			e.Task, ok = p.str()
		case evCost:
			e.Cost, ok = p.float()
		case evFrequency:
			e.Frequency, ok = p.int()
		case evScore:
			e.Score, ok = p.float()
		case evBudget:
			e.Budget, ok = p.float()
		case evTasks:
			e.Tasks, ok = array(&p, p.task)
		case evRun:
			e.Run, ok = p.str()
		case evTenant:
			e.Tenant, ok = p.str()
		case evPolicy:
			e.Policy, ok = p.policy()
		case evEM:
			e.EM, ok = p.em()
		case evBids:
			e.Bids, ok = array(&p, p.bid)
		case evScores:
			e.Scores, ok = array(&p, p.score)
		case evCRC:
			e.CRC, ok = p.uint32()
		}
		return ok
	})
	// Only the record's newline may follow its closing brace.
	if rest := line[p.i:]; !ok || len(rest) > 0 && string(rest) != "\n" {
		return Event{}, false
	}
	return e, true
}

// layoutParser is a read position in one record.
type layoutParser struct {
	b []byte
	i int
}

// consume moves past c if it is the next byte.
func (p *layoutParser) consume(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// key moves past `"k":` if it comes next.
func (p *layoutParser) key(k string) bool {
	b := p.b[p.i:]
	n := len(k)
	if len(b) < n+3 || b[0] != '"' || string(b[1:1+n]) != k || b[1+n] != '"' || b[2+n] != ':' {
		return false
	}
	p.i += n + 3
	return true
}

// object reads an object whose members are keys[f] for increasing f, and
// calls value with f once the position is at that member's value; value
// reports whether it could read it. The object may be empty.
func (p *layoutParser) object(keys []string, value func(field int) bool) bool {
	if !p.consume('{') {
		return false
	}
	if p.consume('}') {
		return true
	}
	for f := 0; ; f++ {
		for f < len(keys) && !p.key(keys[f]) {
			f++
		}
		if f == len(keys) || !value(f) {
			return false
		}
		if p.consume('}') {
			return true
		}
		if !p.consume(',') {
			return false
		}
	}
}

// str reads a string with no escapes whose bytes are valid UTF-8, and
// copies it out of the record, whose buffer the reader reuses.
func (p *layoutParser) str() (string, bool) {
	b, ok := p.strBytes()
	return string(b), ok
}

// strBytes reads a string with no escapes whose bytes are valid UTF-8 and
// returns those bytes in place.
func (p *layoutParser) strBytes() ([]byte, bool) {
	if !p.consume('"') {
		return nil, false
	}
	start, ascii := p.i, true
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			b := p.b[start:p.i]
			p.i++
			if !ascii && !utf8.Valid(b) {
				return nil, false
			}
			return b, true
		case c == '\\' || c < ' ':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// kindOf returns the Kind spelled by b. A known kind shares its constant's
// string rather than allocating one per record.
func kindOf(b []byte) Kind {
	switch Kind(b) {
	case KindRegister:
		return KindRegister
	case KindOpenRun:
		return KindOpenRun
	case KindBids:
		return KindBids
	case KindClose:
		return KindClose
	case KindScores:
		return KindScores
	case KindBid:
		return KindBid
	case KindScore:
		return KindScore
	case KindFinish:
		return KindFinish
	case KindTenantPolicy:
		return KindTenantPolicy
	}
	return Kind(b)
}

// number reads the text of a number in JSON's grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (p *layoutParser) number() ([]byte, bool) {
	start := p.i
	p.consume('-')
	if !p.consume('0') {
		if p.i == len(p.b) || p.b[p.i] < '1' || p.b[p.i] > '9' {
			return nil, false
		}
		p.digits()
	}
	if p.consume('.') && p.digits() == 0 {
		return nil, false
	}
	if p.consume('e') || p.consume('E') {
		if !p.consume('+') {
			p.consume('-')
		}
		if p.digits() == 0 {
			return nil, false
		}
	}
	return p.b[start:p.i], true
}

// digits moves past a run of decimal digits and returns its length.
func (p *layoutParser) digits() int {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

func (p *layoutParser) float() (float64, bool) {
	s, ok := p.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(s), 64)
	return f, err == nil
}

func (p *layoutParser) int64() (int64, bool) {
	s, ok := p.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(s), 10, 64)
	return n, err == nil
}

func (p *layoutParser) int() (int, bool) {
	n, ok := p.int64()
	return int(n), ok && int64(int(n)) == n
}

func (p *layoutParser) uint32() (uint32, bool) {
	s, ok := p.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(string(s), 10, 64)
	return uint32(n), err == nil && n <= math.MaxUint32
}

// task reads a task record.
func (p *layoutParser) task() (t TaskRecord, ok bool) {
	ok = p.object(taskKeys, func(field int) (ok bool) {
		switch field {
		case taskID:
			t.ID, ok = p.str()
		case taskThreshold:
			t.Threshold, ok = p.float()
		}
		return ok
	})
	return t, ok
}

// bid reads a bid record.
func (p *layoutParser) bid() (b BidRecord, ok bool) {
	ok = p.object(bidKeys, func(field int) (ok bool) {
		switch field {
		case bidWorker:
			b.Worker, ok = p.str()
		case bidCost:
			b.Cost, ok = p.float()
		case bidFrequency:
			b.Frequency, ok = p.int()
		}
		return ok
	})
	return b, ok
}

// score reads a score record.
func (p *layoutParser) score() (s ScoreRecord, ok bool) {
	ok = p.object(scoreKeys, func(field int) (ok bool) {
		switch field {
		case scoreWorker:
			s.Worker, ok = p.str()
		case scoreTask:
			s.Task, ok = p.str()
		case scoreScore:
			s.Score, ok = p.float()
		}
		return ok
	})
	return s, ok
}

// policy reads a policy record.
func (p *layoutParser) policy() (*PolicyRecord, bool) {
	r := new(PolicyRecord)
	ok := p.object(policyKeys, func(field int) (ok bool) {
		switch field {
		case polBudgetQuota:
			r.BudgetQuota, ok = p.float()
		case polEpochBudgetQuota:
			r.EpochBudgetQuota, ok = p.float()
		case polMaxRuns:
			r.MaxRuns, ok = p.int()
		case polWeight:
			r.Weight, ok = p.float()
		}
		return ok
	})
	return r, ok
}

// em reads an EM record: non-empty arrays of worker IDs and of theta
// triples, or neither. The record's own rules (one triple per worker) are
// validate's.
func (p *layoutParser) em() (*EMRecord, bool) {
	r := new(EMRecord)
	ok := p.object(emKeys, func(field int) (ok bool) {
		switch field {
		case emWorkers:
			r.Workers, ok = array(p, p.str)
		case emParams:
			r.Params, ok = array(p, p.triple)
		}
		return ok
	})
	return r, ok
}

// array reads a non-empty array whose elements elem reads. Up to len(buf)
// elements gather in a buffer on the stack and cost one allocation, of
// their own size. A longer array moves to the heap once and grows there
// as append grows it, with no final copy.
func array[T any](p *layoutParser, elem func() (T, bool)) ([]T, bool) {
	if !p.consume('[') {
		return nil, false
	}
	var buf [16]T
	n := 0
	var long []T // the elements, once they outgrow buf
	for {
		v, ok := elem()
		if !ok {
			return nil, false
		}
		switch {
		case n < len(buf):
			buf[n] = v
			n++
		case long == nil:
			long = append(append(make([]T, 0, 4*len(buf)), buf[:]...), v)
		default:
			long = append(long, v)
		}
		if p.consume(']') {
			if long == nil {
				return slices.Clone(buf[:n]), true
			}
			return slices.Clip(long), true
		}
		if !p.consume(',') {
			return nil, false
		}
	}
}

// triple reads an array of exactly three numbers.
func (p *layoutParser) triple() (t [3]float64, ok bool) {
	if !p.consume('[') {
		return t, false
	}
	for k := range t {
		if k > 0 && !p.consume(',') {
			return t, false
		}
		if t[k], ok = p.float(); !ok {
			return t, false
		}
	}
	return t, p.consume(']')
}
