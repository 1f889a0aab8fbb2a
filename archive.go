package melody

import (
	"encoding/binary"
	"math"
	"math/bits"

	"melody/internal/chunk"
)

// runArchive holds the scheduler's finished runs, each folded at its
// finish into one encoded record in byte chunks that hold no pointers
// (chunk.Log), and indexed by run ID. A reader decodes a fresh copy of the
// run; nothing in the archive changes once written. Callers serialize
// writes against reads (RunScheduler.mu); reads may run concurrently. A
// closed chunk may be spilled (RunScheduler.SpillTo): a read takes it back
// into a pooled buffer, and a decoded run shares no bytes with it.
//
// A record is encoded as
//
//	length       uvarint, the length of the rest of the record, so a
//	             lookup reads about its record only
//	flags        1 byte: an outcome is present; Tasks, Assignments,
//	             SelectedTasks or TaskPayments is nil rather than empty
//	id           uvarint length and the run ID's bytes
//	tenant       uvarint index into the archive's names
//	num          uvarint, the run number's 32 bits
//	budget       8 bytes
//	tasks        uvarint count; per task, its ID front-coded (a uvarint
//	             of the length of the prefix it shares with the previous
//	             ID, the run ID for the first, shifted left by one over
//	             the repeat bit; the rest as a uvarint length and its
//	             bytes) and its threshold as a repeatable float
//
// and, when an outcome is present,
//
//	total        8 bytes, the total payment
//	selected     uvarint count; per task, a task reference
//	payments     uvarint count; 8 bytes each
//	assignments  uvarint count; per assignment, the worker's index into
//	             the names shifted left by one over the repeat bit, as a
//	             uvarint, a task reference and the payment as a
//	             repeatable float
//
// A task reference is the 1-based index of the first task in the run's
// list with that ID, or 0 followed by the ID's uvarint length and bytes
// when the list has none. Floats are their IEEE-754 bits, little-endian,
// so every value decodes bit for bit. A repeatable float is absent when
// its bits equal the previous one's in its list (0 before the first), as
// the repeat bit says: a run's tasks mostly share a threshold, and a
// task's winners its critical payment.
type runArchive struct {
	chunk.Log
	n    int
	hash func(string) uint64
	// index is an open-addressed table of the records, a power of two
	// long, made at the first add. A used slot holds the run ID's
	// fingerprint (the top fpBits of its hash) over its record's position
	// plus one, so 0 marks an empty slot; a lookup probes linearly from
	// the fingerprint's home slot and reads the head of each record whose
	// fingerprint matches. The table doubles past 7/8 load.
	index []uint64
	// names interns tenants and worker IDs.
	names []string
	ids   map[string]uint32
	// buf is the record being encoded, after room for its length, and
	// taskAt a long task list's IDs by 1-based index while it is.
	buf    []byte
	taskAt map[string]uint32
}

// The flags byte of a record.
const (
	archOutcome byte = 1 << iota
	archNilTasks
	archNilAssignments
	archNilSelected
	archNilPayments
)

// archiveName names the archive in a failed spill read's panic.
const archiveName = "run archive"

// linearTasks is the longest task list whose references are found by a
// scan; a longer one is indexed in taskAt.
const linearTasks = 8

// An index slot holds a fingerprint of fpBits over a position plus one of
// posBits. A position is its chunk's index times chunk.Full plus the
// record's offset, which is below chunk.Full: a record starts inside a
// full-sized chunk or at offset 0 of a chunk of its own.
const (
	fpBits  = 24
	posBits = 64 - fpBits
	posMask = 1<<posBits - 1
)

// firstIndex is the index's length at the first add.
const firstIndex = 16

// newRunArchive returns an empty archive that indexes run IDs by hash.
func newRunArchive(hash func(string) uint64) runArchive {
	return runArchive{hash: hash}
}

// add appends a finished run's record and indexes it. Callers have checked
// that the archive does not hold the ID.
func (a *runArchive) add(r RunSnapshot) {
	b := append(a.buf[:0], make([]byte, binary.MaxVarintLen64)...)
	var flags byte
	if r.Tasks == nil {
		flags |= archNilTasks
	}
	out := r.Outcome
	if out != nil {
		flags |= archOutcome
		if out.Assignments == nil {
			flags |= archNilAssignments
		}
		if out.SelectedTasks == nil {
			flags |= archNilSelected
		}
		if out.TaskPayments == nil {
			flags |= archNilPayments
		}
	}
	b = append(b, flags)
	b = appendText(b, r.ID)
	b = binary.AppendUvarint(b, uint64(a.intern(r.Tenant)))
	b = binary.AppendUvarint(b, uint64(uint32(r.Num)))
	b = appendFloat(b, r.Budget)
	b = binary.AppendUvarint(b, uint64(len(r.Tasks)))
	prev, last := r.ID, uint64(0)
	for _, t := range r.Tasks {
		k := sharedPrefix(prev, t.ID)
		bits := math.Float64bits(t.Threshold)
		b = binary.AppendUvarint(b, uint64(k)<<1|repeatBit(bits, last))
		b = appendText(b, t.ID[k:])
		b = appendRepeatable(b, bits, last)
		prev, last = t.ID, bits
	}
	if out != nil {
		indexed := len(r.Tasks) > linearTasks
		if indexed {
			if a.taskAt == nil {
				a.taskAt = make(map[string]uint32, len(r.Tasks))
			}
			for i := len(r.Tasks) - 1; i >= 0; i-- {
				a.taskAt[r.Tasks[i].ID] = uint32(i + 1)
			}
		}
		b = appendFloat(b, out.TotalPayment)
		b = binary.AppendUvarint(b, uint64(len(out.SelectedTasks)))
		for _, id := range out.SelectedTasks {
			b = a.appendTaskRef(b, r.Tasks, id)
		}
		b = binary.AppendUvarint(b, uint64(len(out.TaskPayments)))
		for _, p := range out.TaskPayments {
			b = appendFloat(b, p)
		}
		b = binary.AppendUvarint(b, uint64(len(out.Assignments)))
		last = 0
		for _, as := range out.Assignments {
			bits := math.Float64bits(as.Payment)
			b = binary.AppendUvarint(b, uint64(a.intern(as.WorkerID))<<1|repeatBit(bits, last))
			b = a.appendTaskRef(b, r.Tasks, as.TaskID)
			b = appendRepeatable(b, bits, last)
			last = bits
		}
		if indexed {
			clear(a.taskAt)
		}
	}
	// The length goes right before the rest, in the room left for it.
	var n [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(n[:], uint64(len(b)-binary.MaxVarintLen64))
	start := binary.MaxVarintLen64 - k
	copy(b[start:], n[:k])
	c, off := a.Append(b[start:])
	pos := uint64(c)*chunk.Full + uint64(off)
	if pos >= posMask {
		panic("melody: run archive outgrew its index's positions")
	}
	if (a.n+1)*8 > len(a.index)*7 {
		a.growIndex()
	}
	a.place(a.hash(r.ID)>>posBits<<posBits | (pos + 1))
	a.n++
	if cap(b) > chunk.Full {
		b = nil // a run longer than a chunk does not keep its buffer
	}
	a.buf = b
}

// growIndex doubles the index, or makes it, and re-places every slot from
// its stored fingerprint, reading no record.
func (a *runArchive) growIndex() {
	old := a.index
	a.index = make([]uint64, max(2*len(old), firstIndex))
	for _, s := range old {
		if s != 0 {
			a.place(s)
		}
	}
}

// place stores slot s in the first empty slot from its home on.
func (a *runArchive) place(s uint64) {
	mask := len(a.index) - 1
	i := a.home(s >> posBits)
	for a.index[i] != 0 {
		i = (i + 1) & mask
	}
	a.index[i] = s
}

// home returns fingerprint fp's home slot: the top bits of fp times a
// 64-bit odd constant. hash64's own top bits barely depend on an ID's last
// characters, so IDs that differ only there would share a neighbourhood.
func (a *runArchive) home(fp uint64) int {
	return int(fp * 0x9E3779B97F4A7C15 >> (64 - bits.TrailingZeros(uint(len(a.index)))))
}

// appendTaskRef appends the reference to task ID id of a run with tasks.
func (a *runArchive) appendTaskRef(b []byte, tasks []Task, id string) []byte {
	i := uint32(0)
	if len(tasks) > linearTasks {
		i = a.taskAt[id]
	} else {
		for k := range tasks {
			if tasks[k].ID == id {
				i = uint32(k + 1)
				break
			}
		}
	}
	b = binary.AppendUvarint(b, uint64(i))
	if i == 0 {
		b = appendText(b, id)
	}
	return b
}

// intern returns name's index in a.names, adding it on first use.
func (a *runArchive) intern(name string) uint32 {
	id, ok := a.ids[name]
	if !ok {
		if a.ids == nil {
			a.ids = make(map[string]uint32)
		}
		id = uint32(len(a.names))
		a.names = append(a.names, name)
		a.ids[name] = id
	}
	return id
}

// readAhead is how many bytes past its head a record's lookup reads at
// first: enough for a lifecycle-shaped run, so one read usually takes the
// whole record back from a spilled chunk.
const readAhead = 128

// find returns the position of run id's record and the record's first
// head(id)+more bytes, or fewer at its chunk's end. A spilled chunk is read
// back into *buf.
func (a *runArchive) find(id string, more int, buf *[]byte) (uint64, []byte, bool) {
	if a.index == nil {
		return 0, nil, false
	}
	fp := a.hash(id) >> posBits
	mask := len(a.index) - 1
	for i := a.home(fp); ; i = (i + 1) & mask {
		s := a.index[i]
		if s == 0 {
			return 0, nil, false
		}
		if s>>posBits != fp {
			continue
		}
		pos := s&posMask - 1
		if h := a.record(pos, head(id)+more, buf); holdsID(h, id) {
			return pos, h, true
		}
	}
}

// record returns n bytes of the record at pos, or fewer at its chunk's
// end.
func (a *runArchive) record(pos uint64, n int, buf *[]byte) []byte {
	return a.Read(int(pos/chunk.Full), int(pos%chunk.Full), n, buf)
}

// head bounds the length of a record's head when its run ID is id: the
// longest length uvarint, the flags byte and the ID.
func head(id string) int {
	var n [binary.MaxVarintLen64]byte
	return binary.MaxVarintLen64 + 1 + binary.PutUvarint(n[:], uint64(len(id))) + len(id)
}

// holdsID reports whether h, a record's head, is run id's.
func holdsID(h []byte, id string) bool {
	_, k := binary.Uvarint(h)
	if k <= 0 || len(h) <= k {
		return false
	}
	n, j := binary.Uvarint(h[k+1:])
	k += 1 + j
	return j > 0 && n == uint64(len(id)) && len(h) >= k+len(id) && string(h[k:k+len(id)]) == id
}

// has reports whether the archive holds run id.
func (a *runArchive) has(id string) bool {
	buf := chunk.Buffer()
	defer chunk.Release(buf)
	_, _, ok := a.find(id, 0, buf)
	return ok
}

// flags returns the flags byte of run id's record, reading only the
// record's head.
func (a *runArchive) flags(id string) (byte, bool) {
	buf := chunk.Buffer()
	defer chunk.Release(buf)
	_, h, ok := a.find(id, 0, buf)
	if !ok {
		return 0, false
	}
	_, k := binary.Uvarint(h)
	return h[k], true
}

// run decodes the record of run id. A record longer than its first read
// is read again, whole.
func (a *runArchive) run(id string) (RunSnapshot, bool) {
	buf := chunk.Buffer()
	defer chunk.Release(buf)
	pos, rec, ok := a.find(id, readAhead, buf)
	if !ok {
		return RunSnapshot{}, false
	}
	if n, k := binary.Uvarint(rec); k+int(n) > len(rec) {
		rec = a.record(pos, k+int(n), buf)
	}
	r, _ := a.decode(rec)
	return r, true
}

// each decodes every record in the order the runs were added, reading
// each chunk once.
func (a *runArchive) each(fn func(RunSnapshot)) {
	buf := chunk.Buffer()
	defer chunk.Release(buf)
	for i := range a.Chunks {
		c := a.Read(i, 0, -1, buf)
		for len(c) > 0 {
			var r RunSnapshot
			r, c = a.decode(c)
			fn(r)
		}
	}
}

// decode decodes the record at the start of c, its length included, and
// returns the bytes after it.
func (a *runArchive) decode(c []byte) (RunSnapshot, []byte) {
	d := archReader{b: c}
	d.uvarint()
	flags := d.take(1)[0]
	var r RunSnapshot
	id := d.text()
	r.ID = string(id)
	r.Tenant = a.names[d.uvarint()]
	r.Num = int(int32(uint32(d.uvarint())))
	r.Budget = d.float()
	if n := d.uvarint(); n > 0 || flags&archNilTasks == 0 {
		r.Tasks = make([]Task, n)
	}
	var scratch [64]byte
	buf, prev, last := scratch[:0], id, uint64(0)
	for i := range r.Tasks {
		v := d.uvarint()
		if v>>1 > uint64(len(prev)) {
			panic("melody: corrupt run archive chunk")
		}
		buf = append(append(buf[:0], prev[:v>>1]...), d.text()...)
		last = d.repeatable(v, last)
		r.Tasks[i] = Task{ID: string(buf), Threshold: math.Float64frombits(last)}
		prev = buf
	}
	if flags&archOutcome == 0 {
		return r, d.b
	}
	out := &Outcome{TotalPayment: d.float()}
	if n := d.uvarint(); n > 0 || flags&archNilSelected == 0 {
		out.SelectedTasks = make([]string, n)
	}
	for i := range out.SelectedTasks {
		out.SelectedTasks[i] = d.taskRef(r.Tasks)
	}
	if n := d.uvarint(); n > 0 || flags&archNilPayments == 0 {
		out.TaskPayments = make([]float64, n)
	}
	for i := range out.TaskPayments {
		out.TaskPayments[i] = d.float()
	}
	if n := d.uvarint(); n > 0 || flags&archNilAssignments == 0 {
		out.Assignments = make([]Assignment, n)
	}
	last = 0
	for i := range out.Assignments {
		v := d.uvarint()
		task := d.taskRef(r.Tasks)
		last = d.repeatable(v, last)
		out.Assignments[i] = Assignment{WorkerID: a.names[v>>1], TaskID: task, Payment: math.Float64frombits(last)}
	}
	r.Outcome = out
	return r, d.b
}

// archReader decodes a record's fields in order. A malformed record
// panics: records are only ever written by add.
type archReader struct{ b []byte }

func (d *archReader) take(n uint64) []byte {
	if n > uint64(len(d.b)) {
		panic("melody: corrupt run archive chunk")
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

func (d *archReader) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		panic("melody: corrupt run archive chunk")
	}
	d.b = d.b[n:]
	return v
}

func (d *archReader) float() float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(d.take(8)))
}

// repeatable decodes a repeatable float's bits: last's when the repeat bit,
// v's lowest, is set, else the 8 bytes that follow.
func (d *archReader) repeatable(v, last uint64) uint64 {
	if v&1 != 0 {
		return last
	}
	return binary.LittleEndian.Uint64(d.take(8))
}

// text decodes a length and the bytes that follow.
func (d *archReader) text() []byte { return d.take(d.uvarint()) }

// taskRef decodes a task reference against the run's tasks.
func (d *archReader) taskRef(tasks []Task) string {
	i := d.uvarint()
	switch {
	case i == 0:
		return string(d.text())
	case i > uint64(len(tasks)):
		panic("melody: corrupt run archive chunk")
	}
	return tasks[i-1].ID
}

func appendText(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// repeatBit is 1 when a float's bits repeat the previous float's.
func repeatBit(bits, last uint64) uint64 {
	if bits == last {
		return 1
	}
	return 0
}

// appendRepeatable appends a float's bits unless they repeat last.
func appendRepeatable(b []byte, bits, last uint64) []byte {
	if bits == last {
		return b
	}
	return binary.LittleEndian.AppendUint64(b, bits)
}

// sharedPrefix returns the length of the longest common prefix of a and b.
func sharedPrefix(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
