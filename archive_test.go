package melody

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"melody/internal/chunk"
	"melody/internal/chunk/chunktest"
	"melody/internal/obs"
)

// FuzzRunArchive turns its input into a sequence of finished runs, archives
// them, and reads each back through the index: the decoded run must equal
// the input under reflect.DeepEqual and encode to the same JSON, and the
// archive must list the runs in order and know no other ID. The inputs
// reach IDs longer than a chunk, task IDs the spec lacks or repeats, nil
// and empty slices, and arbitrary float bits (−0, subnormals and
// infinities; NaN is left out only because it never equals itself under
// DeepEqual). The same sequence then goes through an archive whose hash is
// constant, so every ID shares one fingerprint and one home slot, and
// through one whose fingerprints take four values, so a lookup walks past
// records of other fingerprints that share its probe run and records of
// its own that are other runs', across the table's end. All three then run
// again on archives that spill closed chunks to a sink, where the input
// also chooses runs before which the open chunk closes, so every read goes
// through spilled chunks and records land at any offset.
func FuzzRunArchive(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x03lifecycle\x01\x07\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x44\x40\x02"))
	f.Add([]byte("\x01long\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x80\x0f\x02\x06\x02\x06\x03\x05"))
	f.Fuzz(func(t *testing.T, data []byte) {
		runs, closes := fuzzRuns(data)
		for _, hash := range []func(string) uint64{hash64, func(string) uint64 { return 7 }, fourPrints} {
			checkArchive(t, newRunArchive(hash), runs, nil)
			checkArchive(t, spillingArchive(hash, new(chunktest.File)), runs, closes)
		}
	})
}

// fourPrints is hash64 with all but its top two bits cleared, so run IDs
// take four fingerprints and at most four home slots.
func fourPrints(id string) uint64 { return hash64(id) & (3 << 62) }

// spillingArchive returns an empty archive that spills closed chunks to f.
func spillingArchive(hash func(string) uint64, f chunk.File) runArchive {
	a := newRunArchive(hash)
	a.SpillTo(chunk.NewSink(f, nil), archiveName)
	return a
}

// closeChunk closes the archive's open chunk, spilling it, as if the next
// record did not fit.
func (a *runArchive) closeChunk() {
	if last := len(a.Chunks) - 1; last >= 0 && len(a.Chunks[last]) > 0 {
		a.Open(0)
	}
}

// checkArchive adds runs to a, closing its open chunk before run i when
// closes[i] is set, and checks every read of them.
func checkArchive(t *testing.T, a runArchive, runs []RunSnapshot, closes []bool) {
	t.Helper()
	for i, r := range runs {
		if a.has(r.ID) {
			t.Fatalf("run %d: the archive holds %.40q before it was added", i, r.ID)
		}
		if closes != nil && closes[i] {
			a.closeChunk()
		}
		a.add(r)
		sameRun(t, "added", &a, r)
	}
	for _, r := range runs {
		sameRun(t, "after all adds", &a, r)
		if a.has(r.ID + "?") {
			t.Fatalf("the archive holds %.40q, which was never added", r.ID+"?")
		}
	}
	i := 0
	a.each(func(got RunSnapshot) {
		if i >= len(runs) || !reflect.DeepEqual(got, runs[i]) {
			t.Fatalf("each: run %d differs from the one added", i)
		}
		i++
	})
	if i != len(runs) || a.n != len(runs) {
		t.Fatalf("each lists %d runs and the archive counts %d; %d were added", i, a.n, len(runs))
	}
	if a.Sink() == nil {
		size := 0
		for _, c := range a.Chunks {
			size += cap(c)
		}
		if size != a.Size {
			t.Fatalf("chunks take %d bytes, the archive counts %d", size, a.Size)
		}
		return
	}
	var buf []byte
	spilled := 0
	for i, c := range a.Chunks {
		if last := i == len(a.Chunks)-1; (c == nil) == last {
			t.Fatalf("chunk %d of %d is spilled %v; want every closed chunk spilled", i, len(a.Chunks), c == nil)
		} else if !last {
			spilled += len(a.Read(i, 0, -1, &buf))
		}
	}
	if got := a.Sink().Size(); got != int64(spilled) {
		t.Fatalf("the sink holds %d bytes, the closed chunks %d", got, spilled)
	}
}

// sameRun looks r up in a and fails unless it decodes to r.
func sameRun(t *testing.T, when string, a *runArchive, r RunSnapshot) {
	t.Helper()
	got, ok := a.run(r.ID)
	if !ok {
		t.Fatalf("%s: run %.40q not found", when, r.ID)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("%s: run %.40q decodes to %+v, want %+v", when, r.ID, got, r)
	}
	want, wantErr := json.Marshal(r)
	body, err := json.Marshal(got)
	if string(body) != string(want) || (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: run %.40q encodes to %s (%v), want %s (%v)", when, r.ID, body, err, want, wantErr)
	}
}

// fuzzRuns decodes up to 48 finished runs from data, at most two of them
// with an ID longer than a chunk, and for each whether a spilling archive
// closes its open chunk before adding it. Run IDs are unique; everything
// else may repeat.
func fuzzRuns(data []byte) ([]RunSnapshot, []bool) {
	in := fuzzInput{b: data}
	var runs []RunSnapshot
	var closes []bool
	long := 0
	for i := 0; len(in.b) > 0 && i < 48; i++ {
		op := in.byte()
		id := in.text() + "#" + strconv.Itoa(i)
		if op&1 != 0 && long < 2 {
			id = strings.Repeat(id, chunk.Full/len(id)+1)
			long++
		}
		r := RunSnapshot{ID: id, Tenant: fuzzNames[int(in.byte())%len(fuzzNames)],
			Num: int(int32(in.uint32())), Budget: in.float()}
		if n := in.count(); n >= 0 {
			r.Tasks = make([]Task, n)
		}
		for k := range r.Tasks {
			var task string
			switch in.byte() % 4 {
			case 0:
				task = id + "-k" + strconv.Itoa(k)
			case 1:
				if k > 0 {
					task = r.Tasks[k-1].ID
				}
			default:
				task = in.text()
			}
			r.Tasks[k] = Task{ID: task, Threshold: in.float()}
		}
		if op&2 != 0 {
			r.Outcome = fuzzOutcome(&in, r.Tasks)
		}
		runs = append(runs, r)
		closes = append(closes, op&4 != 0)
	}
	return runs, closes
}

// fuzzOutcome decodes an outcome for a run with tasks.
func fuzzOutcome(in *fuzzInput, tasks []Task) *Outcome {
	out := &Outcome{TotalPayment: in.float()}
	if n := in.count(); n >= 0 {
		out.SelectedTasks = make([]string, n)
	}
	for i := range out.SelectedTasks {
		out.SelectedTasks[i] = in.task(tasks)
	}
	if n := in.count(); n >= 0 {
		out.TaskPayments = make([]float64, n)
	}
	for i := range out.TaskPayments {
		out.TaskPayments[i] = in.float()
	}
	if n := in.count(); n >= 0 {
		out.Assignments = make([]Assignment, n)
	}
	for i := range out.Assignments {
		worker := fuzzNames[int(in.byte())%len(fuzzNames)]
		if worker == "" {
			worker = in.text()
		}
		out.Assignments[i] = Assignment{WorkerID: worker, TaskID: in.task(tasks), Payment: in.float()}
	}
	return out
}

// fuzzNames are tenant and worker names; the empty one asks for text.
var fuzzNames = []string{"", "default", "a", "w1", "w2", "tenant-β"}

// fuzzInput hands out fuzz bytes as values, reading zeros once they run
// out.
type fuzzInput struct{ b []byte }

func (in *fuzzInput) take(n int) []byte {
	n = min(n, len(in.b))
	v := in.b[:n]
	in.b = in.b[n:]
	return v
}

func (in *fuzzInput) byte() byte {
	if v := in.take(1); len(v) == 1 {
		return v[0]
	}
	return 0
}

func (in *fuzzInput) uint32() uint32 {
	var v [4]byte
	copy(v[:], in.take(4))
	return binary.LittleEndian.Uint32(v[:])
}

// float reads 8 bytes of IEEE-754 bits, turning a NaN finite.
func (in *fuzzInput) float() float64 {
	var v [8]byte
	copy(v[:], in.take(8))
	bits := binary.LittleEndian.Uint64(v[:])
	if math.IsNaN(math.Float64frombits(bits)) {
		bits &^= 1 << 62
	}
	return math.Float64frombits(bits)
}

// text reads a length under 16 and that many bytes.
func (in *fuzzInput) text() string { return string(in.take(int(in.byte() % 16))) }

// count reads a slice length under 13, or -1 for a nil slice.
func (in *fuzzInput) count() int {
	if n := int(in.byte() % 14); n < 13 {
		return n
	}
	return -1
}

// task reads a task ID: mostly one of tasks, else one they may lack.
func (in *fuzzInput) task(tasks []Task) string {
	if b := in.byte(); len(tasks) > 0 && b%4 != 0 {
		return tasks[int(b)%len(tasks)].ID
	}
	return "absent-" + in.text()
}

// TestArchiveIndexGrowth archives 5,000 lifecycle-shaped runs, over which
// the index is made and doubles nine times, to 8,192 slots, under hash64
// and under fourPrints, in the heap and spilling closed chunks to a sink. After each growth, and after
// the last run, every run added so far must decode equal to the one added,
// and runs never added must not be found, among them runs whose
// fingerprint a stored run shares. Under fourPrints every lookup walks past
// records of other fingerprints and other runs' records of its own, and
// some probe runs cross the table's end.
func TestArchiveIndexGrowth(t *testing.T) {
	const runs = 5000
	added := make([]RunSnapshot, runs)
	for n := range added {
		added[n] = lifecycleRun(n)
	}
	for _, hash := range []struct {
		name string
		fn   func(string) uint64
	}{{"hash64", hash64}, {"fourPrints", fourPrints}} {
		absent := absentRuns(hash.fn, added, 16)
		for _, spill := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/spill=%v", hash.name, spill), func(t *testing.T) {
				a := newRunArchive(hash.fn)
				if spill {
					a = spillingArchive(hash.fn, new(chunktest.File))
				}
				growths, wrapped := 0, false
				for n, r := range added {
					size := len(a.index)
					a.add(r)
					if len(a.index) != size {
						growths++
					} else if n < runs-1 {
						continue
					}
					wrapped = wrapped || indexWraps(&a)
					for _, r := range added[:n+1] {
						if got, ok := a.run(r.ID); !ok || !reflect.DeepEqual(got, r) {
							t.Fatalf("%d runs in %d slots: run %s decodes to %+v, %v; want %+v", n+1, len(a.index), r.ID, got, ok, r)
						}
					}
					for _, id := range absent {
						if a.has(id) {
							t.Fatalf("%d runs in %d slots: the archive holds %s, which was never added", n+1, len(a.index), id)
						}
					}
				}
				if growths != 10 || len(a.index) != 8192 {
					t.Errorf("the index was made and doubled %d times, to %d slots; want 10 times, to 8,192", growths, len(a.index))
				}
				if hash.name == "fourPrints" && !wrapped {
					t.Error("no run sits below its home slot; the test wants probe runs that cross the table's end")
				}
			})
		}
	}
}

// lifecycleRun returns run n of a lifecycle-shaped season: the tenant
// alternates between two, and the run has 2 tasks of threshold 10, budget
// 40 and three of the tenant's 16 workers as winners.
func lifecycleRun(n int) RunSnapshot {
	tn := n % 2
	id := fmt.Sprintf("t%d-r%06d", tn, n/2)
	tasks := []Task{{ID: id + "-k0", Threshold: 10}, {ID: id + "-k1", Threshold: 10}}
	worker := func(k int) string { return fmt.Sprintf("t%d-w%02d", tn, (n+5*k)%16) }
	return RunSnapshot{ID: id, Tenant: "t" + strconv.Itoa(tn), Num: n + 1, Budget: 40, Tasks: tasks,
		Outcome: &Outcome{
			TotalPayment:  4.75,
			SelectedTasks: []string{tasks[0].ID, tasks[1].ID},
			TaskPayments:  []float64{3.25, 1.5},
			Assignments: []Assignment{
				{WorkerID: worker(0), TaskID: tasks[0].ID, Payment: 1.625},
				{WorkerID: worker(1), TaskID: tasks[0].ID, Payment: 1.625},
				{WorkerID: worker(2), TaskID: tasks[1].ID, Payment: 1.5},
			},
		}}
}

// absentRuns returns k run IDs that none of runs has, named like a third
// tenant's: the first k/4 such names, and then names that share a
// fingerprint under hash with one of runs.
func absentRuns(hash func(string) uint64, runs []RunSnapshot, k int) []string {
	prints := make(map[uint64]bool, len(runs))
	for _, r := range runs {
		prints[hash(r.ID)>>posBits] = true
	}
	var ids []string
	for n := 0; len(ids) < k; n++ {
		if id := fmt.Sprintf("t2-r%06d", n); n < k/4 || prints[hash(id)>>posBits] {
			ids = append(ids, id)
		}
	}
	return ids
}

// indexWraps reports whether some slot of a's index sits below its home,
// its probe run having crossed the table's end.
func indexWraps(a *runArchive) bool {
	for i, s := range a.index {
		if s != 0 && a.home(s>>posBits) > i {
			return true
		}
	}
	return false
}

// TestFinishedRunsMoveToArchive: a finish moves the run from the open runs
// to the archive, whose gauge follows its size at every finish and at a
// snapshot restore. Reads of the finished run decode a fresh copy equal to
// what it was, and its retries take the paths they take on an open run
// that has finished.
func TestFinishedRunsMoveToArchive(t *testing.T) {
	ctx := context.Background()
	newSched := func() (*RunScheduler, *obs.Registry) {
		reg := obs.NewRegistry()
		s, err := NewRunScheduler(SchedulerConfig{
			Auction: AuctionConfig{QualityMin: 1, QualityMax: 10, CostMin: 1, CostMax: 2},
			NewEstimator: func(string) (Estimator, error) {
				return NewQualityTracker(QualityTrackerConfig{InitialMean: 5.5, InitialVar: 2.25,
					Params: QualityParams{A: 1, Gamma: 0.3, Eta: 9}})
			},
			Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s, reg
	}
	gauge := func(what string, s *RunScheduler, reg *obs.Registry) {
		t.Helper()
		if got := reg.Gauge(obs.MetricRunArchiveBytes, "").Value(); got <= 0 || got != float64(s.archive.Size) {
			t.Errorf("%s: %s = %v, the archive takes %d bytes", what, obs.MetricRunArchiveBytes, got, s.archive.Size)
		}
	}
	s, reg := newSched()
	for i := 0; i < 4; i++ {
		if err := s.RegisterWorker(ctx, "w"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	tasks := []Task{{ID: "a1-t1", Threshold: 9}, {ID: "a1-t2", Threshold: 9}}
	open := func(id, tenant string) *Outcome {
		t.Helper()
		if err := s.OpenRun(ctx, id, tenant, tasks, 100); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := s.SubmitBid(ctx, id, "w"+strconv.Itoa(i), Bid{Cost: 1 + 0.1*float64(i), Frequency: 1}); err != nil {
				t.Fatal(err)
			}
		}
		out, err := s.CloseAuction(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	out := open("a1", "a")
	if len(out.Assignments) == 0 {
		t.Fatal("the run selected nobody; the test wants winners")
	}
	if err := s.FinishRun(ctx, "a1"); err != nil {
		t.Fatal(err)
	}
	gauge("after a finish", s, reg)
	open("b1", "b")
	if len(s.runs) != 1 || s.runs["b1"] == nil || s.archive.n != 1 {
		t.Fatalf("open runs %d and archived runs %d, want b1 open and a1 archived", len(s.runs), s.archive.n)
	}

	info, err := s.Run("a1")
	if err != nil || !info.Finished || info.Tenant != "a" || info.Num != 1 || !reflect.DeepEqual(info.Outcome, out) {
		t.Fatalf("Run(a1) = %+v, %v; want finished run 1 of a with the close's outcome", info, err)
	}
	again, _ := s.Run("a1")
	if again.Outcome == info.Outcome || again.Outcome == out {
		t.Error("Run(a1) returns a shared outcome, want a fresh copy each call")
	}
	if got, err := s.CloseAuction(ctx, "a1"); err != nil || !reflect.DeepEqual(got, out) {
		t.Errorf("close of finished a1 = %+v, %v; want the close's outcome", got, err)
	}
	if err := s.OpenRun(ctx, "a1", "a", tasks, 100); err != nil {
		t.Errorf("open of finished a1 with its spec = %v, want success", err)
	}
	if err := s.OpenRun(ctx, "a1", "a", tasks, 90); !errors.Is(err, ErrRunOpen) {
		t.Errorf("open of finished a1 with another budget = %v, want ErrRunOpen", err)
	}
	if err := s.OpenRun(ctx, "a1", "b", tasks, 100); err == nil {
		t.Error("open of finished a1 for another tenant succeeded")
	}
	if err := s.SubmitBid(ctx, "a1", "w0", Bid{Cost: 1, Frequency: 1}); !errors.Is(err, ErrNoRunOpen) {
		t.Errorf("bid on finished a1 = %v, want ErrNoRunOpen", err)
	}
	if err := s.FinishRun(ctx, "a1"); err != nil {
		t.Errorf("finish of finished a1 = %v, want success", err)
	}
	if err := s.FinishRun(ctx, "b1"); err != nil {
		t.Fatal(err)
	}
	gauge("after a second finish", s, reg)

	snap, err := s.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	restored, restoredReg := newSched()
	if err := restored.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	gauge("after a restore", restored, restoredReg)
	if got, err := restored.Run("a1"); err != nil || !reflect.DeepEqual(got, info) {
		t.Errorf("restored Run(a1) = %+v, %v; want %+v", got, err, info)
	}
}

// TestArchiveReadsRaceFinishes reads finished runs back from several
// goroutines while other runs finish and grow the archive, its first chunk
// included. Run it under -race: reads decode under the scheduler's read
// lock and share no bytes with the chunks. On a spilling scheduler every
// tenth finish closes the archive's open chunk, so cold reads of the first
// run's spilled chunk race finishes that spill chunks.
func TestArchiveReadsRaceFinishes(t *testing.T) {
	t.Run("resident", func(t *testing.T) { archiveReadsRaceFinishes(t, false) })
	t.Run("spilled", func(t *testing.T) { archiveReadsRaceFinishes(t, true) })
}

func archiveReadsRaceFinishes(t *testing.T, spill bool) {
	ctx := context.Background()
	s, err := NewRunScheduler(SchedulerConfig{
		Auction: AuctionConfig{QualityMin: 1, QualityMax: 10, CostMin: 1, CostMax: 2},
		NewEstimator: func(string) (Estimator, error) {
			return NewQualityTracker(QualityTrackerConfig{InitialMean: 5.5, InitialVar: 2.25,
				Params: QualityParams{A: 1, Gamma: 0.3, Eta: 9}})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if spill {
		s.SpillTo(new(chunktest.File))
	}
	for i := 0; i < 4; i++ {
		if err := s.RegisterWorker(ctx, "w"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	finish := func(n int) *Outcome {
		id := "r" + strconv.Itoa(n)
		if err := s.OpenRun(ctx, id, "a", []Task{{ID: id + "-t1", Threshold: 9}}, 100); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := s.SubmitBid(ctx, id, "w"+strconv.Itoa(i), Bid{Cost: 1 + 0.1*float64(i), Frequency: 1}); err != nil {
				t.Fatal(err)
			}
		}
		out, err := s.CloseAuction(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.FinishRun(ctx, id); err != nil {
			t.Fatal(err)
		}
		if spill && n%10 == 0 {
			s.mu.Lock()
			s.archive.closeChunk()
			s.mu.Unlock()
		}
		return out
	}
	first := finish(0)
	done := make(chan struct{})
	errs := make(chan error, 3)
	for g := 0; g < 3; g++ {
		go func() {
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				info, err := s.Run("r0")
				if err != nil || !info.Finished || !reflect.DeepEqual(info.Outcome, first) {
					errs <- fmt.Errorf("Run(r0) = %+v, %v while runs finish", info, err)
					return
				}
				if closed, finished, err := s.RunState("r0"); err != nil || !closed || !finished {
					errs <- fmt.Errorf("RunState(r0) = %v, %v, %v while runs finish", closed, finished, err)
					return
				}
			}
		}()
	}
	for n := 1; n <= 200; n++ {
		finish(n)
	}
	close(done)
	for g := 0; g < 3; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if !spill && (len(s.archive.Chunks) != 1 || cap(s.archive.Chunks[0]) <= chunk.First) {
		t.Errorf("the archive holds %d chunks; the test wants its first chunk grown", len(s.archive.Chunks))
	}
	if spill && (len(s.archive.Chunks) < 21 || slices.ContainsFunc(s.archive.Chunks[:len(s.archive.Chunks)-1], func(c []byte) bool { return c != nil })) {
		t.Errorf("the archive holds %d chunks; the test wants 21 or more, every closed one spilled", len(s.archive.Chunks))
	}
}

// countingFile is an in-memory chunk.File that counts the bytes read back.
type countingFile struct {
	chunktest.File
	read int
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.read += n
	return n, err
}

// TestSpilledRunReadsItsRecord finishes 2,000 lifecycle-shaped runs (16
// bids, 2 tasks) through a spilling scheduler and looks every spilled run
// up: each Run reads its record's head and a bounded read-ahead, and the
// record again only when it is longer, never the rest of its chunk. So it
// reads at most the record plus head(id)+readAhead bytes. The record's
// length is measured by encoding the run into an archive of its own.
func TestSpilledRunReadsItsRecord(t *testing.T) {
	ctx := context.Background()
	s, err := NewRunScheduler(SchedulerConfig{
		Auction: AuctionConfig{QualityMin: 1, QualityMax: 10, CostMin: 1, CostMax: 2},
		NewEstimator: func(string) (Estimator, error) {
			return NewQualityTracker(QualityTrackerConfig{InitialMean: 5.5, InitialVar: 2.25,
				Params: QualityParams{A: 1, Gamma: 0.3, Eta: 9}})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := new(countingFile)
	s.SpillTo(f)
	for i := 0; i < 16; i++ {
		if err := s.RegisterWorker(ctx, "w"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 2000
	for n := 0; n < runs; n++ {
		id := "r" + strconv.Itoa(n)
		tasks := []Task{{ID: id + "-t0", Threshold: 9}, {ID: id + "-t1", Threshold: 9}}
		if err := s.OpenRun(ctx, id, "a", tasks, 100); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			if err := s.SubmitBid(ctx, id, "w"+strconv.Itoa(i), Bid{Cost: 1 + 0.05*float64(i), Frequency: 1}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.CloseAuction(ctx, id); err != nil {
			t.Fatal(err)
		}
		if err := s.FinishRun(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	spilled := 0
	for n := 0; n < runs; n++ {
		id := "r" + strconv.Itoa(n)
		s.mu.RLock()
		pos, _, _ := s.archive.find(id, 0, new([]byte))
		inHeap := s.archive.Chunks[pos/chunk.Full] != nil
		snap, _ := s.archive.run(id)
		s.mu.RUnlock()
		if inHeap {
			continue
		}
		spilled++
		own := newRunArchive(hash64)
		own.add(snap)
		record := len(own.Chunks[0])
		f.read = 0
		if info, err := s.Run(id); err != nil || !info.Finished {
			t.Fatalf("Run(%s) = %+v, %v", id, info, err)
		}
		if bound := record + head(id) + readAhead; f.read > bound {
			t.Fatalf("Run(%s) read %d bytes for a %d-byte record; want at most %d", id, f.read, record, bound)
		}
	}
	if spilled < runs/2 {
		t.Fatalf("%d of %d runs spilled; the test wants most of them in closed chunks", spilled, runs)
	}
}

// BenchmarkArchiveIndex measures the run-ID index on in-heap archives of
// 10^4 and 10^6 lifecycle-shaped runs. add is one run's add, its record's
// encoding included, while an archive fills to that size, starting over
// once it holds them all, so it needs that many iterations to reach the
// full size; hit decodes a run the full archive holds and miss looks up
// one it never held, both in a scattered order. The runs share one pair of
// task IDs and name their workers from a fixed pool, so an add allocates
// only what the archive does.
func BenchmarkArchiveIndex(b *testing.B) {
	const width = len("t0-r000000")
	tenants := []string{"t0", "t1"}
	var workers [2][16]string
	for tn := range workers {
		for w := range workers[tn] {
			workers[tn][w] = fmt.Sprintf("t%d-w%02d", tn, w)
		}
	}
	tasks := []Task{{ID: "k0", Threshold: 10}, {ID: "k1", Threshold: 10}}
	out := &Outcome{TotalPayment: 4.75, SelectedTasks: []string{"k0", "k1"}, TaskPayments: []float64{3.25, 1.5},
		Assignments: []Assignment{{TaskID: "k0", Payment: 1.625}, {TaskID: "k0", Payment: 1.625}, {TaskID: "k1", Payment: 1.5}}}
	for _, n := range []int{10_000, 1_000_000} {
		b.Run("runs="+strconv.Itoa(n), func(b *testing.B) {
			// Run i is run i/2 of tenant i%2; the misses are a third
			// tenant's. Both lists are one string, width bytes per ID.
			var held, never []byte
			for i := range n {
				held = fmt.Appendf(held, "t%d-r%06d", i%2, i/2)
				never = fmt.Appendf(never, "t2-r%06d", i)
			}
			hits, misses := string(held), string(never)
			id := func(ids string, i int) string { return ids[i*width : (i+1)*width] }
			add := func(a *runArchive, i int) {
				tn := i % 2
				for k := range out.Assignments {
					out.Assignments[k].WorkerID = workers[tn][(i+5*k)%16]
				}
				a.add(RunSnapshot{ID: id(hits, i), Tenant: tenants[tn], Num: i + 1, Budget: 40, Tasks: tasks, Outcome: out})
			}
			b.Run("add", func(b *testing.B) {
				var a runArchive
				for i := range b.N {
					if i%n == 0 {
						a = newRunArchive(hash64)
					}
					add(&a, i%n)
				}
			})
			a := newRunArchive(hash64)
			for i := range n {
				add(&a, i)
			}
			// A stride coprime to n visits every run once per n lookups.
			const stride = 7919
			b.Run("hit", func(b *testing.B) {
				for i, k := 0, 0; i < b.N; i, k = i+1, (k+stride)%n {
					if _, ok := a.run(id(hits, k)); !ok {
						b.Fatalf("run %s not found", id(hits, k))
					}
				}
			})
			b.Run("miss", func(b *testing.B) {
				for i, k := 0, 0; i < b.N; i, k = i+1, (k+stride)%n {
					if a.has(id(misses, k)) {
						b.Fatalf("the archive holds %s, which was never added", id(misses, k))
					}
				}
			})
		})
	}
}
