package eventlog

// Tests for the context-aware durability waits introduced with the
// ctx-first API: a cancelled wait returns promptly with the context error,
// but never un-appends the record — the write still reaches disk and
// replays (the "unknown outcome" semantics of a lost response, which the
// idempotent protocol makes safe to retry).

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestAppendAsyncWaitHonorsCancelledContext: the wait returned by
// AppendAsync selects on ctx and unblocks with ctx.Err() when cancelled,
// while the record itself stays in the log and replays after Close.
func TestAppendAsyncWaitHonorsCancelledContext(t *testing.T) {
	target := &countingTarget{syncDelay: 50 * time.Millisecond}
	log := newLog(target, 0, Options{SyncEveryAppend: true})

	_, wait, err := log.AppendAsync(Event{Kind: KindRegister, Worker: "w1"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	werr := wait(ctx)
	if werr != nil && !errors.Is(werr, context.Canceled) {
		t.Fatalf("cancelled wait = %v, want nil (already durable) or context.Canceled", werr)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled wait blocked for %v", elapsed)
	}

	// The abandoned record still commits: a background-ctx wait on a fresh
	// append (strictly later in the sequence) confirms both are durable.
	_, wait2, err := log.AppendAsync(Event{Kind: KindRegister, Worker: "w2"})
	if err != nil {
		t.Fatal(err)
	}
	if err := wait2(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendAsyncAbandonedRecordReplays: an append whose wait was abandoned
// is still on disk after Close and replays with its sequence intact.
func TestAppendAsyncAbandonedRecordReplays(t *testing.T) {
	path := tempLog(t)
	log, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	_, wait, err := log.AppendAsync(Event{Kind: KindRegister, Worker: "abandoned"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = wait(ctx) // abandon the wait; outcome is unknown to the caller
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Worker != "abandoned" {
		t.Fatalf("replayed %v, want the abandoned record", events)
	}
}

// TestRecorderContextCancellation: a persistent-scheduler mutation with an
// already-cancelled context fails without reaching the scheduler.
func TestRecorderContextCancellation(t *testing.T) {
	pp, wal, err := OpenPersistentScheduler(tempLog(t), newScheduler(t), Options{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := pp.RegisterWorker(ctx, "w1"); !errors.Is(err, context.Canceled) {
		t.Fatalf("RegisterWorker with cancelled ctx = %v, want context.Canceled", err)
	}
	if got := pp.Workers(); len(got) != 0 {
		t.Fatalf("cancelled RegisterWorker still applied: %v", got)
	}
}
