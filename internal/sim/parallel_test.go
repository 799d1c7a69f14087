package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// The parallel engine must replay any mix of shard, inline and plain
// events with effects observably identical to the serial loop. The toy
// model here: an array of cells; a shard event adds to two cells during
// its wave phase and appends an audit entry at commit; a plain event
// reads the running total (so it can observe misordering); an inline
// event schedules follow-ups.

type cellEvent struct {
	cells *[]int
	audit *[]string
	a, b  int
	inc   int
	// snapA/snapB capture the event's own post-increment view of its
	// cells during the wave phase. Per the ShardEvent contract the
	// commit phase must not re-read shard state (later batch members
	// may have advanced it); it reports the captured view, which the
	// conflict rule makes deterministic.
	snapA, snapB int
}

func (ev *cellEvent) Execute(e *Engine) {
	ev.ExecuteShard(e)
	ev.CommitShard(e)
}

func (ev *cellEvent) ShardKeys() (int64, int64) { return int64(ev.a), int64(ev.b) }

func (ev *cellEvent) ExecuteShard(e *Engine) {
	(*ev.cells)[ev.a] += ev.inc
	if ev.b != ev.a {
		(*ev.cells)[ev.b] += ev.inc
	}
	ev.snapA = (*ev.cells)[ev.a]
	ev.snapB = (*ev.cells)[ev.b]
}

func (ev *cellEvent) CommitShard(e *Engine) {
	*ev.audit = append(*ev.audit, fmt.Sprintf("commit %d+%d cells %d/%d", ev.a, ev.b, ev.snapA, ev.snapB))
}

// run replays one deterministic random mix of events and returns the
// final cells plus the audit log.
func runMix(workers int, seed int64) ([]int, []string) {
	const nCells = 12
	cells := make([]int, nCells)
	var audit []string
	e := New(1)
	e.SetWorkers(workers)
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < 400; i++ {
		at := float64(r.Intn(50))
		switch r.Intn(10) {
		case 0: // plain event: flush barrier observing global state
			e.ScheduleFunc(at, func(*Engine) {
				total := 0
				for _, c := range cells {
					total += c
				}
				audit = append(audit, fmt.Sprintf("barrier total %d", total))
			})
		case 1: // inline event scheduling a follow-up shard event
			a, b, inc := r.Intn(nCells), r.Intn(nCells), r.Intn(5)
			e.ScheduleBand(at, -1, InlineFunc(func(e *Engine) {
				e.Schedule(e.Now()+1, &cellEvent{cells: &cells, audit: &audit, a: a, b: b, inc: inc})
			}))
		default:
			e.Schedule(at, &cellEvent{
				cells: &cells, audit: &audit,
				a: r.Intn(nCells), b: r.Intn(nCells), inc: r.Intn(5),
			})
		}
	}
	e.Run()
	return cells, audit
}

func TestParallelMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		wantCells, wantAudit := runMix(1, seed)
		for _, workers := range []int{2, 4, 8} {
			gotCells, gotAudit := runMix(workers, seed)
			for i := range wantCells {
				if gotCells[i] != wantCells[i] {
					t.Fatalf("seed %d workers %d: cell %d = %d, want %d",
						seed, workers, i, gotCells[i], wantCells[i])
				}
			}
			if len(gotAudit) != len(wantAudit) {
				t.Fatalf("seed %d workers %d: audit length %d, want %d",
					seed, workers, len(gotAudit), len(wantAudit))
			}
			for i := range wantAudit {
				if gotAudit[i] != wantAudit[i] {
					t.Fatalf("seed %d workers %d: audit[%d] = %q, want %q",
						seed, workers, i, gotAudit[i], wantAudit[i])
				}
			}
		}
	}
}

func TestParallelRunUntilDeadline(t *testing.T) {
	cells := make([]int, 4)
	var audit []string
	e := New(1)
	e.SetWorkers(4)
	for i := 0; i < 20; i++ {
		e.Schedule(float64(i), &cellEvent{cells: &cells, audit: &audit, a: i % 4, b: (i + 1) % 4, inc: 1})
	}
	e.RunUntil(9.5)
	if got := len(audit); got != 10 {
		t.Fatalf("events committed by deadline: %d, want 10", got)
	}
	if e.Now() != 9.5 {
		t.Fatalf("clock after bounded run: %v, want 9.5", e.Now())
	}
	e.RunUntil(100)
	if got := len(audit); got != 20 {
		t.Fatalf("events committed after resume: %d, want 20", got)
	}
}

func TestParallelCancelledSkipped(t *testing.T) {
	cells := make([]int, 2)
	var audit []string
	e := New(1)
	e.SetWorkers(4)
	h := e.Schedule(1, &cellEvent{cells: &cells, audit: &audit, a: 0, b: 1, inc: 7})
	e.Schedule(2, &cellEvent{cells: &cells, audit: &audit, a: 0, b: 1, inc: 1})
	h.Cancel()
	e.Run()
	if cells[0] != 1 || cells[1] != 1 {
		t.Fatalf("cancelled shard event ran: cells %v", cells)
	}
}

// cancelAtCommit is a cellEvent whose commit phase cancels another
// scheduled event — the contract-legal way a batch-mate can die after
// collection. Execute is spelled out because Go embedding is not
// virtual: cellEvent.Execute would call cellEvent.CommitShard, not
// ours.
type cancelAtCommit struct {
	cellEvent
	target *Handle
}

func (ev *cancelAtCommit) Execute(e *Engine) {
	ev.ExecuteShard(e)
	ev.CommitShard(e)
}

func (ev *cancelAtCommit) CommitShard(e *Engine) {
	ev.cellEvent.CommitShard(e)
	ev.target.Cancel()
}

// runCommitCancelMix schedules, at one instant, a canceller whose
// commit kills a conflicting later event, plus an independent
// bystander. All three land in one batch under the parallel engine, so
// the cancelled event is dead only after collection — the exact window
// the old flushBatch ignored.
func runCommitCancelMix(workers int) ([]int, []string, uint64) {
	cells := make([]int, 4)
	var audit []string
	e := New(1)
	e.SetWorkers(workers)
	canceller := &cancelAtCommit{cellEvent: cellEvent{cells: &cells, audit: &audit, a: 0, b: 1, inc: 3}}
	e.Schedule(1, canceller)
	target := e.Schedule(1, &cellEvent{cells: &cells, audit: &audit, a: 1, b: 2, inc: 5})
	canceller.target = &target
	e.Schedule(1, &cellEvent{cells: &cells, audit: &audit, a: 3, b: 3, inc: 1})
	e.Run()
	return cells, audit, e.Executed
}

// TestParallelCommitCancelMatchesSerial is the regression test for the
// flushBatch dead-item bug: a commit-phase cancel of a conflicting
// batch-mate must suppress both of its phases and its Executed count,
// exactly as the serial loop skips the dead event at pop. Against the
// old flushBatch this fails three ways: the target's wave contaminates
// cells 1 and 2, its commit appends an extra audit line, and Executed
// counts it.
func TestParallelCommitCancelMatchesSerial(t *testing.T) {
	wantCells, wantAudit, wantExec := runCommitCancelMix(1)
	if wantExec != 2 {
		t.Fatalf("serial Executed = %d, want 2 (cancelled event uncounted)", wantExec)
	}
	for _, workers := range []int{2, 4, 8} {
		gotCells, gotAudit, gotExec := runCommitCancelMix(workers)
		if fmt.Sprint(gotCells) != fmt.Sprint(wantCells) {
			t.Fatalf("workers %d: cells %v, want %v", workers, gotCells, wantCells)
		}
		if fmt.Sprint(gotAudit) != fmt.Sprint(wantAudit) {
			t.Fatalf("workers %d: audit %q, want %q", workers, gotAudit, wantAudit)
		}
		if gotExec != wantExec {
			t.Fatalf("workers %d: Executed %d, want %d", workers, gotExec, wantExec)
		}
	}
}

// TestParallelCollectCancelPending pins the pop check: an OnCollect (or
// inline) cancel of a same-instant event that has NOT yet been popped
// is exact in both engines — the target is skipped at pop and never
// collected.
func TestParallelCollectCancelPending(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cells := make([]int, 3)
		var audit []string
		e := New(1)
		e.SetWorkers(workers)
		var target Handle
		e.ScheduleBand(1, -1, InlineFunc(func(*Engine) { target.Cancel() }))
		target = e.Schedule(1, &cellEvent{cells: &cells, audit: &audit, a: 0, b: 1, inc: 7})
		e.Schedule(1, &cellEvent{cells: &cells, audit: &audit, a: 2, b: 2, inc: 1})
		e.Run()
		if cells[0] != 0 || cells[1] != 0 || cells[2] != 1 {
			t.Fatalf("workers %d: cells %v, want [0 0 1]", workers, cells)
		}
		if e.Executed != 2 {
			t.Fatalf("workers %d: Executed %d, want 2", workers, e.Executed)
		}
	}
}

// TestParallelBatchedCancelSuppressed is the minimal two-event form of
// the commit-cancel regression: with no bystander in the batch, the
// cancelled event must still be suppressed in both phases and
// uncounted.
func TestParallelBatchedCancelSuppressed(t *testing.T) {
	cells := make([]int, 3)
	var audit []string
	e := New(1)
	e.SetWorkers(4)
	canceller := &cancelAtCommit{cellEvent: cellEvent{cells: &cells, audit: &audit, a: 0, b: 0, inc: 1}}
	e.Schedule(1, canceller)
	target := e.Schedule(1, &cellEvent{cells: &cells, audit: &audit, a: 0, b: 1, inc: 9})
	canceller.target = &target
	e.Run()
	if cells[0] != 1 || cells[1] != 0 {
		t.Fatalf("cancelled batch-mate ran: cells %v", cells)
	}
	if e.Executed != 1 {
		t.Fatalf("Executed %d, want 1", e.Executed)
	}
}

// TestParallelAfterEventFallsBack pins the gate: an engine with an
// AfterEvent hook must not batch even when workers are set.
func TestParallelAfterEventFallsBack(t *testing.T) {
	e := New(1)
	e.SetWorkers(8)
	count := 0
	e.AfterEvent = func(*Engine) { count++ }
	cells := make([]int, 2)
	var audit []string
	for i := 0; i < 5; i++ {
		e.Schedule(float64(i), &cellEvent{cells: &cells, audit: &audit, a: 0, b: 1, inc: 1})
	}
	e.Run()
	if count != 5 {
		t.Fatalf("AfterEvent fired %d times, want 5", count)
	}
}

// followUpAtCommit is a cellEvent whose commit phase schedules a plain
// follow-up event — the contract-legal way a shard event feeds work
// back into the queue.
type followUpAtCommit struct {
	cellEvent
	at  float64
	log *[]string
}

func (ev *followUpAtCommit) Execute(e *Engine) {
	ev.ExecuteShard(e)
	ev.CommitShard(e)
}

func (ev *followUpAtCommit) CommitShard(e *Engine) {
	e.ScheduleFunc(ev.at, func(e *Engine) {
		*ev.log = append(*ev.log, fmt.Sprintf("follow-up@%v", e.Now()))
	})
}

// runCommitSchedule schedules two shard events at t=1, each committing
// a follow-up at t=1.5, and a barrier at t=2, then runs until deadline
// (Run when deadline is negative). It returns the execution log.
func runCommitSchedule(workers int, deadline float64) []string {
	cells := make([]int, 4)
	var audit, log []string
	e := New(1)
	e.SetWorkers(workers)
	for i := 0; i < 2; i++ {
		e.Schedule(1, &followUpAtCommit{
			cellEvent: cellEvent{cells: &cells, audit: &audit, a: 2 * i, b: 2*i + 1, inc: 1},
			at:        1.5, log: &log,
		})
	}
	e.ScheduleFunc(2, func(e *Engine) {
		log = append(log, fmt.Sprintf("barrier@%v", e.Now()))
	})
	if deadline < 0 {
		e.Run()
	} else {
		e.RunUntil(deadline)
		log = append(log, fmt.Sprintf("stop@%v pending %d", e.Now(), e.Len()))
	}
	return log
}

// TestParallelCommitScheduleMatchesSerial pins the rule that the loop
// re-reads the queue after every flush: events a CommitShard schedules
// ahead of the barrier (or the RunUntil deadline) that ended the batch
// must run before it, exactly as in the unbatched loop. A loop that
// pops the barrier it peeked before flushing runs the barrier twice,
// drops a follow-up and moves the clock backwards; one that stops at
// the deadline it peeked leaves the follow-ups queued.
func TestParallelCommitScheduleMatchesSerial(t *testing.T) {
	for _, deadline := range []float64{-1, 1.7} {
		want := runCommitSchedule(1, deadline)
		if deadline < 0 && fmt.Sprint(want) != "[follow-up@1.5 follow-up@1.5 barrier@2]" {
			t.Fatalf("serial log %q", want)
		}
		for _, workers := range []int{2, 4} {
			if got := runCommitSchedule(workers, deadline); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("deadline %v workers %d: log %q, want %q", deadline, workers, got, want)
			}
		}
	}
}
