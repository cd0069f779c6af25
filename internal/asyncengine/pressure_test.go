package asyncengine

import (
	"context"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes — the
// reconciler runs on its own goroutine, so tests converge on its effect
// rather than sleeping a fixed amount.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func pressureEngine(t *testing.T, maxQueue int) *Engine {
	t.Helper()
	e, err := New(Config{Pools: []PoolSpec{{Name: PoolIngest, XStreams: 2, MaxQueue: maxQueue}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Shutdown)
	return e
}

// SetPressure shrinks the ingest pool's effective slot bound in proportion
// to the level, and releasing the pressure restores every slot.
func TestSetPressureReservesAndReleasesSlots(t *testing.T) {
	e := pressureEngine(t, 8)

	if got := e.PressureReserved(PoolIngest); got != 0 {
		t.Fatalf("reserved before any pressure = %d", got)
	}

	// Level 128/256 of 8 slots -> 4 reserved.
	e.SetPressure(PoolIngest, 128)
	waitFor(t, "half pressure to reserve 4 slots", func() bool {
		return e.PressureReserved(PoolIngest) == 4
	})

	// Level 255 asks for 7 (capacity-1): one slot always survives so the
	// client can still make progress (and observe the pressure dropping).
	e.SetPressure(PoolIngest, 255)
	waitFor(t, "full pressure to reserve cap-1 slots", func() bool {
		return e.PressureReserved(PoolIngest) == 7
	})

	// With 7 of 8 slots held, exactly one task runs at a time.
	gate := make(chan struct{})
	running := make(chan int, 8)
	ev1 := e.Submit(context.Background(), PoolIngest, func(context.Context) error {
		running <- 1
		<-gate
		return nil
	})
	<-running
	// A second submission must block on the slot semaphore: give it a
	// moment and verify it has not been admitted.
	admitted := make(chan *Eventual[Void], 1)
	go func() {
		admitted <- e.Submit(context.Background(), PoolIngest, func(context.Context) error {
			running <- 2
			<-gate
			return nil
		})
	}()
	select {
	case <-running:
		t.Fatal("second task ran with capacity-1 slots reserved and one in flight")
	case <-time.After(50 * time.Millisecond):
	}

	// Releasing the pressure hands the reserved slots back; the blocked
	// submission proceeds.
	e.SetPressure(PoolIngest, 0)
	waitFor(t, "pressure release", func() bool { return e.PressureReserved(PoolIngest) == 0 })
	<-running
	close(gate)
	ev2 := <-admitted
	if _, err := ev1.Wait(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ev2.Wait(nil); err != nil {
		t.Fatal(err)
	}

	// Reservations bypass the op counters entirely: every submitted op
	// completed, and nothing the throttle did was accounted as work.
	m := e.Metrics()[PoolIngest]
	if m.Submitted != 2 || m.Completed != 2 || m.Failed != 0 || m.Rejected != 0 {
		t.Fatalf("counters disturbed by throttle: %+v", m)
	}
	if m.Depth != 0 {
		t.Fatalf("depth nonzero after drain: %+v", m)
	}
}

// Repeated level changes converge to the latest target, including while
// the pool is busy (reservation acquisition competes with submitters).
func TestSetPressureConvergesUnderChurn(t *testing.T) {
	e := pressureEngine(t, 6)
	for _, lvl := range []uint8{255, 10, 200, 64, 0, 128} {
		e.SetPressure(PoolIngest, lvl)
	}
	// Final level 128 of 6 slots -> 3 reserved.
	waitFor(t, "churned levels to converge", func() bool {
		return e.PressureReserved(PoolIngest) == 3
	})
	// The remaining capacity is fully usable.
	done := make(chan struct{})
	for i := 0; i < 3; i++ {
		e.Submit(context.Background(), PoolIngest, func(context.Context) error {
			done <- struct{}{}
			return nil
		})
	}
	for i := 0; i < 3; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("task starved with reservations below capacity")
		}
	}
}

// Pressure on an unknown pool (a nil pool lookup) is ignored, and shutdown
// with a live reconciler does not hang.
func TestSetPressureNilSafety(t *testing.T) {
	e := pressureEngine(t, 4)
	e.SetPressure("no-such-pool", 255)
	if e.PressureReserved("no-such-pool") != 0 {
		t.Fatal("unknown pool reported reservations")
	}
	// Shutdown with a live reconciler must not hang.
	e.SetPressure(PoolIngest, 200)
	waitFor(t, "reservation before shutdown", func() bool {
		return e.PressureReserved(PoolIngest) > 0
	})
}
