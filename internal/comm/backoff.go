package comm

import (
	"runtime"
	"syscall"
	"time"
)

// The one wait ladder, three rungs per unproductive poll streak.
// Rung 1: backoffGoscheds runtime.Gosched calls — cheap (~150ns),
// catches work already in flight from another local goroutine. Rung
// 2: backoffOSYields sched_yield calls — when the waiter is the only
// runnable goroutine, Gosched returns instantly and the waiter would
// busy-burn its whole OS quantum, starving the co-located peer
// process that is producing the very frame (or parking the very rank)
// it waits for; sched_yield (~340ns, not a futex) hands the core to
// that peer while keeping wake latency at one scheduling round. Rung
// 3: timer sleeps — Linux timer granularity makes any sub-millisecond
// request sleep ~1ms regardless, so the nap is an honest millisecond
// and is entered only after the yield phase has waited for over a
// millisecond; a truly idle waiter then costs ~0.1% of a core. The
// schedule was measured on the shm ring reader.
const (
	backoffGoscheds = 64
	backoffOSYields = 4096
	backoffNap      = time.Millisecond
)

// Backoff paces a polling wait: call Wait after every poll that found
// nothing and Reset after one that made progress. The zero value is
// ready. A Backoff owned by a ring reader also counts its parks (idle
// streaks that reached the sleeping rung) and wakes (progress after a
// park) into the transport's stats.
type Backoff struct {
	idle int
	st   *linkStats // nil: not counted
}

// Wait spends one unproductive poll on the ladder's current rung.
func (b *Backoff) Wait() {
	b.idle++
	switch {
	case b.idle <= backoffGoscheds:
		runtime.Gosched()
	case b.idle <= backoffGoscheds+backoffOSYields:
		osYield()
	default:
		if b.idle == backoffGoscheds+backoffOSYields+1 && b.st != nil {
			b.st.parks.Add(1)
		}
		time.Sleep(backoffNap)
	}
}

// Reset ends an idle streak: the next Wait starts at the first rung.
func (b *Backoff) Reset() {
	if b.idle > backoffGoscheds+backoffOSYields && b.st != nil {
		b.st.wakes.Add(1)
	}
	b.idle = 0
}

// osYield surrenders the rest of this thread's kernel timeslice via
// sched_yield, then rotates the local run queue too. runtime.Gosched
// alone only rotates goroutines within this process — when a spinner
// is the only runnable goroutine it returns instantly and the spin
// burns the whole OS quantum a co-located peer process needs; the OS
// yield alone would conversely starve same-process goroutines (the
// in-process harnesses run both workers in one runtime). Both
// together cost ~500ns and give everyone else a turn.
func osYield() {
	syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
	runtime.Gosched()
}
