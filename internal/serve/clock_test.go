package serve

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced Clock: AfterFunc callbacks run only
// when Advance moves the clock past their deadline, so tests control
// exactly when batching windows expire (never, for flush-on-full tests).
type fakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*fakeWaiter
}

type fakeWaiter struct {
	at time.Time
	f  func()
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) AfterFunc(d time.Duration, f func()) func() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := &fakeWaiter{at: c.now.Add(d), f: f}
	c.waiters = append(c.waiters, w)
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		i := slices.Index(c.waiters, w)
		if i < 0 {
			return false
		}
		c.waiters = slices.Delete(c.waiters, i, i+1)
		return true
	}
}

// Advance moves the clock forward, then calls every callback whose
// deadline has passed. It calls them after releasing the clock's lock,
// as time.AfterFunc runs them on a goroutine of its own: the batcher
// arms and stops its timers while holding its own lock, which a
// callback takes.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var due []*fakeWaiter
	c.waiters = slices.DeleteFunc(c.waiters, func(w *fakeWaiter) bool {
		if w.at.After(c.now) {
			return false
		}
		due = append(due, w)
		return true
	})
	c.mu.Unlock()
	for _, w := range due {
		w.f()
	}
}

// Waiters reports how many timers are armed and not yet fired or
// stopped: one per open batch. Tests poll it to know a request served on
// another goroutine has joined its batch before advancing.
func (c *fakeClock) Waiters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

// waitUntil polls cond for up to 5s; fatal on timeout.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
