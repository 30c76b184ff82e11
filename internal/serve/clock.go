package serve

import "time"

// Clock abstracts the one time operation the batcher needs, so the
// batching window is injectable: production uses the wall clock, tests
// drive a fake clock deterministically, and the cmd/ tree (where
// flowlint bans direct wall-clock reads) passes timing concerns down
// here by construction.
type Clock interface {
	// AfterFunc calls f once d has elapsed, outside any lock the caller
	// holds, and returns a stop function that cancels the call, reporting
	// whether it did (false once f has been called or stopped), as
	// time.AfterFunc's Timer.Stop does.
	AfterFunc(d time.Duration, f func()) (stop func() bool)
}

// realClock is the production Clock.
type realClock struct{}

func (realClock) AfterFunc(d time.Duration, f func()) func() bool { return time.AfterFunc(d, f).Stop }

// RealClock returns the wall-clock Clock used when Config.Clock is nil.
func RealClock() Clock { return realClock{} }
