package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. The runtime's timers fire up to a millisecond
// late, which an open loop would add to every latency it measures; a
// nanosleep system call wakes within tens of microseconds and, unlike
// spinning, leaves the processor to the daemon meanwhile.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}
