package loadgen

import (
	"syscall"
	"time"
)

// sleep parks the thread in the kernel. The Go runtime parks an idle process
// in epoll with a millisecond-granular timeout, longer than a thin window
// lasts, so time.Sleep cannot pace an open loop; nanosleep holds a thread, no
// processor, and wakes within about a hundred microseconds, which waitUntil's
// final spin absorbs. An early wake-up (EINTR) is harmless: the caller loops.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}
