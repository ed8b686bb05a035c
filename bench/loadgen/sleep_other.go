//go:build !linux

package loadgen

import "time"

// sleep falls back to the runtime's timer where nanosleep is not available:
// it builds everywhere, but its millisecond granularity shows as generator
// lateness, which every paced phase reports and limits.
func sleep(d time.Duration) { time.Sleep(d) }
