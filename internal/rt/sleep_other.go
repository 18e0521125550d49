//go:build !linux

package rt

import "time"

// preciseSleep blocks for at least d > 0. Without timerfd it is
// time.Sleep, whose sub-millisecond precision is up to the platform's
// timers.
func preciseSleep(d Duration) { time.Sleep(d) }
