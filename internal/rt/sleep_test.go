package rt

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// sleepSpans are the durations the precision tests and benchmark use:
// the yield cases, a sub-microsecond span, the modeled CPU cost of one
// 1024-tuple vector (61 µs) and its neighbours, and a span above the
// netpoller's 1 ms rounding.
var sleepSpans = []time.Duration{-time.Millisecond, 0, time.Nanosecond, 20 * time.Microsecond,
	61 * time.Microsecond, 1500 * time.Microsecond}

// TestRealSleepNeverEarly runs Sleep and SleepUntil from many goroutines
// at once and checks that none returns before its deadline.
func TestRealSleepNeverEarly(t *testing.T) {
	r := NewReal()
	for _, d := range sleepSpans {
		var wg sync.WaitGroup
		for g := 0; g < 64; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					t0 := time.Now()
					r.Sleep(d)
					if got := time.Since(t0); got < d {
						t.Errorf("Sleep(%v) returned after %v", d, got)
					}
					until := r.Now() + Time(d)
					r.SleepUntil(until)
					if now := r.Now(); now < until {
						t.Errorf("SleepUntil(+%v) returned %v early", d, time.Duration(until-now))
					}
				}
			}()
		}
		wg.Wait()
	}
}

// BenchmarkRealSleep reports how far past the requested span the real
// runtime's Sleep wakes (overshoot_us, mean per sleep), next to
// time.Sleep's on the same otherwise idle process.
func BenchmarkRealSleep(b *testing.B) {
	r := NewReal()
	impls := []struct {
		name  string
		sleep func(time.Duration)
	}{{"rt", r.Sleep}, {"time", time.Sleep}}
	for _, impl := range impls {
		for _, d := range []time.Duration{20 * time.Microsecond, 61 * time.Microsecond,
			300 * time.Microsecond, 1500 * time.Microsecond} {
			b.Run(fmt.Sprintf("%s/%dus", impl.name, d.Microseconds()), func(b *testing.B) {
				var over time.Duration
				for i := 0; i < b.N; i++ {
					t0 := time.Now()
					impl.sleep(d)
					over += time.Since(t0) - d
				}
				b.ReportMetric(float64(over)/float64(b.N)/1e3, "overshoot_us")
			})
		}
	}
}
