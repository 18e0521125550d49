package rt

import (
	"os"
	"sync"
	"testing"
	"time"
)

func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open fds: %v", err)
	}
	return len(ents)
}

// TestTimerFDsBounded sleeps from thousands of goroutines at once and
// checks that the timer pool never holds more than its limit of fds.
func TestTimerFDsBounded(t *testing.T) {
	before := openFDs(t)
	r := NewReal()
	var wg sync.WaitGroup
	for g := 0; g < 4000; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				r.Sleep(50 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if after := openFDs(t); after > before+maxTimerFDs {
		t.Fatalf("open fds grew from %d to %d across concurrent sleeps (limit %d timer fds)",
			before, after, maxTimerFDs)
	}
	timers.mu.Lock()
	open, idle := timers.open, len(timers.idle)
	timers.mu.Unlock()
	if open > maxTimerFDs || idle != open {
		t.Fatalf("timer pool holds %d fds (%d idle) after all sleeps returned, limit %d", open, idle, maxTimerFDs)
	}
}

// TestTimerPoolFallback drives the two time.Sleep paths: a pool that may
// open no fd, and a pooled fd that fails mid-sleep, which must be
// dropped. Neither may return early.
func TestTimerPoolFallback(t *testing.T) {
	const d = 200 * time.Microsecond
	p := timerPool{limit: 0}
	t0 := time.Now()
	p.sleep(d)
	if got := time.Since(t0); got < d {
		t.Fatalf("fallback sleep returned after %v < %v", got, d)
	}
	if p.open != 0 || len(p.idle) != 0 {
		t.Fatalf("pool with limit 0 opened %d fds", p.open)
	}

	p = timerPool{limit: 1}
	tfd := p.get()
	if tfd == nil {
		t.Skip("timerfd_create unavailable")
	}
	tfd.f.Close() // settime now fails with EBADF
	p.put(tfd)
	t0 = time.Now()
	p.sleep(d)
	if got := time.Since(t0); got < d {
		t.Fatalf("sleep on a failed fd returned after %v < %v", got, d)
	}
	if p.open != 0 || len(p.idle) != 0 {
		t.Fatalf("failed fd kept in the pool: open %d, idle %d", p.open, len(p.idle))
	}
}
