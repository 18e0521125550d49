package abm

import (
	"testing"
	"time"

	"repro/internal/iosim"
	"repro/internal/rt"
	"repro/internal/sim"
)

// TestCancelOneOfTwoConcurrentScans is the lifecycle acceptance check at
// the ABM layer: with two concurrent scans over disjoint halves of a
// table and a pool too small for both working sets, cancelling one scan
// mid-flight must (a) make its next GetChunk return ok=false, (b) stop
// the scheduler from loading the dead scan's remaining chunks, and (c)
// let the survivor finish inside the small pool — i.e. the dead scan's
// cached chunks become evictable once it unregisters.
func TestCancelOneOfTwoConcurrentScans(t *testing.T) {
	_, snap := fixture(t, 81920) // 20 chunks of 4096
	eng := sim.NewEngine()
	total := snap.TotalBytes(nil)
	a := newABM(eng, total*35/100) // ~7 chunks: forces eviction
	qc := rt.NewQueryCtx(rt.Sim(eng))

	wg := eng.NewWaitGroup()
	half := snap.NumTuples() / 2
	scan := func(lo, hi int64, q *rt.QueryCtx, got *[]int) func() {
		return func() {
			defer wg.Done()
			cs := a.RegisterCScan(q, snap, []int{0, 1}, []SIDRange{{lo, hi}}, false)
			for {
				d, ok := cs.GetChunk()
				if !ok {
					break
				}
				*got = append(*got, d.Chunk)
				eng.Sleep(2 * time.Millisecond) // simulate processing
				d.Release()
			}
			cs.Unregister()
		}
	}
	var victim, survivor []int
	wg.Add(2)
	eng.Go("victim", scan(0, half, qc, &victim))
	eng.Go("survivor", scan(half, snap.NumTuples(), nil, &survivor))
	eng.Go("canceller", func() {
		eng.Sleep(8 * time.Millisecond)
		qc.Cancel(rt.CauseClientCancel)
	})
	eng.Go("driver", func() {
		wg.Wait()
		a.Stop()
	})
	eng.Run()

	if len(survivor) != 10 {
		t.Fatalf("survivor delivered %d chunks, want all 10: %v", len(survivor), survivor)
	}
	if len(victim) >= 10 {
		t.Fatalf("victim delivered %d chunks despite cancellation", len(victim))
	}
	// The scheduler must stop loading for the dead scan: the victim's
	// undelivered chunks never hit the disk, so total I/O stays strictly
	// below one full table read.
	if got := a.Stats().BytesLoaded; got >= total {
		t.Fatalf("loaded %d bytes, want < %d (dead scan's tail must not be loaded)", got, total)
	}
	if a.Stats().BytesEvicted == 0 {
		t.Fatal("no evictions under a pool smaller than the survivor's range")
	}
}

// TestCancelledScanWakesFromStarvation: a scan parked inside GetChunk
// (starved, waiting for a load) must wake and return ok=false when its
// query is cancelled, rather than waiting for the load it no longer
// wants.
func TestCancelledScanWakesFromStarvation(t *testing.T) {
	_, snap := fixture(t, 20000)
	eng := sim.NewEngine()
	// A disk so slow the first load is still in flight when the cancel
	// lands: the scan is parked on its avail event at that point.
	slow := iosim.New(rt.Sim(eng), iosim.Config{Bandwidth: 1e5, SeekLatency: 10 * time.Millisecond})
	a := New(rt.Sim(eng), slow, Config{ChunkTuples: 4096, Capacity: 1 << 30})
	qc := rt.NewQueryCtx(rt.Sim(eng))
	delivered := 0
	eng.Go("scan", func() {
		cs := a.RegisterCScan(qc, snap, []int{0, 1}, []SIDRange{{0, snap.NumTuples()}}, false)
		for {
			d, ok := cs.GetChunk()
			if !ok {
				break
			}
			delivered++
			d.Release()
		}
		cs.Unregister()
		a.Stop()
	})
	eng.Go("canceller", func() {
		eng.Sleep(time.Microsecond)
		qc.Cancel(rt.CauseClientCancel)
	})
	eng.Run()
	if delivered != 0 {
		t.Fatalf("delivered %d chunks after near-immediate cancel", delivered)
	}
	if qc.Cause() != rt.CauseClientCancel {
		t.Fatalf("cause = %v", qc.Cause())
	}
}
