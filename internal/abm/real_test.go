package abm

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/iosim"
	"repro/internal/rt"
)

// TestRealRegisterWhileChoosing registers cooperative scans on behalf of
// live queries from many goroutines while the scheduler goroutine is
// choosing among the scans already registered, and cancels half of the
// queries mid-scan. Run under -race it checks that a scan's owning query
// is published to the scheduler together with the scan itself.
func TestRealRegisterWhileChoosing(t *testing.T) {
	_, snap := fixture(t, 81920) // 20 chunks of 4096
	r := rt.NewReal()
	disk := iosim.New(r, iosim.Config{Bandwidth: 1e9, SeekLatency: 10 * time.Microsecond})
	a := New(r, disk, Config{ChunkTuples: 4096, Capacity: snap.TotalBytes(nil) / 2})
	const workers, rounds = 8, 6
	wg := r.NewWaitGroup()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		r.Go(fmt.Sprintf("scan-%d", w), func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				q := rt.NewQueryCtx(r)
				lo := int64((w+i)%10) * 4096
				cs := a.RegisterCScan(q, snap, []int{0, 1}, []SIDRange{{lo, lo + 8*4096}}, false)
				cancel := (w+i)%2 == 0
				n := 0
				for ; ; n++ {
					if cancel && n == 2 {
						q.Cancel(rt.CauseClientCancel)
					}
					d, ok := cs.GetChunk()
					if !ok {
						break
					}
					d.Release()
				}
				cs.Unregister()
				if !cancel && n != 8 {
					t.Errorf("live scan %d/%d delivered %d of 8 chunks", w, i, n)
				}
			}
		})
	}
	r.Go("driver", func() {
		wg.Wait()
		a.Stop()
	})
	r.Run()
}
