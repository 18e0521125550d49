package abm

import (
	"testing"
	"time"

	"repro/internal/iosim"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/storage"
)

// TestLoadRelevancePrefersSharedInterest: with two scans interested in an
// overlapping region, ABM loads the doubly-wanted chunks before the
// singly-wanted ones.
func TestLoadRelevancePrefersSharedInterest(t *testing.T) {
	_, snap := fixture(t, 40960) // 10 chunks of 4096
	eng := sim.NewEngine()
	disk := iosim.New(rt.Sim(eng), iosim.Config{Bandwidth: 100e6, SeekLatency: 50 * time.Microsecond})
	a := New(rt.Sim(eng), disk, Config{ChunkTuples: 4096, Capacity: 1 << 30})

	// Scan A wants chunks 0-9; scan B wants chunks 5-9. Register B first
	// so the overlap exists before A's first loads are chosen. The
	// assertion is about LOAD order (LoadRelevance): delivery order is
	// shaped by UseRelevance and legitimately differs.
	var loadOrder []int
	a.OnLoad = func(pg *storage.Page) {
		c := int(pg.FirstSID / 4096)
		if len(loadOrder) == 0 || loadOrder[len(loadOrder)-1] != c {
			loadOrder = append(loadOrder, c)
		}
	}
	wg := eng.NewWaitGroup()
	wg.Add(2)
	eng.Go("b", func() {
		defer wg.Done()
		cs := a.RegisterCScan(nil, snap, []int{0}, []SIDRange{{5 * 4096, 10 * 4096}}, false)
		for {
			d, ok := cs.GetChunk()
			if !ok {
				break
			}
			eng.Sleep(5 * time.Millisecond)
			d.Release()
		}
		cs.Unregister()
	})
	eng.Go("a", func() {
		defer wg.Done()
		eng.Yield() // let B register first
		cs := a.RegisterCScan(nil, snap, []int{0}, []SIDRange{{0, 10 * 4096}}, false)
		for {
			d, ok := cs.GetChunk()
			if !ok {
				break
			}
			eng.Sleep(5 * time.Millisecond)
			d.Release()
		}
		cs.Unregister()
	})
	eng.Go("driver", func() {
		wg.Wait()
		a.Stop()
	})
	eng.Run()
	if len(loadOrder) < 10 {
		t.Fatalf("loads = %v", loadOrder)
	}
	// The doubly-wanted chunks (5-9) must dominate the first loads.
	shared := 0
	for _, c := range loadOrder[:5] {
		if c >= 5 {
			shared++
		}
	}
	if shared < 3 {
		t.Fatalf("first loads %v contain only %d shared chunks", loadOrder[:5], shared)
	}
}

// TestUseRelevanceDrainsUncontestedChunksFirst: a scan holding several
// cached chunks consumes the ones fewest other scans want first, making
// them evictable sooner.
func TestUseRelevanceDrainsUncontestedChunksFirst(t *testing.T) {
	_, snap := fixture(t, 16384) // 4 chunks
	eng := sim.NewEngine()
	a := newABM(eng, 1<<30)
	var order []int
	wg := eng.NewWaitGroup()
	wg.Add(2)
	eng.Go("a", func() {
		defer wg.Done()
		cs := a.RegisterCScan(nil, snap, []int{0}, []SIDRange{{0, snap.NumTuples()}}, false)
		// Wait until everything is cached, then observe delivery order.
		eng.Sleep(50 * time.Millisecond)
		for {
			d, ok := cs.GetChunk()
			if !ok {
				break
			}
			order = append(order, d.Chunk)
			d.Release()
		}
		cs.Unregister()
	})
	eng.Go("b", func() {
		defer wg.Done()
		// B is interested in chunks 2,3 only and consumes very slowly.
		cs := a.RegisterCScan(nil, snap, []int{0}, []SIDRange{{2 * 4096, 4 * 4096}}, false)
		eng.Sleep(200 * time.Millisecond)
		for {
			d, ok := cs.GetChunk()
			if !ok {
				break
			}
			d.Release()
		}
		cs.Unregister()
	})
	eng.Go("driver", func() {
		wg.Wait()
		a.Stop()
	})
	eng.Run()
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	// A's first two deliveries should be the chunks B does NOT want
	// (0 and 1): UseRelevance picks minimum other-interest first.
	for _, c := range order[:2] {
		if c >= 2 {
			t.Fatalf("delivery order %v consumed contested chunk %d early", order, c)
		}
	}
}

// TestBlockedLoadsAccounting: with a pool smaller than the combined pin
// demand, the scheduler records blocked load attempts but the workload
// still completes.
func TestBlockedLoadsAccounting(t *testing.T) {
	_, snap := fixture(t, 81920)
	eng := sim.NewEngine()
	total := snap.TotalBytes(nil)
	a := newABM(eng, total/8)
	wg := eng.NewWaitGroup()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		eng.Go("s", func() {
			defer wg.Done()
			cs := a.RegisterCScan(nil, snap, []int{0, 1}, []SIDRange{{0, snap.NumTuples()}}, false)
			for {
				d, ok := cs.GetChunk()
				if !ok {
					break
				}
				eng.Sleep(time.Millisecond)
				d.Release()
			}
			cs.Unregister()
		})
	}
	eng.Go("driver", func() {
		wg.Wait()
		a.Stop()
	})
	eng.Run()
	if a.Used() > total/8 {
		t.Fatalf("capacity violated: %d > %d", a.Used(), total/8)
	}
}

// TestDeliveryPinProtocol guards the pin protocol: releasing a delivery
// whose pages are no longer pinned panics.
func TestDeliveryPinProtocol(t *testing.T) {
	_, snap := fixture(t, 8192)
	eng := sim.NewEngine()
	a := newABM(eng, 1<<30)
	panicked := false
	eng.Go("s", func() {
		defer a.Stop()
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		cs := a.RegisterCScan(nil, snap, []int{0}, []SIDRange{{0, 8192}}, false)
		d, ok := cs.GetChunk()
		if !ok {
			t.Error("no chunk")
			return
		}
		d.Release()
		// Second release must panic: pages are no longer pinned.
		d.pages = []*residentPage{{page: snap.Pages(0)[0]}}
		d.Release()
	})
	eng.Run()
	if !panicked {
		t.Fatal("expected panic on double release")
	}
}
