package abm

import (
	"testing"
	"time"

	"repro/internal/iosim"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/storage"
)

// narrowFixture builds a table whose narrow column packs many chunks per
// page (width 1 => 16384 tuples/page vs 4096-tuple chunks).
func narrowFixture(t testing.TB, nTuples int) *storage.Snapshot {
	t.Helper()
	cat := storage.NewCatalog()
	tb, err := cat.CreateTable("t", storage.Schema{
		{Name: "narrow", Type: storage.Int64, Width: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := storage.NewColumnData()
	d.I64[0] = make([]int64, nTuples)
	s, err := tb.Master().Append(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEvictionTransfersSpanningPages: evicting one chunk must not drop a
// narrow-column page that higher-interest neighbouring chunks still need.
func TestEvictionTransfersSpanningPages(t *testing.T) {
	snap := narrowFixture(t, 65536) // 4 pages, 16 chunks of 4096
	eng := sim.NewEngine()
	disk := iosim.New(rt.Sim(eng), iosim.Config{Bandwidth: 1e9, SeekLatency: 10 * time.Microsecond})
	// Capacity of two pages: loading a third page forces eviction.
	a := New(rt.Sim(eng), disk, Config{ChunkTuples: 4096, Capacity: 2 * storage.PageSize})
	wg := eng.NewWaitGroup()
	wg.Add(2)
	// Scan A consumes the whole table slowly; scan B only the first page
	// region, keeping interest on chunks 1-3 high while chunk 0's
	// interest drains first.
	run := func(lo, hi int64, pace sim.Duration) {
		defer wg.Done()
		cs := a.RegisterCScan(nil, snap, []int{0}, []SIDRange{{lo, hi}}, false)
		for {
			d, ok := cs.GetChunk()
			if !ok {
				break
			}
			eng.Sleep(pace)
			d.Release()
		}
		cs.Unregister()
	}
	eng.Go("a", func() { run(0, 65536, time.Millisecond) })
	eng.Go("b", func() { run(0, 16384, 3*time.Millisecond) })
	eng.Go("driver", func() {
		wg.Wait()
		a.Stop()
	})
	eng.Run()
	// Every page read at most twice even under eviction pressure: the
	// heir rule prevents a chunk eviction from discarding the shared
	// 16-chunk page while neighbours still want it. Without the rule this
	// workload re-reads the first page many times.
	total := snap.TotalBytes(nil)
	if got := a.Stats().BytesLoaded; got > 2*total {
		t.Fatalf("loaded %d bytes; > 2x table (%d) indicates spanning-page thrash", got, total)
	}
}

// TestHeirStrictlyIncreasesInterest guards the termination argument.
func TestHeirStrictlyIncreasesInterest(t *testing.T) {
	snap := narrowFixture(t, 32768)
	eng := sim.NewEngine()
	disk := iosim.New(rt.Sim(eng), iosim.Config{Bandwidth: 1e9, SeekLatency: 10 * time.Microsecond})
	a := New(rt.Sim(eng), disk, Config{ChunkTuples: 4096, Capacity: 1 << 30})
	eng.Go("setup", func() {
		cs := a.RegisterCScan(nil, snap, []int{0}, []SIDRange{{0, 32768}}, false)
		// Load everything by consuming it.
		for {
			d, ok := cs.GetChunk()
			if !ok {
				break
			}
			d.Release()
		}
		// All interest drained: no heir exists for any page.
		tm := a.tables[tableKey{table: snap.Table(), version: snap.Version()}]
		for _, c := range tm.chunks {
			for _, rp := range c.owned {
				if h := a.interestedHeir(rp.page, c); h != nil {
					t.Errorf("heir %d found with zero interest", h.idx)
				}
			}
		}
		cs.Unregister()
		a.Stop()
	})
	eng.Run()
}
