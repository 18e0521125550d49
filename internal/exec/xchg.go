package exec

import (
	"sync"

	"repro/internal/rt"
	"repro/internal/storage"
)

// XChg is the Exchange operator of §2.2 (Volcano-style): it runs N copies
// of a subplan as separate processes (one per "thread") and merges their
// output streams. Plans are parallelized by statically partitioning the
// scanned RID range per Equation 1 and building one subplan per
// partition.
//
// The operator has two fan-out mechanisms behind one interface:
//
//   - Sim runtime (Ctx.Workers == nil): one cooperative process per
//     subplan, a shared slice queue, and engine events for back
//     pressure — byte-for-byte the historical deterministic behavior.
//   - Real runtime (Ctx.Workers != nil): producers are submitted to the
//     shared worker pool (bounded by the core count, so intra-query
//     parallelism cannot oversubscribe the machine), and the merge queue
//     is a bounded channel whose send/receive provides the back pressure.
type XChg struct {
	Ctx *Ctx
	// Parts builds the i-th parallel subplan.
	Parts []func() Op
	// QueueCap bounds the per-producer output queue in batches (back
	// pressure); default 4.
	QueueCap int

	schema  []storage.ColumnType
	queue   []*Batch
	space   rt.Event
	ready   rt.Event
	running int
	out     *Batch
	opened  bool
	closed  bool

	// stopCancel deregisters the query-cancel hook installed at Open. The
	// hook is the bridge between the query lifecycle and the operator's
	// own wake-up machinery: on the sim runtime it fires both queue
	// events, on the real runtime it closes the cancel channel — the same
	// channel Close uses — so a client cancel and an early consumer close
	// travel the identical shutdown path.
	stopCancel func()

	// Real-runtime state.
	ch        chan *Batch
	cancel    chan struct{}
	closeOnce sync.Once
}

// Schema implements Operator.
func (x *XChg) Schema() []storage.ColumnType {
	if x.schema == nil {
		op := x.Parts[0]()
		x.schema = op.Schema()
	}
	return x.schema
}

// Open implements Operator: spawns one producer process per subplan.
func (x *XChg) Open() {
	if x.opened {
		panic("exec: XChg reopened")
	}
	x.opened = true
	if x.QueueCap <= 0 {
		x.QueueCap = 4
	}
	x.out = NewBatch(x.Schema())
	if x.Ctx.Workers != nil {
		x.openReal()
		return
	}
	x.space = x.Ctx.RT.NewEvent()
	x.ready = x.Ctx.RT.NewEvent()
	// One persistent hook covers every park in this operator: a cancel
	// fires both events, waking parked producers (space) and the consumer
	// (ready), which re-check the lifecycle before parking again. Sim
	// events are not sticky, but the sim runs one process at a time, so a
	// check-then-park pair cannot be split by a cancel.
	x.stopCancel = x.Ctx.Query.OnCancel(func() {
		x.space.Fire()
		x.ready.Fire()
	})
	x.running = len(x.Parts)
	cap := x.QueueCap * len(x.Parts)
	for _, mk := range x.Parts {
		mk := mk
		x.Ctx.RT.Go("xchg-worker", func() {
			op := mk()
			op.Open()
			defer op.Close()
			for !x.Ctx.Query.Cancelled() {
				b := op.Next()
				if b == nil {
					break
				}
				cp := copyBatch(x.schema, b)
				parked := false
				for len(x.queue) >= cap {
					if x.Ctx.Query.Cancelled() {
						parked = true
						break
					}
					x.space.Wait()
				}
				if parked {
					break
				}
				x.queue = append(x.queue, cp)
				x.ready.Fire()
			}
			x.running--
			x.ready.Fire()
		})
	}
}

// copyBatch snapshots b: the producer's batch is reused on its next call,
// while the consumer drains asynchronously.
func copyBatch(schema []storage.ColumnType, b *Batch) *Batch {
	cp := NewBatch(schema)
	for c, v := range cp.Vecs {
		v.appendVec(b.Vecs[c], b.N)
	}
	cp.N = b.N
	return cp
}

// openReal starts the real-runtime fan-out: producers on the worker
// pool, a bounded channel as the merge queue, and a closer goroutine
// that seals the channel when the last producer finishes.
func (x *XChg) openReal() {
	x.ch = make(chan *Batch, x.QueueCap*len(x.Parts))
	x.cancel = make(chan struct{})
	// A query cancel closes the same cancel channel an early consumer
	// close does: producers parked on a full channel unblock, new sends
	// stop, the closer seals the channel, and a consumer parked on
	// receive drains out. closeOnce makes the two paths race-safe.
	x.stopCancel = x.Ctx.Query.OnCancel(func() {
		x.closeOnce.Do(func() { close(x.cancel) })
	})
	var wg sync.WaitGroup
	wg.Add(len(x.Parts))
	for _, mk := range x.Parts {
		mk := mk
		x.Ctx.Workers.Submit("xchg-worker", func() {
			defer wg.Done()
			op := mk()
			op.Open()
			defer op.Close()
			for !x.Ctx.Query.Cancelled() {
				b := op.Next()
				if b == nil {
					return
				}
				select {
				case x.ch <- copyBatch(x.schema, b):
				case <-x.cancel:
					return // consumer closed early or query cancelled
				}
			}
		})
	}
	x.Ctx.RT.Go("xchg-closer", func() {
		wg.Wait()
		close(x.ch)
	})
}

// Next implements Operator: pops merged batches in arrival order. A
// cancelled query yields end-of-stream; the producers observe the same
// cancel and wind down on their own.
func (x *XChg) Next() *Batch {
	if x.Ctx.Query.Cancelled() {
		return nil
	}
	if x.ch != nil {
		return <-x.ch // nil when closed and drained
	}
	for {
		if len(x.queue) > 0 {
			b := x.queue[0]
			x.queue = x.queue[1:]
			x.space.Fire()
			return b
		}
		if x.running == 0 {
			return nil
		}
		x.ready.Wait()
		if x.Ctx.Query.Cancelled() {
			return nil
		}
	}
}

// Close implements Operator: drains any remaining producer output so the
// worker processes terminate. Idempotent — the cancel path and the plan
// driver may both close the operator.
func (x *XChg) Close() {
	if x.closed {
		return
	}
	x.closed = true
	if x.stopCancel != nil {
		x.stopCancel()
	}
	if x.ch != nil {
		x.closeOnce.Do(func() { close(x.cancel) })
		for range x.ch {
		}
		return
	}
	for x.running > 0 || len(x.queue) > 0 {
		x.queue = nil
		x.space.Fire()
		if x.running > 0 {
			x.ready.Wait()
		}
	}
}
