package workload

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/minmax"
	"repro/internal/pdt"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// UpdateKind names the delta operation an update query applies.
type UpdateKind int

const (
	// UpdateInsert adds synthesized lineitem rows.
	UpdateInsert UpdateKind = iota
	// UpdateDelete removes rows.
	UpdateDelete
	// UpdateModify rewrites l_shipdate in place — the operation that
	// exercises delta-widened zone-map pruning hardest, since it can
	// move tuples into a predicate window their stable block excludes.
	UpdateModify
)

func (k UpdateKind) String() string {
	switch k {
	case UpdateInsert:
		return "insert"
	case UpdateDelete:
		return "delete"
	case UpdateModify:
		return "modify"
	}
	return fmt.Sprintf("UpdateKind(%d)", int(k))
}

// ParseUpdateKind resolves a wire-level kind name.
func ParseUpdateKind(s string) (UpdateKind, error) {
	switch strings.ToLower(s) {
	case "insert":
		return UpdateInsert, nil
	case "delete":
		return UpdateDelete, nil
	case "modify":
		return UpdateModify, nil
	}
	return 0, fmt.Errorf("unknown update kind %q (want insert, delete or modify)", s)
}

// UpdateOp is one drawn update query: the kind, a position fraction
// (resolved against the table's tuple count at apply time, since
// concurrent writes move RIDs), a synthesized l_shipdate value inside
// the loaded date domain, and the number of delta operations the query
// applies in one transaction (its delta size, which also prices it).
type UpdateOp struct {
	Kind  UpdateKind
	Frac  float64
	Date  int64
	Batch int
}

// maxUpdateBatch bounds the per-query delta size drawn by drawUpdate.
const maxUpdateBatch = 4

// ckptWindow is one completed checkpoint/merge interval on the run's
// clock — the window merge-overlap scan latency is measured against.
type ckptWindow struct {
	start, end sim.Time
}

// htapState is the serving engine's write path: the PDT store over
// lineitem, the drawn-update machinery, and the background
// checkpoint/merge process with its measurement windows.
type htapState struct {
	store   *pdt.Store
	schema  storage.Schema
	shipCol int
	// dateMin/dateMax bound synthesized shipdates to the loaded domain,
	// so updates land inside the predicate windows queries draw.
	dateMin, dateMax int64
	// baseTuples floors deletion: the table never shrinks below half its
	// loaded size, keeping drawn scan ranges meaningful.
	baseTuples int64
	ckptOps    int64
	// mergeCost models the checkpoint's materialization time: the stable
	// image rewritten at the fallback scan speed. During that window
	// reads keep serving from their pinned views — that coexistence is
	// exactly what MergeP95 measures.
	mergeCost sim.Duration
	// mixIns/mixDel are cumulative kind thresholds from UpdateMix.
	mixIns, mixDel float64

	mu          sync.Mutex
	ckptRunning bool
	checkpoints int
	windows     []ckptWindow
}

// writeFrac resolves the effective write fraction for one tenant: an
// explicit TenantWriteFrac entry (index = tenant id, zero allowed, so a
// sweep can pit a write-heavy tenant against read-only ones) overrides
// the global WriteFrac.
func (cfg *ServeConfig) writeFrac(tenant int) float64 {
	if tenant < len(cfg.TenantWriteFrac) {
		f := cfg.TenantWriteFrac[tenant]
		if f < 0 {
			return 0
		}
		return f
	}
	return cfg.WriteFrac
}

// newHTAP builds the serving engine's write path. Every engine has one,
// so POST /v1/update works whether or not the server was started with a
// write axis; until the first update commits, pinned views carry no
// deltas and scans read exactly the stable snapshot.
func (e *env) newHTAP(db *tpch.DB, cfg ServeConfig) *htapState {
	snap := db.Snapshot("lineitem")
	schema := snap.Table().Schema
	h := &htapState{
		store:      pdt.NewStoreAt(snap),
		schema:     schema,
		shipCol:    db.Col("lineitem", "l_shipdate"),
		baseTuples: snap.NumTuples(),
		ckptOps:    int64(cfg.CheckpointOps),
	}
	if e.predIx != nil {
		h.dateMin, h.dateMax = e.dateMin, e.dateMax
	} else {
		// No zone maps configured: read the date bounds directly (one
		// throwaway block summary, storage-level reads, no modeled I/O).
		h.dateMin, h.dateMax, _ = minmax.Build(snap, h.shipCol, snap.NumTuples()).ValueBounds()
	}
	cols := make([]int, len(schema))
	for i := range cols {
		cols[i] = i
	}
	h.mergeCost = sim.Duration(float64(snap.TotalBytes(cols)) / fallbackScanSpeed * float64(time.Second))
	ins, del, mod := cfg.UpdateMix[0], cfg.UpdateMix[1], cfg.UpdateMix[2]
	if ins <= 0 && del <= 0 && mod <= 0 {
		// Default mix: half modifies (the delta-widening stressor),
		// inserts and deletes balancing each other.
		ins, del, mod = 1, 1, 2
	}
	sum := ins + del + mod
	h.mixIns = ins / sum
	h.mixDel = (ins + del) / sum
	h.store.SetCheckpointHook(func(old, next *storage.Snapshot) {
		e.retireSnapshot(old, next)
	})
	return h
}

// retireSnapshot is the checkpoint hook: the old stable snapshot's
// derived state is invalidated layer by layer — zone maps drop and
// rebuild over the replacement, the buffer pool evicts the retired
// pages (pinned frames, i.e. scans still draining a pinned view,
// survive until they unpin), and the ABM drops its per-version chunk
// interest for versions no scan holds. Runs inside the store's critical
// section, so a view pinned before or after sees a coherent pair.
func (e *env) retireSnapshot(old, next *storage.Snapshot) {
	if e.ctx.Zones != nil {
		for _, col := range e.ctx.Zones.Drop(old) {
			e.ctx.Zones.Build(next, col, e.cfg.ChunkTuples)
		}
	}
	if e.pool != nil {
		for col := range old.Table().Schema {
			e.pool.InvalidatePages(old.Pages(col))
		}
	}
	if e.abm != nil {
		e.abm.InvalidateVersions(next.Table(), next.Version())
	}
}

// drawUpdate samples one update query's shape from the stream rng.
// Draw discipline is golden-critical: exactly four draws (kind, position,
// date, batch) per write query, consumed only after every read-shape and
// lifecycle draw, and only on streams whose write fraction is positive —
// so read-only runs consume exactly the historical rng sequence.
func (h *htapState) drawUpdate(rng *rand.Rand) UpdateOp {
	c := rng.Float64()
	kind := UpdateModify
	switch {
	case c < h.mixIns:
		kind = UpdateInsert
	case c < h.mixDel:
		kind = UpdateDelete
	}
	return UpdateOp{
		Kind:  kind,
		Frac:  rng.Float64(),
		Date:  h.dateMin + rng.Int63n(h.dateMax-h.dateMin+1),
		Batch: 1 + rng.Intn(maxUpdateBatch),
	}
}

// newRow synthesizes one lineitem row: the shipdate carries the drawn
// date (so inserts interact with zone-map windows), everything else is
// a type-correct placeholder.
func (h *htapState) newRow(date int64) pdt.Row {
	row := make(pdt.Row, len(h.schema))
	for i, def := range h.schema {
		switch def.Type {
		case storage.Int64:
			if i == h.shipCol {
				row[i] = pdt.IntVal(date)
			} else {
				row[i] = pdt.IntVal(1)
			}
		case storage.Float64:
			row[i] = pdt.FloatVal(1)
		default:
			row[i] = pdt.StrVal("U")
		}
	}
	return row
}

// apply executes one update query against the store: a single
// transaction of Batch delta operations at positions derived from the
// drawn fraction. Update's critical-section transactions cannot
// conflict, so the error is always nil in practice; it is returned for
// the serving handler's benefit.
func (h *htapState) apply(op UpdateOp) (applied int, err error) {
	err = h.store.Update(func(tx *pdt.Tx) error {
		for i := 0; i < op.Batch; i++ {
			n := tx.NumTuples()
			if n <= 0 {
				return nil
			}
			rid := (int64(op.Frac*float64(n)) + int64(i)*7919) % n
			switch op.Kind {
			case UpdateInsert:
				tx.Insert(rid, h.newRow(op.Date))
			case UpdateDelete:
				if n <= h.baseTuples/2 {
					continue // deletion floor: keep drawn ranges meaningful
				}
				tx.Delete(rid)
			default:
				tx.Modify(rid, h.shipCol, pdt.IntVal(op.Date))
			}
			applied++
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return applied, nil
}

// maybeCheckpoint starts the background checkpoint/merge process when
// the committed-but-uncheckpointed delta count crosses the configured
// trigger. The merge runs as its own runtime goroutine: write deltas
// propagate to the read PDT, the materialization cost elapses (reads
// keep serving from pinned views the whole time), and the checkpoint
// swaps in the fresh stable snapshot — retiring the old one through the
// invalidation hook. At most one merge runs at a time.
func (h *htapState) maybeCheckpoint(e *env, wg rt.WaitGroup) {
	if h.ckptOps <= 0 || h.store.Pending() < h.ckptOps {
		return
	}
	h.mu.Lock()
	if h.ckptRunning {
		h.mu.Unlock()
		return
	}
	h.ckptRunning = true
	h.mu.Unlock()
	wg.Add(1)
	e.rt.Go("checkpoint", func() {
		defer wg.Done()
		start := e.rt.Now()
		h.store.PropagateWriteToRead()
		e.rt.Sleep(h.mergeCost)
		_, err := h.store.Checkpoint()
		h.mu.Lock()
		if err == nil {
			h.checkpoints++
			h.windows = append(h.windows, ckptWindow{start: start, end: e.rt.Now()})
		}
		h.ckptRunning = false
		h.mu.Unlock()
	})
}

// mergeStats reports the completed checkpoint count and the p95
// end-to-end latency of read queries whose lifetime overlapped a
// checkpoint/merge window — the "does a merge stall scans" number.
func (h *htapState) mergeStats(completed []sched.QueryStat) (checkpoints int, mergeP95 sim.Duration) {
	h.mu.Lock()
	windows := h.windows
	checkpoints = h.checkpoints
	h.mu.Unlock()
	var lats []sim.Duration
	for _, q := range completed {
		if q.Write {
			continue
		}
		for _, w := range windows {
			if q.Arrive < w.end && q.Finish > w.start {
				lats = append(lats, q.Latency())
				break
			}
		}
	}
	return checkpoints, sched.Percentile(lats, 95)
}

// view pins the query's snapshot/delta pair.
func (h *htapState) view() pdt.View { return h.store.View() }

// clipToView clamps a drawn scan range (positioned against the loaded
// tuple count) to the pinned view's current tuple count.
func clipToView(r exec.RIDRange, n int64) exec.RIDRange {
	if r.Hi > n {
		r.Hi = n
	}
	if r.Lo >= r.Hi {
		r.Lo, r.Hi = 0, n
	}
	return r
}

// builderView is builderCtx with the lineitem scan bound to a pinned
// store view: the scan reads the view's stable snapshot merged with its
// flattened deltas, so a checkpoint committing mid-scan never tears it.
// Other tables fall through to the plain snapshot builder.
func (e *env) builderView(ctx *exec.Ctx, db *tpch.DB, view pdt.View) tpch.ScanBuilder {
	base := e.builderCtx(db, ctx)
	return func(table string, cols []string, ranges []exec.RIDRange, inOrder bool) exec.Op {
		if table != "lineitem" {
			return base(table, cols, ranges, inOrder)
		}
		idx := make([]int, len(cols))
		for i, c := range cols {
			idx[i] = db.Col(table, c)
		}
		if ranges == nil {
			ranges = []exec.RIDRange{{Lo: 0, Hi: view.NumTuples()}}
		}
		if e.abm != nil {
			return &exec.CScan{Ctx: ctx, Snap: view.Stable, Cols: idx, Ranges: ranges, InOrder: inOrder, PDT: view.Deltas}
		}
		return &exec.Scan{Ctx: ctx, Snap: view.Stable, Cols: idx, Ranges: ranges, PDT: view.Deltas}
	}
}
