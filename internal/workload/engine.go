package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/exec"
	"repro/internal/pdt"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// ServeEngine is the serving surface of the workload engine: the
// runtime, disk array, buffer manager, admission scheduler, zone maps,
// cost model and HTAP write path, held open so clients can admit, plan
// and execute queries against it. RunServe drives one as a synthetic
// client loop; a network front end holds one for the life of a server
// process. Methods are safe for concurrent use by handler goroutines.
type ServeEngine struct {
	cfg     ServeConfig
	db      *tpch.DB
	e       *env
	sch     *sched.Scheduler
	cost    exec.ScanCostModel
	tenants int
	weights map[int]float64
	n       int64
	start   rt.Time

	// htap is the engine's write path, always wired: the PDT store
	// anchored at the catalog's cached snapshot, the checkpoint trigger,
	// and the merge measurement windows. Until the first update commits,
	// every pinned view carries nil deltas and scans read exactly the
	// stable snapshot.
	htap *htapState
	// ckptWG tracks in-flight background checkpoint goroutines so Close
	// does not stop the ABM under a running merge.
	ckptWG rt.WaitGroup

	// firstArrive is the first admission's clock reading plus one (so
	// zero means "no query yet"): stats measure the serving window, not
	// the idle time a server spends listening before traffic shows up.
	firstArrive atomic.Int64

	// rng draws server-side predicate windows and update positions
	// (requests that ask for a selectivity or an update kind rather than
	// explicit values); guarded because handlers race.
	mu  sync.Mutex
	rng *rand.Rand
}

// NewServeEngine builds a serving engine for a network front end. The
// embedded Config's Real flag is forced on (a server serves wall-clock
// traffic), and the zone maps are always built, since requests may
// carry arbitrary predicates.
func NewServeEngine(db *tpch.DB, cfg ServeConfig) *ServeEngine {
	cfg.Config.Real = true
	// The probe mix only forces the zone-map build; requests bring
	// their own selectivities.
	return newServeEngine(db, cfg, []float64{0.5})
}

// newServeEngine wires an engine on the runtime cfg.Real selects, with
// zone maps when any of the selectivity mixes restricts a scan. Zero
// fields default as in DefaultServeConfig.
func newServeEngine(db *tpch.DB, cfg ServeConfig, mixes ...[]float64) *ServeEngine {
	if cfg.SLO == 0 {
		cfg.SLO = 250 * time.Millisecond
	}
	if cfg.PoolShards == 0 {
		cfg.PoolShards = buffer.DefaultShards
	}
	if cfg.MPL <= 0 {
		cfg.MPL = 8
	}
	tenants := cfg.Tenants
	if tenants <= 0 {
		tenants = DefaultTenants
	}
	weights := map[int]float64{}
	for i, w := range cfg.TenantWeights {
		if w > 0 {
			weights[i] = w
		}
	}
	e := newEnv(db, cfg.Config, MicroAccessedBytes(db), mixes...)
	en := &ServeEngine{
		cfg: cfg, db: db, e: e,
		sch: sched.New(e.rt, sched.Config{
			MPL:           cfg.MPL,
			QueueDepth:    cfg.QueueDepth,
			SLO:           cfg.SLO,
			Policy:        cfg.AdmissionPolicy,
			TenantWeights: weights,
		}),
		tenants: tenants,
		weights: weights,
		n:       db.Snapshot("lineitem").NumTuples(),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	// Pricing a query takes the PBM mutex and averages observed speeds;
	// skip it entirely for policies that never read the estimate.
	if en.sch.UsesCost() {
		en.cost = e.costModel()
	}
	en.htap = e.newHTAP(db, cfg)
	en.ckptWG = e.rt.NewWaitGroup()
	en.start = e.rt.Now()
	return en
}

// Runtime exposes the engine's (real) runtime.
func (en *ServeEngine) Runtime() rt.Runtime { return en.e.rt }

// Now reads the engine clock (nanoseconds since engine creation).
func (en *ServeEngine) Now() rt.Time { return en.e.rt.Now() }

// NumTuples is the lineitem row count — the bound request ranges are
// clipped to, exported on /statz so clients can draw ranges.
func (en *ServeEngine) NumTuples() int64 { return en.n }

// TenantCount is the number of configured fairness domains.
func (en *ServeEngine) TenantCount() int { return en.tenants }

// Config returns the engine's effective serving configuration.
func (en *ServeEngine) Config() ServeConfig { return en.cfg }

// Scheduler exposes the admission scheduler (drain, gauges, stats).
func (en *ServeEngine) Scheduler() *sched.Scheduler { return en.sch }

// NewQueryCtx mints a lifecycle handle on the engine clock.
func (en *ServeEngine) NewQueryCtx() *exec.QueryCtx { return exec.NewQueryCtx(en.e.rt) }

// ClipRange clamps [lo, hi) to the table; hi <= 0 means the full table.
func (en *ServeEngine) ClipRange(lo, hi int64) exec.RIDRange {
	if hi <= 0 || hi > en.n {
		hi = en.n
	}
	if lo < 0 {
		lo = 0
	}
	if lo >= hi {
		lo = hi - 1
	}
	if lo < 0 {
		lo = 0
	}
	return exec.RIDRange{Lo: lo, Hi: hi}
}

// PredicateFor draws an l_shipdate window spanning sel of the date
// domain at a random position — the same draw discipline the in-process
// serve sweep uses, with an engine-level rng since requests have no
// stream. Selectivities outside (0,1) mean an unrestricted scan.
func (en *ServeEngine) PredicateFor(sel float64) *exec.ScanPredicate {
	if sel <= 0 || sel >= 1 {
		return nil
	}
	en.mu.Lock()
	defer en.mu.Unlock()
	return en.e.drawWindow(en.rng, sel)
}

// PredicateNamed builds an explicit [lo, hi] window on a lineitem int64
// column. Only the zone-mapped l_shipdate column prunes I/O; any other
// int64 column still filters exactly through the plan's Select.
func (en *ServeEngine) PredicateNamed(col string, lo, hi int64) (*exec.ScanPredicate, error) {
	schema := en.db.Snapshot("lineitem").Table().Schema
	ix := schema.ColIndex(col)
	if ix < 0 {
		return nil, fmt.Errorf("unknown lineitem column %q", col)
	}
	if schema[ix].Type != storage.Int64 {
		return nil, fmt.Errorf("column %q is not int64", col)
	}
	if lo > hi {
		return nil, fmt.Errorf("empty predicate window [%d, %d]", lo, hi)
	}
	return &exec.ScanPredicate{Col: ix, Lo: lo, Hi: hi}, nil
}

// Price estimates the query's expected work in seconds, skip-aware —
// zero when the admission policy never reads it.
func (en *ServeEngine) Price(r exec.RIDRange, pred *exec.ScanPredicate) float64 {
	if en.cost == nil {
		return 0
	}
	return en.cost.EstimateScanTime(en.e.survivingTuples(r, pred)).Seconds()
}

// PriceUpdate estimates an update's expected work from its delta size
// (batch operations), the same cost currency reads are priced in — so
// sesf/wfq admission weighs writes against scans directly.
func (en *ServeEngine) PriceUpdate(batch int) float64 {
	if en.cost == nil {
		return 0
	}
	if batch < 1 {
		batch = 1
	}
	return en.cost.EstimateScanTime(int64(batch)).Seconds()
}

// ApplyUpdate commits one update transaction of batch delta operations
// of the given kind for the admitted ticket tk (positions and
// synthesized dates are drawn from the engine rng, inside the loaded
// date domain) and resolves the ticket. It returns the operations
// applied plus the store's resulting commit epoch and
// uncheckpointed-op count.
func (en *ServeEngine) ApplyUpdate(tk *sched.Ticket, kind UpdateKind, batch int) (applied int, version, pending int64, err error) {
	en.mu.Lock()
	op := UpdateOp{
		Kind:  kind,
		Frac:  en.rng.Float64(),
		Date:  en.htap.dateMin + en.rng.Int63n(en.htap.dateMax-en.htap.dateMin+1),
		Batch: batch,
	}
	en.mu.Unlock()
	if op.Batch < 1 {
		op.Batch = 1
	}
	if op.Batch > maxUpdateBatch {
		op.Batch = maxUpdateBatch
	}
	applied, err = en.apply(tk, op)
	if err != nil {
		return 0, 0, 0, err
	}
	return applied, en.htap.store.Version(), en.htap.store.Pending(), nil
}

// apply commits a drawn update op against the PDT store, resolves its
// ticket, then checks the checkpoint trigger: crossing it starts a
// background merge while reads keep serving pinned views.
func (en *ServeEngine) apply(tk *sched.Ticket, op UpdateOp) (int, error) {
	applied, err := en.htap.apply(op)
	tk.Done()
	if err != nil {
		return 0, err
	}
	en.htap.maybeCheckpoint(en.e, en.ckptWG)
	return applied, nil
}

// Checkpoints reports the completed background checkpoint/merge cycles.
func (en *ServeEngine) Checkpoints() int {
	c, _ := en.htap.mergeStats(nil)
	return c
}

// Admit runs the admission scheduler for q, blocking while queued. When
// the engine's IOPriority knob is on, the query's context receives the
// policy-derived device priority hint first.
func (en *ServeEngine) Admit(q sched.Query) (*sched.Ticket, sched.AdmitOutcome) {
	en.firstArrive.CompareAndSwap(0, int64(en.e.rt.Now())+1)
	if en.cfg.IOPriority {
		q.Ctx.SetPriority(ioPriority(en.cfg.AdmissionPolicy, en.weights, q.Tenant, q.Cost))
	}
	return en.sch.AdmitQueryOutcome(q)
}

// BuildPlan builds the physical plan of one request: "q1"/"q6" run the
// microbenchmark aggregations, "scan" streams the scanned rows
// themselves (the kind whose result volume makes client backpressure
// meaningful). The plan is bound to qc's lifecycle end to end, XChg
// fan-out included, and pins a (snapshot, PDT-version) view of the
// table at build time: a checkpoint committing mid-stream never tears
// the scan, and updates committed after the pin stay invisible to it.
func (en *ServeEngine) BuildPlan(qc *exec.QueryCtx, kind string, r exec.RIDRange, pred *exec.ScanPredicate) (exec.Op, error) {
	ctx := en.e.ctx
	if qc != nil {
		ctx = ctx.WithQuery(qc)
	}
	view := en.htap.view()
	r = clipToView(r, view.NumTuples())
	build := en.e.wrapPred(en.db, en.e.builderView(ctx, en.db, view), pred)
	switch kind {
	case "q1", "q6":
		return en.e.microPlan(ctx, en.db, build, r, kind == "q1"), nil
	case "scan":
		threads := en.cfg.ThreadsPerQuery
		if threads <= 1 {
			return build("lineitem", microColumns, []exec.RIDRange{r}, false), nil
		}
		parts := make([]func() exec.Op, 0, threads)
		for _, pr := range exec.PartitionRange(r.Lo, r.Hi, threads) {
			pr := pr
			parts = append(parts, func() exec.Op {
				return build("lineitem", microColumns, []exec.RIDRange{pr}, false)
			})
		}
		return en.e.parallelCtx(ctx, parts), nil
	}
	return nil, fmt.Errorf("unknown query kind %q (want q1, q6 or scan)", kind)
}

// View pins the current (snapshot, PDT-version) view of lineitem: the
// image a scan planned now would stream.
func (en *ServeEngine) View() pdt.View { return en.htap.view() }

// Drain stops admitting new queries; already-admitted and queued ones
// run to completion. Poll Idle for the all-clear.
func (en *ServeEngine) Drain() { en.sch.Drain() }

// Idle reports whether the scheduler has no running or queued queries.
func (en *ServeEngine) Idle() bool { return en.sch.Idle() }

// Close releases engine background work (the ABM's scheduler loop),
// waiting out any in-flight checkpoint/merge first. Call once, after
// the last query has resolved.
func (en *ServeEngine) Close() {
	en.ckptWG.Wait()
	if en.e.abm != nil {
		en.e.abm.Stop()
	}
}

// Stats snapshots the run so far, safe to call concurrently with
// executing queries. Throughput and ElapsedSec are measured over the
// serving window — first admission to now — so a server that sat idle
// before traffic arrived reports the same numbers an in-process sweep
// of the same workload does; before any admission they fall back to the
// engine's lifetime.
func (en *ServeEngine) Stats() *ServeResult {
	start := en.start
	if fa := en.firstArrive.Load(); fa > 0 {
		start = rt.Time(fa - 1)
	}
	return en.statsAt(en.e.rt.Now(), start)
}

// statsAt assembles the result as of now, with ElapsedSec counted from
// start.
func (en *ServeEngine) statsAt(now, start rt.Time) *ServeResult {
	res := &ServeResult{Result: *en.e.collect()}
	res.Sched = en.sch.Stats(now)
	res.Tenants = en.sch.TenantStats(en.tenants)
	res.Checkpoints, res.MergeP95 = en.htap.mergeStats(en.sch.Completed())
	res.ElapsedSec = (now - start).Seconds()
	return res
}
