package workload

import (
	"math/rand"
	"time"

	"repro/internal/buffer"
	"repro/internal/exec"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tpch"
	"repro/wire"
)

// ServeConfig parameterizes an open-loop serving run: Streams client
// streams each generate queries with Poisson inter-arrivals at
// ArrivalRate queries per virtual second, and the scheduler admits them
// under the MPL limit through a bounded queue. The embedded Config
// supplies the engine wiring (policy, pool sizing, bandwidth, cores) and
// the query mix (RangePercents, ThreadsPerQuery), exactly as RunMicro.
type ServeConfig struct {
	Config
	// ArrivalRate is the per-stream mean arrival rate in queries per
	// virtual second (default 8).
	ArrivalRate float64
	// MPL is the scheduler's concurrency limit (default 8).
	MPL int
	// QueueDepth bounds the admission queue (0 => sched.DefaultQueueDepth,
	// negative => unbounded).
	QueueDepth int
	// SLO is the end-to-end latency objective (default 250ms of virtual
	// time; <0 disables).
	SLO sim.Duration
	// ClosedLoop switches the client streams from open-loop to
	// closed-loop issue: each stream still draws the same think-time and
	// query-shape sequence from its rng (the workload is identical), but
	// waits for its query to complete before drawing the next, so an
	// overloaded system slows its own offered load down. Comparing the
	// two disciplines on the same mix is the classic coordinated-omission
	// illustration: closed-loop latencies hide the queueing delay that
	// open-loop clients experience. See RunCompare.
	ClosedLoop bool
	// AdmissionPolicy names the scheduler's admission-ordering policy:
	// "fifo" (arrival order, the historical behavior and the default),
	// "sesf" (shortest-expected-scan-first, fed by the exec/pbm cost
	// hook), or "wfq" (per-tenant weighted fair queueing). See
	// sched.RegisterPolicy.
	AdmissionPolicy string
	// Tenants is the number of fairness domains the client streams are
	// mapped onto (stream s belongs to tenant s % Tenants; default
	// DefaultTenants). Tenant ids drive wfq's weighted shares and label
	// the per-tenant latency report; under fifo/sesf they are labels
	// only.
	Tenants int
	// TenantWeights assigns wfq fair-share weights by tenant id (index =
	// tenant). Missing or non-positive entries weigh 1.
	TenantWeights []float64
	// TenantSelectivities overrides the embedded Config.Selectivities
	// per tenant (index = tenant id): each tenant's streams draw their
	// predicate selectivity from their own mix, so a sweep can pit
	// narrow-predicate tenants against full-scan tenants under one
	// admission policy. Missing or empty entries fall back to
	// Config.Selectivities.
	TenantSelectivities [][]float64
	// Deadline, when positive, arms every query with an end-to-end
	// deadline relative to its arrival: queries still queued past it are
	// dropped with a TimedOut outcome (they never occupy an MPL slot),
	// and executing queries are killed at their next lifecycle check.
	// Zero keeps the historical deadline-free behavior bit-identical.
	Deadline sim.Duration
	// CancelRate is the fraction of queries whose client abandons them
	// mid-flight: each such query draws a cancel delay uniform in [0,
	// SLO) from its stream's rng and is cancelled that long after it was
	// issued, whether it is still queued or already executing. Zero (the
	// default) draws nothing and changes nothing.
	CancelRate float64
	// IOPriority threads the admission policy's ordering signal down to
	// the device queue as each query's I/O priority hint: wfq queries
	// carry their tenant weight, sesf queries their negated cost estimate
	// (shorter first). The elevator scheduler uses the hint to order
	// same-position ties and ABM's chooseQuery consults it. Off by
	// default: enabling it creates a QueryCtx per query, which the
	// historical paths do not.
	IOPriority bool
	// WriteFrac is the fraction of each stream's queries that are update
	// statements (insert/delete/modify against the lineitem PDT store)
	// instead of scans. Writes are admitted through the same policies and
	// MPL as reads, priced by their delta size, and reported separately
	// (Sched.WriteCompleted / WriteThroughput). Zero — the default —
	// draws no updates, so the store stays empty and the read-only path
	// is bit-identical to the historical engine.
	WriteFrac float64
	// TenantWriteFrac overrides WriteFrac per tenant (index = tenant id;
	// an explicit zero entry makes that tenant read-only), so a sweep can
	// pit a write-heavy tenant against read-only ones.
	TenantWriteFrac []float64
	// UpdateMix weighs the update kinds {insert, delete, modify}; all
	// zero defaults to {1, 1, 2} (half modifies, the delta-widening
	// stressor).
	UpdateMix [3]float64
	// CheckpointOps triggers the background checkpoint/merge process:
	// when the committed-but-uncheckpointed delta count reaches it, an
	// online checkpoint materializes the store to a fresh stable snapshot
	// while scans keep serving from their pinned views. Zero never
	// checkpoints (deltas accumulate for the whole run).
	CheckpointOps int
}

// DefaultTenants is the default number of fairness domains streams are
// mapped onto.
const DefaultTenants = 4

// DefaultServeConfig returns serving defaults: 64 streams of 4 queries
// each arriving at 8 qps/stream, MPL 8, a 64-deep fifo admission queue,
// a 250 ms latency SLO, DefaultTenants fairness domains, and a buffer
// pool of buffer.DefaultShards shards, over the §4.1 microbenchmark
// query mix.
func DefaultServeConfig() ServeConfig {
	cfg := DefaultMicroConfig()
	cfg.Streams = 64
	cfg.QueriesPerStream = 4
	cfg.ThreadsPerQuery = 1
	cfg.PoolShards = buffer.DefaultShards
	return ServeConfig{
		Config:      cfg,
		ArrivalRate: 8,
		MPL:         8,
		QueueDepth:  sched.DefaultQueueDepth,
		SLO:         250 * time.Millisecond,
	}
}

// ServeResult reports one serving run: the engine-level Result (I/O
// volume, pool stats) plus the scheduler's latency and throughput
// accounting, overall and per tenant.
type ServeResult struct {
	Result
	Sched sched.Stats
	// Tenants is the per-tenant completion/p95/SLO breakdown, indexed by
	// tenant id (one entry per configured tenant).
	Tenants []sched.TenantStat
	// ElapsedSec is the run's makespan in (virtual or wall) seconds, the
	// denominator of the achieved aggregate read bandwidth.
	ElapsedSec float64
	// Checkpoints counts completed online checkpoint/merge cycles.
	Checkpoints int
	// MergeP95 is the p95 end-to-end latency of read queries whose
	// lifetime overlapped a checkpoint/merge window — zero when no
	// checkpoint ran or no read overlapped one.
	MergeP95 sim.Duration
}

// RunServe executes an open-loop serving run over the microbenchmark
// query mix (Q1/Q6 over random ranges). Unlike RunMicro's closed loop —
// where each stream issues its next query only after the previous one
// finishes — clients here generate queries on a Poisson arrival process
// regardless of completion, so overload manifests as queue wait,
// admission-queue growth, and ultimately rejections, the serving regime
// the paper's fixed-stream experiments do not cover. The streams are
// synthetic clients of one ServeEngine: each prices, admits, plans and
// executes its queries through the engine's methods.
func RunServe(db *tpch.DB, cfg ServeConfig) *ServeResult {
	if cfg.QueriesPerStream <= 0 {
		cfg.QueriesPerStream = 4
	}
	if cfg.ArrivalRate <= 0 {
		cfg.ArrivalRate = 8
	}
	en := newServeEngine(db, cfg, append([][]float64{cfg.Selectivities}, cfg.TenantSelectivities...)...)
	cfg = en.cfg
	e := en.e

	wg := e.rt.NewWaitGroup()
	stopSampler := e.sharingSampler()
	// Serving starts now: on the real runtime the engine/db setup above
	// already consumed wall time, and the makespan (the read-bandwidth
	// denominator) must not include it. Zero in sim mode.
	servingStart := e.rt.Now()
	for s := 0; s < cfg.Streams; s++ {
		s := s
		tenant := s % en.tenants
		mix := cfg.Selectivities
		if tenant < len(cfg.TenantSelectivities) && len(cfg.TenantSelectivities[tenant]) > 0 {
			mix = cfg.TenantSelectivities[tenant]
		}
		wf := cfg.writeFrac(tenant)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(s)*6271))
		wg.Add(1)
		e.rt.Go("client", func() {
			defer wg.Done()
			for q := 0; q < cfg.QueriesPerStream; q++ {
				e.rt.Sleep(sched.ExpInterarrival(rng, cfg.ArrivalRate))
				// Sample the query's shape in the generator, in a fixed
				// per-stream order, so the workload is identical across
				// policies and runs regardless of execution interleaving.
				pct := cfg.RangePercents[rng.Intn(len(cfg.RangePercents))]
				r := randRangeSkewed(rng, en.n, pct, cfg.HotFrac, cfg.HotProb)
				kind := "q6"
				if rng.Intn(2) == 0 {
					kind = "q1"
				}
				pred := e.pickPredicate(rng, mix)
				// Lifecycle draws come last and only when the feature is
				// on, so a run with Deadline == 0 and CancelRate == 0
				// consumes exactly the historical rng sequence.
				doCancel := false
				var cancelAfter sim.Duration
				if cfg.CancelRate > 0 {
					doCancel = rng.Float64() < cfg.CancelRate
					if doCancel {
						cancelAfter = sim.Duration(rng.Float64() * float64(cfg.SLO))
					}
				}
				var qc *exec.QueryCtx
				if cfg.Deadline > 0 || doCancel || cfg.IOPriority {
					qc = en.NewQueryCtx()
					if cfg.Deadline > 0 {
						qc.SetDeadline(e.rt.Now() + sim.Time(cfg.Deadline))
					}
					if doCancel {
						qc := qc
						wg.Add(1)
						e.rt.Go("canceller", func() {
							defer wg.Done()
							e.rt.Sleep(cancelAfter)
							qc.Cancel(rt.CauseClientCancel)
						})
					}
				}
				// Update draws come after every read-shape and lifecycle
				// draw and only on write-configured streams, so read-only
				// runs consume exactly the historical rng sequence
				// (golden-critical).
				isWrite := wf > 0 && rng.Float64() < wf
				var upd UpdateOp
				if isWrite {
					upd = en.htap.drawUpdate(rng)
				}
				// The expected-work estimate is priced at arrival — the
				// signal sesf orders the admission queue by.
				req := sched.Query{Stream: s, Seq: q, Tenant: tenant, Ctx: qc, Write: isWrite}
				if isWrite {
					req.Cost = en.PriceUpdate(upd.Batch)
				} else {
					req.Cost = en.Price(r, pred)
				}
				runOne := func() {
					tk, outcome := en.Admit(req)
					if outcome != sched.AdmitGranted {
						return // rejected, timed out, or cancelled while queued
					}
					if isWrite {
						if qc.Cancelled() {
							tk.Cancel(qc.Cause())
							return
						}
						en.apply(tk, upd)
						return
					}
					plan, _ := en.BuildPlan(qc, kind, r, pred)
					exec.Drain(plan)
					if qc.Cancelled() {
						tk.Cancel(qc.Cause())
					} else {
						tk.Done()
					}
				}
				if cfg.ClosedLoop {
					// Closed loop: the stream itself runs the query and only
					// then loops to draw the next think time.
					runOne()
					continue
				}
				wg.Add(1)
				e.rt.Go("query", func() {
					defer wg.Done()
					runOne()
				})
			}
		})
	}
	var end rt.Time
	e.rt.Go("driver", func() {
		wg.Wait()
		en.Close()
		stopSampler.Fire()
		end = e.rt.Now()
	})
	e.rt.Run()
	return en.statsAt(end, servingStart)
}

// ioPriority derives a query's device-level priority hint from the
// admission policy's own ordering signal: under wfq a query carries its
// tenant's fair-share weight (heavier tenants win ties), under sesf its
// negated cost estimate (shorter queries win). Under fifo every query is
// equal, so the elevator falls through to its arrival-ticket tie-break.
func ioPriority(policy string, weights map[int]float64, tenant int, cost float64) float64 {
	switch policy {
	case "wfq":
		if w, ok := weights[tenant]; ok {
			return w
		}
		return 1
	case "sesf":
		return -cost
	}
	return 0
}

// CompareResult pairs an open-loop and a closed-loop run of the same
// query mix on the same engine configuration.
type CompareResult struct {
	Open   *ServeResult
	Closed *ServeResult
}

// RunCompare executes the same serving mix twice — open loop (Poisson
// arrivals regardless of completions) and closed loop (each stream waits
// for its query before issuing the next) — and returns both reports. The
// two runs draw identical think-time and query-shape sequences; only the
// arrival discipline differs, so the latency gap between the reports is
// exactly the queueing delay that closed-loop measurement omits
// (coordinated omission).
func RunCompare(db *tpch.DB, cfg ServeConfig) *CompareResult {
	open := cfg
	open.ClosedLoop = false
	closed := cfg
	closed.ClosedLoop = true
	return &CompareResult{Open: RunServe(db, open), Closed: RunServe(db, closed)}
}

// ServeRowOf flattens one serving result into the serve-table row, the
// wire schema shared by `scanbench -json`, /v1/statz and scanload.
// Every label except the tier comes from cfg, the configuration that
// produced res: shards are 0 under CScan (the ABM replaces the page
// pool), an empty I/O scheduler or admission policy is "fifo", and the
// selectivity is the first entry of the predicate mix (a sweep cell
// configures exactly one), or 1 when queries carry no predicate. The
// tier is passed in because the config cannot tell a tiered-temp cell
// whose profiling pass saw no heat from tiered-rr; empty derives it
// from the config: "flat" without a fast tier, "tiered-rr" with one.
func ServeRowOf(res *ServeResult, cfg ServeConfig, tier string) wire.ServeStats {
	shards := cfg.PoolShards
	if cfg.Policy == CScan {
		shards = 0
	}
	devices := cfg.Devices
	if devices <= 0 {
		devices = 1
	}
	if tier == "" {
		tier = "flat"
		if cfg.FastDevices > 0 {
			tier = "tiered-rr"
		}
	}
	sel := 1.0
	if len(cfg.Selectivities) > 0 {
		sel = cfg.Selectivities[0]
	}
	st := res.Sched
	row := wire.ServeStats{
		Rate:        cfg.ArrivalRate,
		MPL:         cfg.MPL,
		Policy:      cfg.Policy.String(),
		Shards:      shards,
		Devices:     devices,
		IOSched:     orFIFO(cfg.IOScheduler),
		Tier:        tier,
		Admission:   orFIFO(cfg.AdmissionPolicy),
		Completed:   st.Completed,
		Rejected:    st.Rejected,
		TimedOut:    st.TimedOut,
		Cancelled:   st.Cancelled,
		Throughput:  st.Throughput,
		P50ms:       ms(st.Latency.P50),
		P95ms:       ms(st.Latency.P95),
		P99ms:       ms(st.Latency.P99),
		QWaitP95ms:  ms(st.QueueWait.P95),
		SLOPct:      st.SLOAttainment * 100,
		IOMB:        mb(res.TotalIOBytes),
		Selectivity: sel,
		Seeks:       res.DiskStats.Seeks,
		Skew:        1,
		Writes:      st.WriteCompleted,
		WrQps:       st.WriteThroughput,
		Checkpoints: res.Checkpoints,
		MergeP95ms:  ms(res.MergeP95),
	}
	if st.Arrived > 0 {
		row.ToPct = 100 * float64(st.TimedOut) / float64(st.Arrived)
		row.CanPct = 100 * float64(st.Cancelled) / float64(st.Arrived)
	}
	if res.RequestedTuples > 0 {
		row.SkipPct = 100 * float64(res.SkippedTuples) / float64(res.RequestedTuples)
	}
	if res.ElapsedSec > 0 {
		row.ReadMBps = mb(res.DiskStats.BytesRead) / res.ElapsedSec
	}
	if n := len(res.DiskStats.PerDevice); n > 0 && res.DiskStats.BytesRead > 0 {
		row.Skew = float64(res.DiskStats.MaxDeviceBytes) * float64(n) / float64(res.DiskStats.BytesRead)
	}
	for _, ts := range res.Tenants {
		row.TenantP95ms = append(row.TenantP95ms, ms(ts.P95))
		row.TenantSLOPct = append(row.TenantSLOPct, ts.SLOAttainment*100)
	}
	return row
}

func orFIFO(name string) string {
	if name == "" {
		return "fifo"
	}
	return name
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func mb(b int64) float64 { return float64(b) / 1e6 }
