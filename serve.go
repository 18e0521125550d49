package scanshare

import (
	"fmt"
	"time"

	"repro/internal/iosim"
	"repro/internal/sched"
	"repro/internal/workload"
	"repro/wire"
)

// Serving surface: the open-loop, many-client scenario on top of the
// paper's engine. Unlike the closed-loop figure experiments, clients
// here generate queries on a Poisson arrival process and a multi-tenant
// scheduler admits them under an MPL limit through a bounded queue —
// the regime where overload, queue wait, and latency SLOs appear.
type (
	// ServeConfig parameterizes one open-loop serving run.
	ServeConfig = workload.ServeConfig
	// ServeResult reports one serving run (engine result + scheduler stats).
	ServeResult = workload.ServeResult
	// SchedConfig parameterizes the admission scheduler directly.
	SchedConfig = sched.Config
	// SchedStats is the scheduler's aggregate serving report.
	SchedStats = sched.Stats
	// TenantStat is one tenant's slice of the serving report.
	TenantStat = sched.TenantStat
	// AdmissionPolicy orders the scheduler's admission queue; register
	// custom implementations with RegisterAdmissionPolicy.
	AdmissionPolicy = sched.AdmissionPolicy
	// AdmissionPolicyConfig parameterizes admission-policy construction.
	AdmissionPolicyConfig = sched.PolicyConfig
	// PendingQuery is one query waiting in the admission queue, as an
	// AdmissionPolicy sees it.
	PendingQuery = sched.Pending
	// LatencyDist summarizes a latency distribution (p50/p95/p99/max/mean).
	LatencyDist = sched.LatencyDist
	// QueryStat is one completed query's recorded life cycle.
	QueryStat = sched.QueryStat
	// Scheduler is the multi-tenant admission scheduler; embed one in a
	// custom System-based simulation via NewScheduler.
	Scheduler = sched.Scheduler
)

// NewScheduler creates an admission scheduler bound to the system's
// runtime, for custom serving scenarios built on System.
func (s *System) NewScheduler(cfg SchedConfig) *Scheduler {
	return sched.New(s.RT, cfg)
}

// RegisterAdmissionPolicy registers a custom admission-policy
// constructor; the built-in policies are "fifo", "sesf" and "wfq".
var RegisterAdmissionPolicy = sched.RegisterPolicy

// AdmissionPolicyNames lists the registered admission policies, sorted.
var AdmissionPolicyNames = sched.PolicyNames

// DefaultServeConfig re-exports the serving defaults: 64 streams,
// 8 qps/stream, MPL 8, 64-deep admission queue, 250 ms SLO.
func DefaultServeConfig() ServeConfig { return workload.DefaultServeConfig() }

// RunServe exposes the open-loop serving driver directly.
func RunServe(db *TPCHDB, cfg ServeConfig) *ServeResult { return workload.RunServe(db, cfg) }

// ServeOptions parameterizes the serving sweep (cmd/scanbench -serve):
// the cross product of arrival rates, MPL limits, and policies, each run
// over Options.Streams open-loop client streams.
type ServeOptions struct {
	Options
	// Rates is the per-stream arrival-rate axis in queries per virtual
	// second (default {1, 5, 20}: light load, near saturation, overload
	// at the default scale).
	Rates []float64
	// MPLs is the concurrency-limit axis (default {8, 32}).
	MPLs []int
	// Policies is the buffer-management axis (default LRU, Clock, PBM,
	// CScan).
	Policies []Policy
	// Shards is the buffer-pool shard-count axis (default {1, 8}), so a
	// sweep measures the sharding effect instead of asserting it. CScan
	// rows ignore it (the ABM replaces the pool) and run once.
	Shards []int
	// Devices is the disk-array spindle-count axis (default {1}): each
	// cell runs once per device count, rows adjacent, so the I/O-scaling
	// effect of striping reads off one table (`scanbench -devices 1,4`).
	// Unlike Shards it applies to CScan rows too — the ABM reads through
	// the same array.
	Devices []int
	// StripeChunk overrides the array striping granularity in blocks for
	// every multi-device cell (0 = iosim.DefaultStripeChunk).
	StripeChunk int
	// IOSchedulers is the device queue-discipline axis (default {"fifo"}):
	// each cell runs once per discipline, rows adjacent, so the
	// fifo/elevator seek effect reads off one table
	// (`scanbench -iosched fifo,elevator`). "fifo" is bit-identical to the
	// pre-scheduler engine; "elevator" runs a C-SCAN sweep per spindle.
	IOSchedulers []string
	// Tiers is the heterogeneous-array axis (default {"flat"}): "flat"
	// keeps every spindle identical (bit-identical to the homogeneous
	// engine); "tiered-rr" makes the first half of the devices an SSD-like
	// fast tier (zero seek, 4x bandwidth) with round-robin chunk
	// placement; "tiered-temp" additionally runs a profiling pass first
	// and places the hottest chunks on the fast tier via
	// iosim.TemperaturePlacement.
	Tiers []string
	// StripeRowRA deepens every cell's scan read-ahead to one full stripe
	// row on multi-device arrays (see workload.Config.StripeRowRA).
	StripeRowRA bool
	// IOPriority threads each query's admission-policy signal (wfq tenant
	// weight / sesf cost) down to the device queue as its I/O priority
	// hint (see workload.ServeConfig.IOPriority).
	IOPriority bool
	// HotFrac and HotProb skew the query mix's range starts: with
	// probability HotProb a query's scan range is drawn inside the first
	// HotFrac of the table (the access skew temperature placement
	// exploits). Zero keeps the historical uniform draws.
	HotFrac float64
	HotProb float64
	// AdmissionPolicies is the admission-policy axis (default {"fifo"}):
	// each cell of the sweep runs once per named policy, rows adjacent,
	// so the fifo/sesf/wfq SLO comparison reads off one table. Names must
	// be registered (see AdmissionPolicyNames).
	AdmissionPolicies []string
	// Tenants is the number of fairness domains streams map onto (stream
	// s belongs to tenant s % Tenants; 0 => default 4). The serve table
	// reports p95 and SLO attainment per tenant.
	Tenants int
	// TenantWeights assigns wfq fair-share weights by tenant id (index =
	// tenant); missing or non-positive entries weigh 1.
	TenantWeights []float64
	// Selectivities is the predicate-selectivity axis (default {1}):
	// each cell of the sweep runs once per selectivity, rows adjacent,
	// so the zone-map data-skipping effect reads off one table
	// (`scanbench -selectivities 1,0.1,0.01`). A selectivity of 1 means
	// unrestricted scans (bit-identical to the pre-skipping engine);
	// below 1, every query carries an l_shipdate window spanning that
	// fraction of the date domain, pushed down to the scans.
	Selectivities []float64
	// Clustered generates lineitem sorted by l_shipdate, giving the zone
	// maps physical structure to exploit; without it TPC-H shipdates are
	// near-uniform per block and nothing prunes.
	Clustered bool
	// QueueDepth bounds the admission queue (0 => default 64).
	QueueDepth int
	// SLO is the latency objective (0 => 250 ms).
	SLO time.Duration
	// Deadline, when positive, arms every query with an end-to-end
	// deadline relative to its arrival: queued queries past it are
	// dropped with a TimedOut outcome, executing ones are killed at
	// their next lifecycle check. Zero keeps every cell bit-identical to
	// the deadline-free sweep.
	Deadline time.Duration
	// CancelRate is the fraction of queries whose client abandons them
	// mid-flight (0..1); each such query is cancelled a uniform [0, SLO)
	// delay after it was issued. Zero draws nothing.
	CancelRate float64
	// WriteFrac makes that fraction of every stream's queries updates
	// (insert/delete/modify through the PDT write path, admitted by the
	// same scheduler, delta-size-priced). Zero keeps the read-only stream
	// bit-identical to the pre-HTAP sweep.
	WriteFrac float64
	// CheckpointOps triggers a background checkpoint/merge once that many
	// committed update operations are pending; reads keep serving from
	// their pinned snapshot views while the merge runs. Zero never
	// checkpoints.
	CheckpointOps int
	// Real runs every cell on the real-threaded runtime (goroutines and
	// wall-clock time) instead of the deterministic simulator. Latencies
	// are then real milliseconds and runs are not reproducible.
	Real bool
}

// DefaultServeOptions returns the serving-sweep defaults.
func DefaultServeOptions() ServeOptions {
	return ServeOptions{
		Options:           DefaultOptions(),
		Rates:             []float64{1, 5, 20},
		MPLs:              []int{8, 32},
		Policies:          []Policy{LRU, Clock, PBM, CScan},
		Shards:            []int{1, DefaultPoolShards},
		Devices:           []int{1},
		IOSchedulers:      []string{"fifo"},
		Tiers:             []string{"flat"},
		AdmissionPolicies: []string{"fifo"},
		Selectivities:     []float64{1},
		SLO:               250 * time.Millisecond,
	}
}

func (o ServeOptions) fill() ServeOptions {
	d := DefaultServeOptions()
	o.Options = o.Options.fill()
	if len(o.Rates) == 0 {
		o.Rates = d.Rates
	}
	if len(o.MPLs) == 0 {
		o.MPLs = d.MPLs
	}
	if len(o.Policies) == 0 {
		o.Policies = d.Policies
	}
	// Drop non-positive shard counts: 0 is the CScan-only row marker in
	// the output and must not label a defaulted sharded run.
	shards := o.Shards[:0:0]
	for _, s := range o.Shards {
		if s > 0 {
			shards = append(shards, s)
		}
	}
	o.Shards = shards
	if len(o.Shards) == 0 {
		o.Shards = d.Shards
	}
	// Drop non-positive device counts the same way.
	devices := o.Devices[:0:0]
	for _, n := range o.Devices {
		if n > 0 {
			devices = append(devices, n)
		}
	}
	o.Devices = devices
	if len(o.Devices) == 0 {
		o.Devices = d.Devices
	}
	if len(o.IOSchedulers) == 0 {
		o.IOSchedulers = d.IOSchedulers
	}
	if len(o.Tiers) == 0 {
		o.Tiers = d.Tiers
	}
	if len(o.AdmissionPolicies) == 0 {
		o.AdmissionPolicies = d.AdmissionPolicies
	}
	// Keep only meaningful selectivities (0 < sel <= 1); an empty axis
	// defaults to {1}, the unrestricted-scan baseline.
	sels := o.Selectivities[:0:0]
	for _, s := range o.Selectivities {
		if s > 0 && s <= 1 {
			sels = append(sels, s)
		}
	}
	o.Selectivities = sels
	if len(o.Selectivities) == 0 {
		o.Selectivities = d.Selectivities
	}
	if o.SLO == 0 {
		o.SLO = d.SLO
	}
	return o
}

// ServeRow is one cell of the serving sweep: a (rate, MPL, buffer
// policy, shards, devices, I/O scheduler, tier, admission policy,
// selectivity) configuration and its throughput/latency report, overall
// and per tenant — the wire schema's serve-table row.
type ServeRow = wire.ServeStats

// validateAdmission panics on an unregistered admission-policy name,
// naming the registered menu. Sweeps call it before the expensive data
// generation so a typo from a library caller fails fast instead of
// panicking mid-sweep inside sched.New.
func validateAdmission(names ...string) {
	for _, name := range names {
		if _, ok := sched.NewPolicy(name, sched.PolicyConfig{}); !ok {
			panic(fmt.Sprintf("scanshare: unknown admission policy %q (registered: %v)",
				name, sched.PolicyNames()))
		}
	}
}

// validateTiers panics on an unknown tier name, naming the menu.
func validateTiers(names ...string) {
	for _, name := range names {
		switch name {
		case "flat", "tiered-rr", "tiered-temp":
		default:
			panic(fmt.Sprintf("scanshare: unknown tier %q (want flat, tiered-rr or tiered-temp)", name))
		}
	}
}

// ServeSweep runs the arrival-rate x MPL x buffer-policy x shard-count x
// device-count x I/O-scheduler x tier x admission-policy cross product and
// returns one row per cell: shards=1 and sharded rows adjacent so the
// sharding effect reads off one table, device counts of one cell adjacent
// so the striping effect does too, I/O-scheduler and tier rows likewise
// for the fifo/elevator seek comparison and the flat/tiered placement
// comparison, and admission-policy rows for the fifo/sesf/wfq SLO
// comparison. A "tiered-temp" cell runs twice: a profiling pass collects
// the per-chunk access heat under round-robin placement, then the
// measured pass re-runs with the hottest chunks placed on the fast tier.
// Unregistered admission-policy or tier names panic before any data is
// generated.
func ServeSweep(o ServeOptions) []ServeRow {
	o = o.fill()
	validateAdmission(o.AdmissionPolicies...)
	validateTiers(o.Tiers...)
	db := GenerateTPCHOpt(o.SF, o.Seed, TPCHGenOptions{ClusteredShipdate: o.Clustered})
	var out []ServeRow
	for _, rate := range o.Rates {
		for _, mpl := range o.MPLs {
			for _, pol := range o.Policies {
				shardAxis := o.Shards
				if pol == CScan {
					// The ABM replaces the page pool; one row suffices.
					shardAxis = []int{0}
				}
				for _, shards := range shardAxis {
					for _, devices := range o.Devices {
						for _, iosched := range o.IOSchedulers {
							for _, tier := range o.Tiers {
								for _, adm := range o.AdmissionPolicies {
									for _, sel := range o.Selectivities {
										cfg := DefaultServeConfig()
										cfg.Config = o.apply(cfg.Config)
										cfg.Config.Real = o.Real
										cfg.Policy = pol
										cfg.ArrivalRate = rate
										cfg.MPL = mpl
										cfg.QueueDepth = o.QueueDepth
										cfg.SLO = o.SLO
										cfg.AdmissionPolicy = adm
										cfg.Tenants = o.Tenants
										cfg.TenantWeights = o.TenantWeights
										if shards > 0 {
											cfg.PoolShards = shards
										}
										cfg.Config.Devices = devices
										if o.StripeChunk > 0 {
											cfg.Config.StripeChunk = o.StripeChunk
										}
										if sel < 1 {
											// sel = 1 leaves Selectivities nil so the run is
											// bit-identical to the pre-skipping sweep.
											cfg.Selectivities = []float64{sel}
										}
										cfg.Deadline = o.Deadline
										cfg.CancelRate = o.CancelRate
										cfg.WriteFrac = o.WriteFrac
										cfg.CheckpointOps = o.CheckpointOps
										if iosched != "fifo" {
											// "fifo" stays "" so the cell is bit-identical
											// to the pre-scheduler engine.
											cfg.Config.IOScheduler = iosched
										}
										cfg.Config.StripeRowRA = o.StripeRowRA
										cfg.IOPriority = o.IOPriority
										cfg.Config.HotFrac = o.HotFrac
										cfg.Config.HotProb = o.HotProb
										if tier != "flat" {
											fd := devices / 2
											if fd < 1 {
												fd = 1
											}
											cfg.Config.FastDevices = fd
											if tier == "tiered-temp" {
												// Profiling pass: same cell, round-robin
												// placement, heat collection on.
												prof := cfg
												prof.CollectBlockHeat = true
												pres := workload.RunServe(db, prof)
												heat := workload.ChunkHeat(pres.BlockHeat, cfg.Config.StripeChunk)
												fast := make([]int, fd)
												for i := range fast {
													fast[i] = i
												}
												cfg.Config.ChunkPlacement = iosim.TemperaturePlacement(heat, devices, fast)
											}
										}
										out = append(out, workload.ServeRowOf(workload.RunServe(db, cfg), cfg, tier))
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// CompareOptions parameterizes the closed-vs-open-loop comparison
// (cmd/scanbench -compare): one (rate, MPL, policy) point run twice over
// the identical query mix, once with open-loop Poisson arrivals and once
// closed-loop (each stream waits for completion before its next query).
type CompareOptions struct {
	Options
	// Rate is the per-stream arrival (open) / think (closed) rate in
	// queries per virtual second. The default of 20 overloads the default
	// scale, where the disciplines diverge most visibly.
	Rate float64
	// MPL is the scheduler concurrency limit (default 8).
	MPL int
	// Policy is the buffer-management policy (default PBM).
	Policy Policy
	// Shards is the buffer-pool shard count (default 8).
	Shards int
	// Devices is the disk-array spindle count (default 1).
	Devices int
	// StripeChunk is the striping granularity in blocks (0 = default).
	StripeChunk int
	// Admission names the admission policy for both loops (default
	// "fifo").
	Admission string
	// Tenants is the number of fairness domains streams map onto (0 =>
	// default 4).
	Tenants int
	// TenantWeights assigns wfq weights by tenant id.
	TenantWeights []float64
	// QueueDepth bounds the admission queue (0 => default 64, negative
	// => unbounded).
	QueueDepth int
	// SLO is the latency objective (0 => 250 ms).
	SLO time.Duration
	// Real runs both loops on the real-threaded runtime.
	Real bool
}

// DefaultCompareOptions returns the comparison defaults.
func DefaultCompareOptions() CompareOptions {
	return CompareOptions{Options: DefaultOptions(), Rate: 20, MPL: 8, Policy: PBM, Shards: DefaultPoolShards}
}

// CompareReport is the result of one closed-vs-open-loop comparison: the
// same sweep row shape for both disciplines, plus the latency gap the
// closed-loop measurement omits (coordinated omission).
type CompareReport struct {
	Open, Closed ServeRow
	// GapP50ms/GapP95ms/GapP99ms are open minus closed latency at each
	// percentile, in virtual ms: the queueing delay a closed-loop
	// benchmark hides from its latency report.
	GapP50ms, GapP95ms, GapP99ms float64
}

// Compare runs the closed-vs-open-loop comparison at one configuration.
func Compare(o CompareOptions) CompareReport {
	d := DefaultCompareOptions()
	o.Options = o.Options.fill()
	if o.Rate <= 0 {
		o.Rate = d.Rate
	}
	if o.MPL <= 0 {
		o.MPL = d.MPL
	}
	if o.Shards <= 0 {
		o.Shards = d.Shards
	}
	if o.Devices <= 0 {
		o.Devices = 1
	}
	if o.Admission == "" {
		o.Admission = "fifo"
	}
	validateAdmission(o.Admission)
	db := GenerateTPCH(o.SF, o.Seed)
	cfg := DefaultServeConfig()
	cfg.Config = o.apply(cfg.Config)
	cfg.Config.Real = o.Real
	cfg.Policy = o.Policy
	cfg.PoolShards = o.Shards
	cfg.Config.Devices = o.Devices
	cfg.Config.StripeChunk = o.StripeChunk
	cfg.ArrivalRate = o.Rate
	cfg.MPL = o.MPL
	cfg.QueueDepth = o.QueueDepth
	cfg.AdmissionPolicy = o.Admission
	cfg.Tenants = o.Tenants
	cfg.TenantWeights = o.TenantWeights
	if o.SLO != 0 {
		cfg.SLO = o.SLO
	}
	res := workload.RunCompare(db, cfg)
	rep := CompareReport{
		Open:   workload.ServeRowOf(res.Open, cfg, "flat"),
		Closed: workload.ServeRowOf(res.Closed, cfg, "flat"),
	}
	rep.GapP50ms = rep.Open.P50ms - rep.Closed.P50ms
	rep.GapP95ms = rep.Open.P95ms - rep.Closed.P95ms
	rep.GapP99ms = rep.Open.P99ms - rep.Closed.P99ms
	return rep
}
