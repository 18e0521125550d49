package scanshare

import (
	"repro/internal/sched"
	"repro/internal/workload"
)

// Bridges between the library surface and the command lines: the axis
// declaration the binaries share, the serving-engine and option
// constructors, and the arrival/percentile helpers a load generator
// needs to reproduce the sweep's discipline.

// ServeAxes declares the full serving axis surface of the scanbench
// command line once: RegisterFlags binds the flags, Parse validates,
// and the scope helpers say which set flags a mode must reject — one
// declaration instead of per-mode rejection lists.
type ServeAxes = workload.ServeAxes

// ServingEngine is the long-lived serving surface behind cmd/scanserved:
// the sweep's per-run wiring held open so a network front end can
// admit, plan and execute queries for the life of a process.
type ServingEngine = workload.ServeEngine

// NewServingEngine builds a serving engine over the generated database;
// the config's Real flag is forced on.
func NewServingEngine(db *TPCHDB, cfg ServeConfig) *ServingEngine {
	return workload.NewServeEngine(db, cfg)
}

// ParsePolicy parses a buffer-management policy name ("lru", "mru",
// "clock", "pbm", "pbm-lru", "cscans"), case-insensitively.
func ParsePolicy(name string) (Policy, bool) { return workload.ParsePolicy(name) }

// BufferPolicies lists the buffer-management policies in menu order.
func BufferPolicies() []Policy { return workload.Policies() }

// ExpInterarrival draws one exponential interarrival gap at the given
// rate — re-exported so external load generators (cmd/scanload) share
// the serving sweep's Poisson arrival discipline draw for draw.
var ExpInterarrival = sched.ExpInterarrival

// Percentile reports the nearest-rank p-quantile of a duration sample,
// the same estimator the scheduler's latency report uses.
var Percentile = sched.Percentile

// NewServeOptions materializes the serving-sweep options from the base
// run options and the parsed command-line axes.
func NewServeOptions(base Options, a ServeAxes, real bool) ServeOptions {
	o := ServeOptions{
		Options:           base,
		Rates:             a.Rates,
		MPLs:              a.MPLs,
		Shards:            a.Shards,
		Devices:           a.Devices,
		StripeChunk:       a.StripeChunk,
		IOSchedulers:      a.IOSchedulers,
		Tiers:             a.Tiers,
		StripeRowRA:       a.StripeRowRA,
		IOPriority:        a.IOPriority,
		HotFrac:           a.HotFrac,
		HotProb:           a.HotProb,
		AdmissionPolicies: a.AdmissionPolicies,
		Tenants:           a.Tenants,
		TenantWeights:     a.TenantWeights,
		Selectivities:     a.Selectivities,
		Clustered:         a.Clustered,
		QueueDepth:        a.QueueDepth,
		SLO:               a.SLO,
		Deadline:          a.Deadline,
		CancelRate:        a.CancelRate,
		WriteFrac:         a.WriteFrac,
		CheckpointOps:     a.CheckpointOps,
		Real:              real,
	}
	// The per-run overrides must not fight the sweep's own axes.
	o.Options.PoolShards = 0
	o.Options.Devices = 0
	return o
}

// NewCompareOptions materializes the closed-vs-open-loop comparison
// options from the base run options and the parsed axes; multi-valued
// axes contribute their first element.
func NewCompareOptions(base Options, a ServeAxes, real bool) CompareOptions {
	co := DefaultCompareOptions()
	co.Options = base
	co.Options.PoolShards = 0
	co.Real = real
	if len(a.Rates) > 0 {
		co.Rate = a.Rates[0]
	}
	if len(a.MPLs) > 0 {
		co.MPL = a.MPLs[0]
	}
	if len(a.Shards) > 0 {
		co.Shards = a.Shards[0]
	}
	if len(a.Devices) > 0 {
		co.Devices = a.Devices[0]
	}
	co.StripeChunk = a.StripeChunk
	if len(a.AdmissionPolicies) > 0 {
		co.Admission = a.AdmissionPolicies[0]
	}
	co.Tenants = a.Tenants
	co.TenantWeights = a.TenantWeights
	co.QueueDepth = a.QueueDepth
	co.SLO = a.SLO
	return co
}

// NewServeEngineConfig materializes one serving configuration — a
// single cell rather than a sweep — from the base options and the
// parsed axes; multi-valued axes contribute their first element.
// cmd/scanserved uses it so the server's knobs are exactly scanbench's.
// A tiered first element maps to "tiered-rr" placement ("tiered-temp"
// needs a profiling pass a live server does not have).
func NewServeEngineConfig(base Options, a ServeAxes) ServeConfig {
	cfg := DefaultServeConfig()
	cfg.Config = base.fill().apply(cfg.Config)
	if len(a.MPLs) > 0 {
		cfg.MPL = a.MPLs[0]
	}
	if len(a.Shards) > 0 {
		cfg.PoolShards = a.Shards[0]
	}
	if len(a.Devices) > 0 {
		cfg.Config.Devices = a.Devices[0]
	}
	if a.StripeChunk > 0 {
		cfg.Config.StripeChunk = a.StripeChunk
	}
	if len(a.IOSchedulers) > 0 && a.IOSchedulers[0] != "fifo" {
		cfg.Config.IOScheduler = a.IOSchedulers[0]
	}
	if len(a.Tiers) > 0 && a.Tiers[0] != "flat" {
		fd := cfg.Config.Devices / 2
		if fd < 1 {
			fd = 1
		}
		cfg.Config.FastDevices = fd
	}
	cfg.Config.StripeRowRA = a.StripeRowRA
	cfg.IOPriority = a.IOPriority
	if len(a.AdmissionPolicies) > 0 {
		cfg.AdmissionPolicy = a.AdmissionPolicies[0]
	}
	cfg.Tenants = a.Tenants
	cfg.TenantWeights = a.TenantWeights
	if a.QueueDepth != 0 {
		cfg.QueueDepth = a.QueueDepth
	}
	if a.SLO != 0 {
		cfg.SLO = a.SLO
	}
	// -writefrac shapes client traffic (scanload draws the write coin);
	// -ckptops shapes the server's checkpoint trigger.
	cfg.CheckpointOps = a.CheckpointOps
	return cfg
}
