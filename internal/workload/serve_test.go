package workload

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// tinyServeConfig shrinks the serving run for tests: 16 streams of 3
// queries over the shared tiny database.
func tinyServeConfig() ServeConfig {
	cfg := DefaultServeConfig()
	cfg.Streams = 16
	cfg.QueriesPerStream = 3
	cfg.ArrivalRate = 20
	cfg.MPL = 4
	return cfg
}

func TestRunServeAllPolicies(t *testing.T) {
	for _, pol := range []Policy{LRU, MRU, Clock, PBM, PBMLRU, CScan} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			cfg := tinyServeConfig()
			cfg.Policy = pol
			res := RunServe(tinyDB, cfg)
			want := int64(cfg.Streams * cfg.QueriesPerStream)
			if res.Sched.Arrived != want {
				t.Fatalf("arrived %d, want %d", res.Sched.Arrived, want)
			}
			if res.Sched.Completed+res.Sched.Rejected != res.Sched.Arrived {
				t.Fatalf("accounting leak: %+v", res.Sched)
			}
			if res.Sched.Completed == 0 {
				t.Fatal("no queries completed")
			}
			if res.TotalIOBytes <= 0 {
				t.Fatal("no I/O recorded")
			}
			if res.Sched.Latency.P50 <= 0 || res.Sched.Exec.P50 <= 0 {
				t.Fatalf("missing latency accounting: %+v", res.Sched.Latency)
			}
			if res.Sched.Latency.P99 < res.Sched.Latency.P50 {
				t.Fatalf("p99 %v < p50 %v", res.Sched.Latency.P99, res.Sched.Latency.P50)
			}
			if res.Sched.Throughput <= 0 {
				t.Fatal("no throughput")
			}
		})
	}
}

// The sharded pool must stay deterministic, and the shard axis must be
// honored end to end: both shard counts serve the full workload with
// aggregated (summed-over-shards) pool counters.
func TestServeShardedPoolDeterministicAndAccounted(t *testing.T) {
	for _, shards := range []int{1, 4} {
		shards := shards
		run := func() *ServeResult {
			cfg := tinyServeConfig()
			cfg.Policy = PBM
			cfg.PoolShards = shards
			return RunServe(tinyDB, cfg)
		}
		a, b := run(), run()
		if a.Sched != b.Sched || a.TotalIOBytes != b.TotalIOBytes {
			t.Fatalf("shards=%d nondeterministic: %+v/%d vs %+v/%d",
				shards, a.Sched, a.TotalIOBytes, b.Sched, b.TotalIOBytes)
		}
		if a.PoolStats.Hits+a.PoolStats.Misses == 0 {
			t.Fatalf("shards=%d: empty aggregated pool stats", shards)
		}
		if a.PoolStats.BytesLoaded != a.TotalIOBytes {
			t.Fatalf("shards=%d: pool bytes %d != total I/O %d",
				shards, a.PoolStats.BytesLoaded, a.TotalIOBytes)
		}
	}
}

func TestServeOverloadShowsQueueing(t *testing.T) {
	light := tinyServeConfig()
	light.Policy = LRU
	light.ArrivalRate = 2 // well under capacity
	heavy := light
	heavy.ArrivalRate = 2000 // all queries arrive nearly at once
	rl := RunServe(tinyDB, light)
	rh := RunServe(tinyDB, heavy)
	if rh.Sched.QueueWait.P95 <= rl.Sched.QueueWait.P95 {
		t.Errorf("overload queue wait p95 %v <= light %v",
			rh.Sched.QueueWait.P95, rl.Sched.QueueWait.P95)
	}
	if rh.Sched.MaxQueueDepth <= rl.Sched.MaxQueueDepth {
		t.Errorf("overload queue depth %d <= light %d",
			rh.Sched.MaxQueueDepth, rl.Sched.MaxQueueDepth)
	}
}

func TestServeBoundedQueueRejectsUnderOverload(t *testing.T) {
	cfg := tinyServeConfig()
	cfg.Policy = LRU
	cfg.ArrivalRate = 5000
	cfg.MPL = 1
	cfg.QueueDepth = 2
	res := RunServe(tinyDB, cfg)
	if res.Sched.Rejected == 0 {
		t.Fatal("tight queue under overload rejected nothing")
	}
	if res.Sched.Completed+res.Sched.Rejected != res.Sched.Arrived {
		t.Fatalf("accounting leak: %+v", res.Sched)
	}
}

func TestServeSLOAttainmentResponds(t *testing.T) {
	cfg := tinyServeConfig()
	cfg.Policy = LRU
	cfg.ArrivalRate = 2000
	cfg.MPL = 2
	loose := cfg
	loose.SLO = time.Hour
	tight := cfg
	tight.SLO = time.Nanosecond
	rl := RunServe(tinyDB, loose)
	rt := RunServe(tinyDB, tight)
	if rl.Sched.SLOAttainment != 1 {
		t.Errorf("1-hour SLO attainment %v, want 1", rl.Sched.SLOAttainment)
	}
	if rt.Sched.SLOAttainment != 0 {
		t.Errorf("1-ns SLO attainment %v, want 0", rt.Sched.SLOAttainment)
	}
}

// Every admission policy must serve the full workload deterministically
// and report a per-tenant breakdown that reconciles with the aggregate.
func TestServeAdmissionPoliciesDeterministicAndAccounted(t *testing.T) {
	for _, adm := range []string{"fifo", "sesf", "wfq"} {
		adm := adm
		t.Run(adm, func(t *testing.T) {
			run := func() *ServeResult {
				cfg := tinyServeConfig()
				cfg.Policy = PBM
				cfg.AdmissionPolicy = adm
				cfg.ArrivalRate = 500 // saturates MPL 4: the policy really orders the queue
				cfg.Tenants = 4
				cfg.TenantWeights = []float64{4, 2, 1, 1}
				return RunServe(tinyDB, cfg)
			}
			a, b := run(), run()
			if a.Sched != b.Sched {
				t.Fatalf("nondeterministic under %s:\n%+v\n%+v", adm, a.Sched, b.Sched)
			}
			if !reflect.DeepEqual(a.Tenants, b.Tenants) {
				t.Fatalf("nondeterministic tenant stats under %s:\n%+v\n%+v", adm, a.Tenants, b.Tenants)
			}
			if len(a.Tenants) != 4 {
				t.Fatalf("tenant stats %+v, want 4 tenants", a.Tenants)
			}
			var sum int64
			for i, ts := range a.Tenants {
				if ts.Tenant != i {
					t.Fatalf("tenant stats out of order: %+v", a.Tenants)
				}
				sum += ts.Completed
			}
			if sum != a.Sched.Completed {
				t.Fatalf("per-tenant completions %d != aggregate %d", sum, a.Sched.Completed)
			}
			if a.Sched.Completed+a.Sched.Rejected != a.Sched.Arrived {
				t.Fatalf("accounting leak: %+v", a.Sched)
			}
		})
	}
}

// An explicitly named fifo policy must match the default (empty) policy
// bit for bit — the plumbing introduces no behavioral fork.
func TestServeExplicitFIFOMatchesDefault(t *testing.T) {
	cfg := tinyServeConfig()
	cfg.Policy = PBM
	def := RunServe(tinyDB, cfg)
	cfg.AdmissionPolicy = "fifo"
	named := RunServe(tinyDB, cfg)
	if def.Sched != named.Sched || def.TotalIOBytes != named.TotalIOBytes {
		t.Fatalf("explicit fifo diverged from default:\n%+v\n%+v", def.Sched, named.Sched)
	}
}

// Under saturation, wfq must tilt completed work toward the heavy
// tenant relative to its share under fifo.
func TestServeWFQFavorsWeightedTenant(t *testing.T) {
	base := tinyServeConfig()
	base.Policy = LRU
	base.ArrivalRate = 2000 // all queries arrive nearly at once
	base.MPL = 1
	base.QueueDepth = -1
	base.QueriesPerStream = 4
	base.Tenants = 2
	base.TenantWeights = []float64{8, 1}
	run := func(adm string) *ServeResult {
		cfg := base
		cfg.AdmissionPolicy = adm
		return RunServe(tinyDB, cfg)
	}
	fifo, wfq := run("fifo"), run("wfq")
	// Same workload completes either way; wfq just reorders admissions.
	if fifo.Sched.Completed != wfq.Sched.Completed {
		t.Fatalf("completions diverged: fifo %d, wfq %d", fifo.Sched.Completed, wfq.Sched.Completed)
	}
	// With everything queued at once behind MPL 1, the 8x tenant's tail
	// latency must improve over fifo's interleaved order, and must beat
	// the light tenant's tail within the wfq run.
	if wfq.Tenants[0].P95 >= fifo.Tenants[0].P95 {
		t.Fatalf("heavy tenant p95 under wfq %v >= fifo %v", wfq.Tenants[0].P95, fifo.Tenants[0].P95)
	}
	if wfq.Tenants[0].P95 >= wfq.Tenants[1].P95 {
		t.Fatalf("heavy tenant p95 %v >= light tenant %v under wfq", wfq.Tenants[0].P95, wfq.Tenants[1].P95)
	}
}

func TestServeHigherMPLAdmitsMoreConcurrently(t *testing.T) {
	// With everything arriving at once and a generous queue, a larger MPL
	// must strictly reduce time spent waiting for admission.
	cfg := tinyServeConfig()
	cfg.Policy = CScan
	cfg.ArrivalRate = 5000
	cfg.QueueDepth = -1
	cfg.MPL = 1
	r1 := RunServe(tinyDB, cfg)
	cfg.MPL = 16
	r16 := RunServe(tinyDB, cfg)
	if r16.Sched.QueueWait.Mean >= r1.Sched.QueueWait.Mean {
		t.Errorf("MPL 16 mean queue wait %v >= MPL 1 %v",
			r16.Sched.QueueWait.Mean, r1.Sched.QueueWait.Mean)
	}
	if r1.Sched.Completed != r16.Sched.Completed {
		t.Errorf("unbounded queue lost queries: %d vs %d",
			r1.Sched.Completed, r16.Sched.Completed)
	}
}

// TestServeRowOfLabels: every configuration label of a serve-table row
// comes from the ServeConfig that produced it, except an explicit tier.
func TestServeRowOfLabels(t *testing.T) {
	res := &ServeResult{}
	base := DefaultServeConfig()
	base.ArrivalRate = 20
	base.MPL = 4
	base.PoolShards = 8
	for _, c := range []struct {
		name   string
		mutate func(*ServeConfig)
		tier   string
		want   string
	}{
		{"defaults", func(*ServeConfig) {}, "",
			"rate=20 mpl=4 pol=PBM shards=8 devs=1 iosched=fifo tier=flat adm=fifo sel=1"},
		{"cscan-has-no-pool", func(c *ServeConfig) { c.Policy = CScan }, "",
			"rate=20 mpl=4 pol=CScans shards=0 devs=1 iosched=fifo tier=flat adm=fifo sel=1"},
		{"named-axes", func(c *ServeConfig) {
			c.Devices, c.IOScheduler, c.AdmissionPolicy = 4, "elevator", "wfq"
		}, "", "rate=20 mpl=4 pol=PBM shards=8 devs=4 iosched=elevator tier=flat adm=wfq sel=1"},
		{"fast-tier", func(c *ServeConfig) { c.Devices, c.FastDevices = 4, 2 }, "",
			"rate=20 mpl=4 pol=PBM shards=8 devs=4 iosched=fifo tier=tiered-rr adm=fifo sel=1"},
		{"explicit-tier", func(c *ServeConfig) { c.Devices, c.FastDevices = 4, 2 }, "tiered-temp",
			"rate=20 mpl=4 pol=PBM shards=8 devs=4 iosched=fifo tier=tiered-temp adm=fifo sel=1"},
		{"one-selectivity", func(c *ServeConfig) { c.Selectivities = []float64{0.01} }, "",
			"rate=20 mpl=4 pol=PBM shards=8 devs=1 iosched=fifo tier=flat adm=fifo sel=0.01"},
	} {
		cfg := base
		c.mutate(&cfg)
		r := ServeRowOf(res, cfg, c.tier)
		got := fmt.Sprintf("rate=%g mpl=%d pol=%s shards=%d devs=%d iosched=%s tier=%s adm=%s sel=%v",
			r.Rate, r.MPL, r.Policy, r.Shards, r.Devices, r.IOSched, r.Tier, r.Admission, r.Selectivity)
		if got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}
