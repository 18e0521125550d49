package main

import (
	"runtime"
	"time"

	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/workload"
)

var tpchPolicies = []struct {
	key    string
	policy workload.Policy
}{{"lru", workload.LRU}, {"pbm", workload.PBM}, {"cscan", workload.CScan}}

// runTPCHSim is the paper's §4.2 TPC-H throughput run on the
// deterministic simulator: 8 streams × 22 queries, buffer 30% of the
// accessed volume, 600 MB/s, once each under LRU, PBM and Cooperative
// Scans, then Belady's OPT replayed on the PBM trace. One round does all
// four; rounds repeat until the measured time is up. An operation is one
// simulated query; each policy run gives one latency sample, its wall
// time per query.
func runTPCHSim(r *run) (*outcome, error) {
	out := &outcome{}
	var db *tpch.DB
	for i := 0; i < r.setups; i++ {
		db = nil
		runtime.GC()
		sp := r.tr.start("tpch.generate", 0, 0)
		out.setups = append(out.setups, timed(func() { db = tpch.Generate(r.sf, r.seed) }))
		r.tr.end(sp)
	}
	r.set("tpch.generate_s", out.setups.median())

	cfg := workload.DefaultTPCHConfig()
	cfg.Seed = r.seed
	queries := int64(cfg.Streams * len(tpch.Queries()))
	tuples := float64(cfg.Streams) * scannedTuples(db)

	var first map[string]*workload.Result
	var firstOPT int64
	runS := map[string]sample{}
	var optS sample
	var runCPU float64
	stopRSS := watchRSS()
	out.measured = time.Now()
	cpu0 := cpuSeconds()
	for round := int64(0); round == 0 || time.Since(out.measured).Seconds() < r.seconds; round++ {
		// Each round starts from a collected heap, so its peak resident
		// set does not depend on where the previous round left the
		// collector.
		runtime.GC()
		root := r.tr.start("bench.round", round, 0)
		res := map[string]*workload.Result{}
		for _, p := range tpchPolicies {
			c := cfg
			c.Policy = p.policy
			c.TraceForOPT = p.policy == workload.PBM
			sp := r.tr.start("workload.run."+p.key, round, root.ID)
			c0 := cpuSeconds()
			sec := timed(func() { res[p.key] = workload.RunTPCH(db, c) })
			runCPU += cpuSeconds() - c0
			runS[p.key] = append(runS[p.key], sec)
			out.lat = append(out.lat, sec*1e3/float64(queries))
			r.tr.end(sp)
			r.attempted += queries
			out.ops += queries
		}
		pbm := res["pbm"]
		var o opt.Result
		sp := r.tr.start("opt.replay", round, root.ID)
		optS = append(optS, timed(func() { o = opt.Simulate(pbm.Trace, pbm.BufferBytes) }))
		r.tr.end(sp)
		pbm.Trace = nil
		r.tr.end(root)

		if first == nil {
			first, firstOPT = res, o.BytesLoaded
			for _, k := range []string{"lru", "pbm"} {
				if o.BytesLoaded > res[k].TotalIOBytes {
					r.failed += queries
					r.problem("OPT I/O %d bytes exceeds %s I/O %d bytes", o.BytesLoaded, k, res[k].TotalIOBytes)
				}
			}
			continue
		}
		// The simulator is deterministic: every round must reproduce the
		// first one's virtual outcome exactly.
		for _, p := range tpchPolicies {
			a, b := first[p.key], res[p.key]
			if a.TotalIOBytes != b.TotalIOBytes || a.AvgStreamSec != b.AvgStreamSec || a.PoolStats != b.PoolStats || a.ABMStats != b.ABMStats {
				r.failed += queries
				r.problem("round %d %s differs from round 0: io %d vs %d bytes, stream %.9gs vs %.9gs",
					round, p.key, b.TotalIOBytes, a.TotalIOBytes, b.AvgStreamSec, a.AvgStreamSec)
			}
		}
		if o.BytesLoaded != firstOPT {
			r.failed += queries
			r.problem("round %d OPT I/O %d bytes differs from round 0's %d", round, o.BytesLoaded, firstOPT)
		}
	}
	out.wall = time.Since(out.measured).Seconds()
	out.cpu = cpuSeconds() - cpu0
	out.rss = stopRSS()

	for _, p := range tpchPolicies {
		res := first[p.key]
		r.set("workload.run_s."+p.key, runS[p.key].median())
		r.set("io_mb."+p.key, float64(res.TotalIOBytes)/1e6)
		r.set("stream_s."+p.key, res.AvgStreamSec)
		r.set("iosim.requests."+p.key, float64(res.DiskStats.Requests))
		r.set("iosim.seeks."+p.key, float64(res.DiskStats.Seeks))
		r.set("iosim.busy_s."+p.key, res.DiskStats.BusyTime.Seconds())
	}
	r.set("buffer.hit_rate.lru", hitRate(first["lru"].PoolStats.Hits, first["lru"].PoolStats.Misses))
	r.set("buffer.hit_rate.pbm", hitRate(first["pbm"].PoolStats.Hits, first["pbm"].PoolStats.Misses))
	r.set("buffer.evictions.pbm", float64(first["pbm"].PoolStats.Evictions))
	r.set("buffer.stalls.pbm", float64(first["pbm"].PoolStats.Stalls))
	r.set("abm.chunks_loaded", float64(first["cscan"].ABMStats.ChunksLoaded))
	r.set("abm.blocked_loads", float64(first["cscan"].ABMStats.BlockedLoads))
	r.set("opt.replay_s", optS.median())
	r.set("opt.io_mb", float64(firstOPT)/1e6)
	r.set("exec.tuples_per_cpu_s", tuples*float64(len(optS)*len(tpchPolicies))/runCPU)
	return out, nil
}

func hitRate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// scannedTuples counts the base-table tuples one pass over the 22
// queries scans, by building every plan over scans that read nothing.
func scannedTuples(db *tpch.DB) float64 {
	var total int64
	count := func(table string, cols []string, ranges []exec.RIDRange, inOrder bool) exec.Op {
		snap := db.Snapshot(table)
		if ranges == nil {
			total += snap.NumTuples()
		}
		for _, rg := range ranges {
			total += rg.Hi - rg.Lo
		}
		types := make([]storage.ColumnType, len(cols))
		for i, c := range cols {
			types[i] = snap.Table().Schema[db.Col(table, c)].Type
		}
		return emptyScan(types)
	}
	for _, plan := range tpch.Queries() {
		op := plan(db, count)
		op.Open()
		op.Close()
	}
	return float64(total)
}

// emptyScan is a relation with a schema and no rows.
type emptyScan []storage.ColumnType

func (emptyScan) Open()                          {}
func (emptyScan) Next() *exec.Batch              { return nil }
func (emptyScan) Close()                         {}
func (e emptyScan) Schema() []storage.ColumnType { return e }
