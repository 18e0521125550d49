package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/sched"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// Open-loop load of serve-shared.
const (
	serveClients = 16
	serveRate    = 48.0 // queries per second, all clients together
	serveSLO     = 250 * time.Millisecond
	checkEvery   = 16 // every checkEvery-th query's answer is checked
)

// rangePercents is the deck of range sizes, in percent of lineitem: the
// paper's micro mix {1,10,50,100} with 10% dealt twice. With the four
// sizes equally likely, half the queries are small and half large, so
// the median falls in the gap between the 10% and 50% latencies and
// jumps from run to run; the second 10% card puts it inside one class.
var rangePercents = []int{1, 10, 10, 50, 100}

// serveConfig is the engine serve-shared runs: PBM, MPL 8, the default
// admission queue, fifo admission, 4 tenants and one device.
func serveConfig(seed int64) workload.ServeConfig {
	cfg := workload.DefaultServeConfig()
	cfg.Policy = workload.PBM
	cfg.MPL = 8
	cfg.AdmissionPolicy = "fifo"
	cfg.Tenants = 4
	cfg.Devices = 1
	cfg.Seed = seed
	return cfg
}

// serveQuery is one generated request and what became of it.
type serveQuery struct {
	client, seq int
	at          time.Duration // due time, from the start of the load
	due         time.Time
	q1          bool
	rng         exec.RIDRange
	measured    bool // due inside the measured window

	ok                 bool
	lat, late          time.Duration
	price, admit, plan time.Duration
	open, exec         time.Duration
	answer             []answerRow // kept for checked queries
}

func (q *serveQuery) kind() string {
	if q.q1 {
		return "q1"
	}
	return "q6"
}

// answerRow is one row of a q1 (group, sums, count) or q6 (sum) answer.
type answerRow struct {
	group string
	sums  []float64
	count int64
}

// runServeShared drives an in-process ServeEngine on the real runtime
// through the calls the HTTP server makes (Price, Admit, BuildPlan, plan
// Open/Next/Close, Ticket.Done). 16 clients send q1/q6 over random
// ranges of lineitem at 48 q/s in total (see planServe), and each query
// is timed from when it was due. An operation is one completed query.
func runServeShared(r *run) (*outcome, error) {
	out := &outcome{}
	var db *tpch.DB
	var en *workload.ServeEngine
	var gens, news sample
	for i := 0; i < r.setups; i++ {
		if en != nil {
			en.Close()
		}
		db, en = nil, nil
		runtime.GC()
		t0 := time.Now()
		sp := r.tr.start("tpch.generate", 0, 0)
		gens = append(gens, timed(func() { db = tpch.Generate(r.sf, r.seed) }))
		r.tr.end(sp)
		sp = r.tr.start("workload.engine_new", 0, 0)
		news = append(news, timed(func() { en = workload.NewServeEngine(db, serveConfig(r.seed)) }))
		r.tr.end(sp)
		out.setups = append(out.setups, time.Since(t0).Seconds())
	}
	defer en.Close()
	r.set("tpch.generate_s", gens.median())
	r.set("workload.engine_new_s", news.median())

	qs := planServe(r, en.NumTuples())
	stopRSS := watchRSS()
	begin := time.Now()
	for _, q := range qs {
		q.due = begin.Add(q.at)
	}
	measureAt := begin.Add(time.Duration(r.warmup * float64(time.Second)))

	var before *workload.ServeResult
	var cpu0 float64
	var startOnce sync.Once
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		mine := make([]*serveQuery, 0, len(qs)/serveClients+1)
		for _, q := range qs {
			if q.client == c {
				mine = append(mine, q)
			}
		}
		wg.Add(1)
		go func(mine []*serveQuery) {
			defer wg.Done()
			var inflight sync.WaitGroup
			for _, q := range mine {
				time.Sleep(time.Until(q.due))
				if q.measured {
					startOnce.Do(func() { before, cpu0 = en.Stats(), cpuSeconds() })
				}
				inflight.Add(1)
				go func(q *serveQuery) {
					defer inflight.Done()
					serveOne(r, en, q)
				}(q)
			}
			inflight.Wait()
		}(mine)
	}
	wg.Wait()
	out.cpu = cpuSeconds() - cpu0
	out.rss = stopRSS()
	after := en.Stats()
	out.measured = measureAt
	checkAnswers(db, qs, r.problem)

	var lat, late, price, admit, plan, open, execT sample
	var tuples float64
	var okN, sloN, attempted int64
	last := measureAt
	for _, q := range qs {
		if !q.measured {
			continue
		}
		attempted++
		l := math.Inf(1)
		if q.ok {
			okN++
			l = ms(q.lat)
			if q.lat <= serveSLO {
				sloN++
			}
			price = append(price, float64(q.price.Microseconds()))
			admit = append(admit, ms(q.admit))
			plan = append(plan, float64(q.plan.Microseconds()))
			open = append(open, ms(q.open))
			execT = append(execT, ms(q.exec))
			tuples += float64(q.rng.Hi - q.rng.Lo)
			if done := q.due.Add(q.lat); done.After(last) {
				last = done
			}
		}
		lat = append(lat, l)
		late = append(late, ms(q.late))
	}
	r.attempted, r.failed = attempted, attempted-okN
	if okN == 0 {
		return nil, fmt.Errorf("serve-shared: no query completed")
	}
	out.ops = okN
	out.wall = last.Sub(measureAt).Seconds()
	out.lat = lat

	r.setPct("e2e.p99_ms", lat, 0.99)
	r.set("e2e.slo_frac", float64(sloN)/float64(attempted))
	r.set("e2e.fail_frac", float64(r.failed)/float64(attempted))
	r.setPct("gen.late_ms.p99", late, 0.99)
	r.setPct("sched.price_us.p50", price, 0.5)
	r.setPct("sched.admit_wait_ms.p50", admit, 0.5)
	r.setPct("sched.admit_wait_ms.p99", admit, 0.99)
	r.set("sched.max_queue", float64(after.Sched.MaxQueueDepth))
	r.setPct("workload.build_plan_us.p50", plan, 0.5)
	r.setPct("exec.open_ms.p50", open, 0.5)
	r.setPct("exec.run_ms.p50", execT, 0.5)
	r.setPct("exec.run_ms.p99", execT, 0.99)
	r.set("exec.tuples_per_cpu_s", tuples/out.cpu)
	poolStats(r, before, after, out.wall)
	return out, nil
}

// poolStats records the buffer and device deltas over the measured
// window.
func poolStats(r *run, before, after *workload.ServeResult, wall float64) {
	hits := after.PoolStats.Hits - before.PoolStats.Hits
	misses := after.PoolStats.Misses - before.PoolStats.Misses
	r.set("buffer.hit_rate", hitRate(hits, misses))
	r.set("buffer.stalls", float64(after.PoolStats.Stalls-before.PoolStats.Stalls))
	r.set("iosim.read_mb", float64(after.DiskStats.BytesRead-before.DiskStats.BytesRead)/1e6)
	r.set("iosim.busy_frac", (after.DiskStats.BusyTime-before.DiskStats.BusyTime).Seconds()/wall)
	r.set("iosim.max_queue", float64(after.DiskStats.MaxQueueLen))
}

// planServe draws the whole schedule up front from the seed. Each
// client sends exactly its share of the rate in the warm-up and in the
// measured window, at uniformly random times — a Poisson process
// conditioned on its count — and deals its queries' (kind, range size)
// pairs from shuffled decks holding each pair once, so the amount of
// work does not vary from seed to seed. Range positions are uniform.
func planServe(r *run, n int64) []*serveQuery {
	windows := [][2]float64{{0, r.warmup}, {r.warmup, r.warmup + r.seconds}}
	var qs []*serveQuery
	for c := 0; c < serveClients; c++ {
		rng := rand.New(rand.NewSource(r.seed*1000003 + int64(c)))
		for wi, win := range windows {
			count := int(math.Round(serveRate / serveClients * (win[1] - win[0])))
			var deck []int
			for i := 0; i < count; i++ {
				if len(deck) == 0 {
					deck = rng.Perm(2 * len(rangePercents))
				}
				pair := deck[0]
				deck = deck[1:]
				at := win[0] + rng.Float64()*(win[1]-win[0])
				qs = append(qs, &serveQuery{
					client:   c,
					at:       time.Duration(at * float64(time.Second)),
					q1:       pair%2 == 0,
					rng:      workload.RandRange(rng, n, rangePercents[pair/2], 0, 0),
					measured: wi == 1,
				})
			}
		}
	}
	sort.SliceStable(qs, func(i, j int) bool { return qs[i].at < qs[j].at })
	for i, q := range qs {
		q.seq = i
	}
	return qs
}

// serveOne runs one query through the engine the way the server does.
func serveOne(r *run, en *workload.ServeEngine, q *serveQuery) {
	start := time.Now()
	q.late = start.Sub(q.due)
	req := int64(q.seq + 1)
	root := r.tr.start("gen.query", req, 0)
	defer r.tr.end(root)

	sp := r.tr.start("sched.price", req, root.ID)
	cost := en.Price(q.rng, nil)
	r.tr.end(sp)
	t := time.Now()
	q.price = t.Sub(start)

	qc := en.NewQueryCtx()
	sp = r.tr.start("sched.admit", req, root.ID)
	tk, outcome := en.Admit(sched.Query{Stream: q.client, Seq: q.seq, Tenant: q.client % 4, Cost: cost, Ctx: qc})
	r.tr.end(sp)
	q.admit = time.Since(t)
	if outcome != sched.AdmitGranted {
		return
	}

	t = time.Now()
	sp = r.tr.start("workload.build_plan", req, root.ID)
	plan, err := en.BuildPlan(qc, q.kind(), q.rng, nil)
	r.tr.end(sp)
	q.plan = time.Since(t)
	if err != nil {
		tk.Done()
		return
	}

	t = time.Now()
	sp = r.tr.start("exec.open", req, root.ID)
	plan.Open()
	r.tr.end(sp)
	q.open = time.Since(t)

	t = time.Now()
	keep := q.seq%checkEvery == 0
	sp = r.tr.start("exec.run", req, root.ID)
	for b := plan.Next(); b != nil; b = plan.Next() {
		if keep {
			q.answer = append(q.answer, answerRows(b, q.q1)...)
		}
	}
	r.tr.end(sp)
	q.exec = time.Since(t)

	sp = r.tr.start("exec.close", req, root.ID)
	plan.Close()
	r.tr.end(sp)
	sp = r.tr.start("sched.done", req, root.ID)
	tk.Done()
	r.tr.end(sp)
	q.ok = true
	q.lat = time.Since(q.due)
}

// answerRows copies a q1 or q6 result batch.
func answerRows(b *exec.Batch, q1 bool) []answerRow {
	rows := make([]answerRow, b.N)
	for i := range rows {
		if !q1 {
			rows[i].sums = []float64{b.Vecs[0].F64[i]}
			continue
		}
		rows[i].group = b.Vecs[0].Str[i] + "|" + b.Vecs[1].Str[i]
		for c := 2; c <= 5; c++ {
			rows[i].sums = append(rows[i].sums, b.Vecs[c].F64[i])
		}
		rows[i].count = b.Vecs[9].I64[i]
	}
	return rows
}

// checkAnswers recomputes every checked query's answer with a plain
// loop over the generated lineitem columns. A wrong answer fails the
// query.
func checkAnswers(db *tpch.DB, qs []*serveQuery, problem func(string, ...any)) {
	snap := db.Snapshot("lineitem")
	n := snap.NumTuples()
	col := func(name string) int { return db.Col("lineitem", name) }
	flag := snap.ReadString(col("l_returnflag"), 0, n, nil)
	status := snap.ReadString(col("l_linestatus"), 0, n, nil)
	qty := snap.ReadFloat64(col("l_quantity"), 0, n, nil)
	price := snap.ReadFloat64(col("l_extendedprice"), 0, n, nil)
	disc := snap.ReadFloat64(col("l_discount"), 0, n, nil)
	tax := snap.ReadFloat64(col("l_tax"), 0, n, nil)
	ship := snap.ReadInt64(col("l_shipdate"), 0, n, nil)
	q6Lo, q6Hi := tpch.Date(1994, 1, 1), tpch.Date(1995, 1, 1)-1

	for _, q := range qs {
		if !q.ok || q.seq%checkEvery != 0 {
			continue
		}
		want := map[string]*answerRow{}
		for i := q.rng.Lo; i < q.rng.Hi; i++ {
			if q.q1 {
				if ship[i] > tpch.DateMax-90 {
					continue
				}
				g := flag[i] + "|" + status[i]
				a := want[g]
				if a == nil {
					a = &answerRow{group: g, sums: make([]float64, 4)}
					want[g] = a
				}
				d := price[i] * (1 - disc[i])
				a.sums[0] += qty[i]
				a.sums[1] += price[i]
				a.sums[2] += d
				a.sums[3] += d * (1 + tax[i])
				a.count++
			} else if ship[i] >= q6Lo && ship[i] <= q6Hi && disc[i] >= 0.05 && disc[i] <= 0.07 && qty[i] < 24 {
				a := want[""]
				if a == nil {
					a = &answerRow{sums: make([]float64, 1)}
					want[""] = a
				}
				a.sums[0] += price[i] * disc[i]
			}
		}
		if msg := compareAnswer(q.answer, want); msg != "" {
			q.ok = false
			problem("query %d (%s over [%d,%d)): %s", q.seq, q.kind(), q.rng.Lo, q.rng.Hi, msg)
		}
	}
}

// compareAnswer matches got against want, sums to a relative 1e-9 (the
// engine adds in a different order) and counts exactly. A q6 over rows
// none of which qualify may answer with no row or with a zero sum.
func compareAnswer(got []answerRow, want map[string]*answerRow) string {
	seen := map[string]bool{}
	for _, g := range got {
		w := want[g.group]
		if w == nil {
			if g.group == "" && len(g.sums) == 1 && g.sums[0] == 0 {
				continue
			}
			return fmt.Sprintf("unexpected group %q", g.group)
		}
		seen[g.group] = true
		if g.count != w.count {
			return fmt.Sprintf("group %q count %d, want %d", g.group, g.count, w.count)
		}
		for i := range w.sums {
			if d := math.Abs(g.sums[i] - w.sums[i]); d > 1e-9*math.Max(1, math.Abs(w.sums[i])) {
				return fmt.Sprintf("group %q sum %d = %.12g, want %.12g", g.group, i, g.sums[i], w.sums[i])
			}
		}
	}
	for g := range want {
		if !seen[g] {
			return fmt.Sprintf("missing group %q", g)
		}
	}
	return ""
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
