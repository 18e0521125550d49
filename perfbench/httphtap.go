package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/tpch"
	"repro/internal/workload"
	"repro/wire"
)

// Closed-loop load of http-htap.
const (
	htapConns      = 2
	htapReadFrac   = 0.8
	htapWindowFrac = 0.02 // a read scans this share of lineitem's rows
	htapCkptOps    = 64
	reqHeader      = "X-Perfbench-Req" // links server spans to client spans
	scanColumns    = 7                 // columns of a "scan" row
)

// htapLoad is one client's measurements.
type htapLoad struct {
	reads, ttfb, stream, writes, apply, qwait sample
	ops, failed, attempted                    int64
	bytes                                     int64
	streamSec                                 float64
	problems                                  []string
}

// fail records a failed request. A failure during warm-up fails the run
// but is not counted against the measured window.
func (l *htapLoad) fail(measured bool, problem string) {
	if measured {
		l.attempted++
		l.failed++
	}
	if len(l.problems) < 5 {
		l.problems = append(l.problems, problem)
	}
}

// runHTTPHTAP serves the scanserved handler on a loopback listener and
// drives it with a closed loop over keep-alive connections: 80% of
// requests stream a random 2% RID window of lineitem as NDJSON, 20% are
// update batches of 1–4 operations, and the engine checkpoints every 64
// committed operations. An operation is one request; p50_ms is read
// latency as the client sees it.
func runHTTPHTAP(r *run) (*outcome, error) {
	out := &outcome{}
	var srv *server.Server
	var gens, news sample
	for i := 0; i < r.setups; i++ {
		if srv != nil {
			srv.Close()
		}
		srv = nil
		runtime.GC()
		t0 := time.Now()
		var db *tpch.DB
		sp := r.tr.start("tpch.generate", 0, 0)
		gens = append(gens, timed(func() { db = tpch.Generate(r.sf, r.seed) }))
		r.tr.end(sp)
		cfg := workload.DefaultServeConfig()
		cfg.Seed = r.seed
		cfg.CheckpointOps = htapCkptOps
		sp = r.tr.start("workload.engine_new", 0, 0)
		news = append(news, timed(func() { srv = server.New(db, server.Config{Serve: cfg}) }))
		r.tr.end(sp)
		out.setups = append(out.setups, time.Since(t0).Seconds())
	}
	r.set("tpch.generate_s", gens.median())
	r.set("workload.engine_new_s", news.median())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var handle sample
	var handleMu sync.Mutex
	inner := srv.Handler()
	hs := &http.Server{
		ConnContext: srv.ConnContext,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			t := time.Now()
			inner.ServeHTTP(w, req)
			end := time.Now()
			id, _ := strconv.ParseInt(req.Header.Get(reqHeader+"-Span"), 10, 64)
			rq, _ := strconv.ParseInt(req.Header.Get(reqHeader), 10, 64)
			r.tr.record("server.handle", rq, id, t, end)
			handleMu.Lock()
			handle = append(handle, ms(end.Sub(t)))
			handleMu.Unlock()
		}),
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	en := srv.Engine()
	n := en.NumTuples()

	conns := min(htapConns, runtime.NumCPU())
	stopRSS := watchRSS()
	begin := time.Now()
	measureAt := begin.Add(time.Duration(r.warmup * float64(time.Second)))
	stopAt := measureAt.Add(time.Duration(r.seconds * float64(time.Second)))
	loads := make([]*htapLoad, conns)
	var before *workload.ServeResult
	var cpu0 float64
	var startOnce sync.Once
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		loads[c] = &htapLoad{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer cl.CloseIdleConnections()
			rng := rand.New(rand.NewSource(r.seed*1000003 + int64(c)))
			for seq := int64(0); ; seq++ {
				now := time.Now()
				if now.After(stopAt) {
					return
				}
				measured := !now.Before(measureAt)
				if measured {
					startOnce.Do(func() { before, cpu0 = en.Stats(), cpuSeconds() })
				}
				req := int64(c)<<40 + seq + 1
				if rng.Float64() < htapReadFrac {
					w := int64(float64(n) * htapWindowFrac)
					lo := rng.Int63n(n - w)
					htapRead(r, cl, base, req, lo, lo+w, loads[c], measured)
				} else {
					htapWrite(r, cl, base, req, rng, loads[c], measured)
				}
			}
		}(c)
	}
	wg.Wait()
	end := time.Now()
	out.cpu = cpuSeconds() - cpu0
	out.rss = stopRSS()
	after := en.Stats()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drainErr := srv.Drain(ctx)
	shutErr := hs.Shutdown(ctx)
	if err := <-served; err != http.ErrServerClosed {
		return nil, fmt.Errorf("http-htap: serve: %v", err)
	}
	srv.Close()
	if drainErr != nil || shutErr != nil {
		return nil, fmt.Errorf("http-htap: drain: %v, shutdown: %v", drainErr, shutErr)
	}

	all := &htapLoad{}
	for _, l := range loads {
		all.reads = append(all.reads, l.reads...)
		all.ttfb = append(all.ttfb, l.ttfb...)
		all.stream = append(all.stream, l.stream...)
		all.writes = append(all.writes, l.writes...)
		all.apply = append(all.apply, l.apply...)
		all.qwait = append(all.qwait, l.qwait...)
		all.ops += l.ops
		all.failed += l.failed
		all.attempted += l.attempted
		all.bytes += l.bytes
		all.streamSec += l.streamSec
		for _, p := range l.problems {
			r.problem("%s", p)
		}
	}
	r.attempted, r.failed = all.attempted, all.failed
	if all.ops == 0 || len(all.reads) == 0 {
		return nil, fmt.Errorf("http-htap: no request completed")
	}
	out.ops = all.ops
	out.wall = end.Sub(measureAt).Seconds()
	out.lat = all.reads
	out.measured = measureAt

	r.setPct("e2e.p99_ms", all.reads, 0.99)
	met := 0
	for _, s := range [...]sample{all.reads, all.writes} {
		for _, v := range s {
			if v <= ms(serveSLO) {
				met++
			}
		}
	}
	r.set("e2e.slo_frac", float64(met)/float64(all.attempted))
	r.set("e2e.fail_frac", float64(all.failed)/float64(all.attempted))
	r.setPct("client.ttfb_ms.p50", all.ttfb, 0.5)
	r.setPct("client.ttfb_ms.p99", all.ttfb, 0.99)
	r.setPct("client.write_ms.p50", all.writes, 0.5)
	r.setPct("client.write_ms.p99", all.writes, 0.99)
	r.setPct("server.handle_ms.p50", handle, 0.5)
	r.setPct("server.queue_wait_ms.p99", all.qwait, 0.99)
	r.setPct("sched.admit_wait_ms.p50", all.qwait, 0.5)
	r.setPct("sched.admit_wait_ms.p99", all.qwait, 0.99)
	r.setPct("wire.stream_ms.p50", all.stream, 0.5)
	r.set("wire.mb_per_s", float64(all.bytes)/1e6/all.streamSec)
	r.setPct("pdt.apply_ms.p50", all.apply, 0.5)
	r.setPct("pdt.apply_ms.p99", all.apply, 0.99)
	r.set("workload.checkpoints", float64(after.Checkpoints-before.Checkpoints))
	r.set("workload.merge_p95_ms", ms(after.MergeP95))
	r.set("sched.max_queue", float64(after.Sched.MaxQueueDepth))
	poolStats(r, before, after, out.wall)
	return out, nil
}

// post sends one JSON request, tagging it with the request id and the
// client span id so the server-side span can name its parent.
func post(cl *http.Client, url string, req, parent int64, body any) (*http.Response, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	hr.Header.Set(reqHeader+"-Span", strconv.FormatInt(parent, 10))
	return cl.Do(hr)
}

// htapRead streams one RID-window scan and checks it: every row has the
// scan schema's column count, and the trailer's row count matches the
// rows received.
func htapRead(r *run, cl *http.Client, base string, req, lo, hi int64, l *htapLoad, measured bool) {
	t0 := time.Now()
	root := r.tr.start("client.read", req, 0)
	defer r.tr.end(root)
	failed := func(format string, args ...any) {
		l.fail(measured, fmt.Sprintf(format, args...))
	}
	resp, err := post(cl, base+wire.PathQuery, req, root.ID, wire.QueryRequest{Kind: wire.KindScan, Lo: lo, Hi: hi})
	if err != nil {
		failed("read [%d,%d): %v", lo, hi, err)
		return
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	first, err := br.Peek(1)
	if err != nil || len(first) == 0 || resp.StatusCode != http.StatusOK {
		failed("read [%d,%d): status %d, %v", lo, hi, resp.StatusCode, err)
		return
	}
	t1 := time.Now()
	sp := r.tr.start("wire.stream", req, root.ID)
	var rows, nbytes int64
	var trailer wire.QueryResult
	gotTrailer := false
	for {
		line, err := br.ReadSlice('\n')
		nbytes += int64(len(line))
		if err == io.EOF && len(line) == 0 {
			break
		}
		if err != nil && err != io.EOF {
			r.tr.end(sp)
			failed("read [%d,%d): body: %v", lo, hi, err)
			return
		}
		switch {
		case len(line) > 0 && line[0] == '[':
			if cols := columns(line); cols != scanColumns {
				r.tr.end(sp)
				failed("read [%d,%d): row with %d columns, want %d", lo, hi, cols, scanColumns)
				return
			}
			rows++
		case len(line) > 0 && line[0] == '{':
			if err := json.Unmarshal(line, &trailer); err != nil {
				r.tr.end(sp)
				failed("read [%d,%d): trailer: %v", lo, hi, err)
				return
			}
			gotTrailer = true
		}
		if err == io.EOF {
			break
		}
	}
	r.tr.end(sp)
	t2 := time.Now()
	switch {
	case !gotTrailer:
		failed("read [%d,%d): no trailer", lo, hi)
		return
	case trailer.Outcome != wire.OutcomeOK:
		failed("read [%d,%d): outcome %s", lo, hi, trailer.Outcome)
		return
	case trailer.Rows != rows:
		failed("read [%d,%d): received %d rows, trailer says %d", lo, hi, rows, trailer.Rows)
		return
	}
	if !measured {
		return
	}
	l.attempted++
	l.ops++
	l.reads = append(l.reads, ms(t2.Sub(t0)))
	l.ttfb = append(l.ttfb, ms(t1.Sub(t0)))
	l.stream = append(l.stream, ms(t2.Sub(t1)))
	l.qwait = append(l.qwait, trailer.QueueWaitMS)
	l.bytes += nbytes
	l.streamSec += t2.Sub(t1).Seconds()
}

// columns counts the elements of one NDJSON row array.
func columns(line []byte) int {
	n, inStr, esc := 1, false, false
	for _, b := range line[1:] {
		switch {
		case esc:
			esc = false
		case inStr && b == '\\':
			esc = true
		case b == '"':
			inStr = !inStr
		case !inStr && b == ',':
			n++
		}
	}
	return n
}

// updateKinds weighs insert:delete:modify 1:1:2, the engine's default
// update mix.
var updateKinds = []string{wire.KindInsert, wire.KindDelete, wire.KindModify, wire.KindModify}

// htapWrite posts one update batch and checks that all of it applied.
func htapWrite(r *run, cl *http.Client, base string, req int64, rng *rand.Rand, l *htapLoad, measured bool) {
	batch := 1 + rng.Intn(4)
	kind := updateKinds[rng.Intn(len(updateKinds))]
	t0 := time.Now()
	root := r.tr.start("client.write", req, 0)
	resp, err := post(cl, base+wire.PathUpdate, req, root.ID, wire.UpdateRequest{Kind: kind, Batch: batch})
	var res wire.UpdateResult
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
	}
	r.tr.end(root)
	lat := time.Since(t0)
	if err != nil || res.Outcome != wire.OutcomeOK || res.Applied != batch {
		l.fail(measured, fmt.Sprintf("%s batch %d: applied %d, outcome %q, err %v", kind, batch, res.Applied, res.Outcome, err))
		return
	}
	if !measured {
		return
	}
	l.attempted++
	l.ops++
	l.writes = append(l.writes, ms(lat))
	l.apply = append(l.apply, res.LatencyMS-res.QueueWaitMS)
	l.qwait = append(l.qwait, res.QueueWaitMS)
}
