package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pdt"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/workload"
	"repro/wire"
)

var (
	dbOnce sync.Once
	testDB *tpch.DB
)

// db generates one small TPC-H instance shared by every test; each test
// builds its own Server (and engine) over it.
func db() *tpch.DB {
	dbOnce.Do(func() { testDB = tpch.Generate(0.01, 1) })
	return testDB
}

func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{Serve: workload.DefaultServeConfig()}
	if mutate != nil {
		mutate(&cfg)
	}
	srv := New(db(), cfg)
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ConnContext = srv.ConnContext
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// postQuery sends one query and splits the NDJSON response into its row
// lines and trailer.
func postQuery(t *testing.T, ts *httptest.Server, body string) (rows []string, trailer wire.QueryResult) {
	t.Helper()
	resp, err := http.Post(ts.URL+wire.PathQuery, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("Content-Type"); got != wire.ContentTypeNDJSON {
		t.Errorf("Content-Type = %q, want %q", got, wire.ContentTypeNDJSON)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	sawTrailer := false
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if line[0] == '[' {
			if sawTrailer {
				t.Fatal("row line after trailer")
			}
			rows = append(rows, line)
			continue
		}
		if sawTrailer {
			t.Fatal("second trailer line")
		}
		sawTrailer = true
		if err := json.Unmarshal([]byte(line), &trailer); err != nil {
			t.Fatalf("trailer %q: %v", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read body: %v", err)
	}
	if !sawTrailer {
		t.Fatal("no trailer line")
	}
	return rows, trailer
}

// TestQueryRoundTrip: the q1/q6 aggregations and a predicated scan over
// the wire, with exact outcome reconciliation on the server stats.
func TestQueryRoundTrip(t *testing.T) {
	srv, ts := newTestServer(t, nil)

	_, tr := postQuery(t, ts, `{"Kind":"q6"}`)
	if tr.Outcome != wire.OutcomeOK || tr.Rows == 0 {
		t.Errorf("q6 trailer = %+v, want ok with rows", tr)
	}
	if tr.LatencyMS <= 0 || tr.LatencyMS < tr.QueueWaitMS {
		t.Errorf("q6 latency %.3fms / queue wait %.3fms implausible", tr.LatencyMS, tr.QueueWaitMS)
	}

	rows, tr := postQuery(t, ts, `{"Kind":"q1","Hi":10000}`)
	if tr.Outcome != wire.OutcomeOK || int64(len(rows)) != tr.Rows {
		t.Errorf("q1: %d row lines, trailer %+v", len(rows), tr)
	}

	// A scan restricted by an explicit shipdate window returns exactly
	// the rows inside it, and the trailer row count matches the stream.
	rows, tr = postQuery(t, ts, `{"Kind":"scan","Hi":5000,"Predicate":{"Col":"l_shipdate","Lo":0,"Hi":2000}}`)
	if int64(len(rows)) != tr.Rows {
		t.Errorf("scan: %d row lines != trailer %d", len(rows), tr.Rows)
	}

	// Tenant pinning: an explicit tenant is reduced into the domain count.
	_, tr = postQuery(t, ts, fmt.Sprintf(`{"Kind":"q6","Hi":1000,"Tenant":%d}`, srv.eng.TenantCount()+1))
	if tr.Tenant != 1 {
		t.Errorf("tenant = %d, want 1", tr.Tenant)
	}

	st := srv.Statz()
	resolved := st.Stats.Completed + st.Stats.Rejected + st.Stats.TimedOut + st.Stats.Cancelled
	if st.Arrived != 4 || resolved != st.Arrived {
		t.Errorf("stats: arrived %d, resolved %d (%+v)", st.Arrived, resolved, st.Stats)
	}
	if st.Stats.Completed != 4 {
		t.Errorf("completed = %d, want 4", st.Stats.Completed)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, c := range []struct {
		body string
		code int
	}{
		{`{"Kind":"q7"}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
		{`{"Predicate":{"Col":"no_such_col","Lo":0,"Hi":1}}`, http.StatusBadRequest},
		{`{"Predicate":{"Col":"l_shipdate","Lo":9,"Hi":3}}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+wire.PathQuery, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var rep wire.ErrorReply
		json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if resp.StatusCode != c.code || rep.Error == "" {
			t.Errorf("%s: status %d reply %+v, want %d with error", c.body, resp.StatusCode, rep, c.code)
		}
	}
}

func TestStatzSchema(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + wire.PathStatz)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st wire.Statz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode statz: %v", err)
	}
	if st.Version != wire.Version {
		t.Errorf("Version = %q", st.Version)
	}
	if st.NumTuples == 0 || st.Tenants == 0 {
		t.Errorf("NumTuples/Tenants = %d/%d, want nonzero", st.NumTuples, st.Tenants)
	}
	if st.Stats.MPL != 8 || st.Stats.Admission != "fifo" || st.Stats.Policy == "" {
		t.Errorf("Stats labels = %+v", st.Stats)
	}
	if st.Draining {
		t.Error("Draining = true on a live server")
	}
}

// TestClientDisconnectCancels: dropping the connection mid-stream must
// cancel the query (client-cancel cause) and account it as Cancelled —
// run under -race this also exercises the handler/producer teardown.
func TestClientDisconnectCancels(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) { c.SendBuf = 2 })

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+wire.PathQuery,
		strings.NewReader(`{"Kind":"scan"}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	// Read one line to be sure the query is executing, then vanish.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("first line: %v", err)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.Statz()
		if st.Stats.Cancelled == 1 {
			if st.Arrived != 1 {
				t.Errorf("arrived = %d, want 1", st.Arrived)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query never cancelled: %+v", st.Stats)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// gatedWriter is a ResponseWriter whose Write blocks until released —
// a client that never reads, without kernel socket buffers hiding the
// stall.
type gatedWriter struct {
	gate   chan struct{}
	header http.Header

	mu  sync.Mutex
	buf bytes.Buffer
}

func (g *gatedWriter) Header() http.Header { return g.header }
func (g *gatedWriter) WriteHeader(int)     {}
func (g *gatedWriter) Write(p []byte) (int, error) {
	<-g.gate
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.buf.Write(p)
}

// TestSlowReaderBackpressure: with the client stalled, the producer must
// park once the bounded send buffer fills — produced plateaus at most
// SendBuf+2 batches (buffer + writer-held + producer-held) into the
// table — and resume to completion when the client drains.
func TestSlowReaderBackpressure(t *testing.T) {
	const sendBuf = 2
	srv, _ := newTestServer(t, func(c *Config) { c.SendBuf = sendBuf })
	total := srv.eng.NumTuples()

	w := &gatedWriter{gate: make(chan struct{}), header: http.Header{}}
	req := httptest.NewRequest(http.MethodPost, wire.PathQuery, strings.NewReader(`{"Kind":"scan"}`))
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Handler().ServeHTTP(w, req)
	}()

	// Wait for the producer to stall: produced stops moving well short
	// of the table.
	var last, stable int64 = -1, 0
	deadline := time.Now().Add(10 * time.Second)
	for stable < 20 {
		if time.Now().After(deadline) {
			t.Fatalf("producer never stalled (produced %d of %d)", srv.Produced(), total)
		}
		time.Sleep(10 * time.Millisecond)
		if p := srv.Produced(); p == last && p > 0 {
			stable++
		} else {
			last, stable = srv.Produced(), 0
		}
	}
	const batch = 1024 // exec.VectorSize: the largest batch a chunk holds
	if limit := int64((sendBuf + 2) * batch); last > limit {
		t.Errorf("produced %d rows while stalled, want <= %d (send buffer must bound it)", last, limit)
	}
	if last >= total {
		t.Fatalf("produced the whole table (%d rows) with a stalled client", last)
	}

	// Release the client; the stream must run to completion.
	close(w.gate)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("handler did not finish after the client resumed")
	}
	if got := srv.Delivered(); got != total {
		t.Errorf("delivered %d rows, want %d", got, total)
	}
	var trailer wire.QueryResult
	lines := bytes.Split(bytes.TrimSpace(w.buf.Bytes()), []byte{'\n'})
	if err := json.Unmarshal(lines[len(lines)-1], &trailer); err != nil {
		t.Fatalf("trailer: %v", err)
	}
	if trailer.Rows != total || trailer.Outcome != wire.OutcomeOK {
		t.Errorf("trailer = %+v, want %d rows ok", trailer, total)
	}
}

// TestUpdateRoundTrip drives the write path over the socket: updates of
// every kind are admitted, applied to the PDT store and answered with a
// versioned UpdateResult; crossing the checkpoint trigger completes a
// background merge; reads pinned after the updates still stream; and
// the ledger reconciles with writes counted. A private database keeps
// the checkpoint's table mutation away from the shared fixture.
func TestUpdateRoundTrip(t *testing.T) {
	priv := tpch.Generate(0.01, 2)
	cfg := Config{Serve: workload.DefaultServeConfig()}
	cfg.Serve.CheckpointOps = 8
	srv := New(priv, cfg)
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ConnContext = srv.ConnContext
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	post := func(body string) (wire.UpdateResult, int) {
		t.Helper()
		resp, err := http.Post(ts.URL+wire.PathUpdate, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST update: %v", err)
		}
		defer resp.Body.Close()
		var res wire.UpdateResult
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				t.Fatalf("decode UpdateResult: %v", err)
			}
		}
		return res, resp.StatusCode
	}

	var lastVersion int64
	for i, body := range []string{
		`{"Kind":"insert","Batch":3}`,
		`{"Kind":"modify","Batch":4}`,
		`{"Kind":"delete","Batch":2}`,
		`{"Batch":2}`, // kind defaults to modify
	} {
		res, code := post(body)
		if code != http.StatusOK || res.Outcome != wire.OutcomeOK {
			t.Fatalf("update %d: status %d result %+v", i, code, res)
		}
		if res.Applied == 0 {
			t.Errorf("update %d applied nothing: %+v", i, res)
		}
		if res.Version <= lastVersion {
			t.Errorf("update %d version %d did not advance past %d", i, res.Version, lastVersion)
		}
		lastVersion = res.Version
	}

	if _, code := post(`{"Kind":"upsert"}`); code != http.StatusBadRequest {
		t.Errorf("unknown kind: status %d, want 400", code)
	}

	// Push past the checkpoint trigger and wait out the background merge.
	for i := 0; i < 4; i++ {
		if res, code := post(`{"Kind":"modify","Batch":4}`); code != http.StatusOK || res.Outcome != wire.OutcomeOK {
			t.Fatalf("trigger update %d: status %d result %+v", i, code, res)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for srv.Statz().Stats.Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("checkpoint never completed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Reads still work over the checkpointed table.
	if _, tr := postQuery(t, ts, `{"Kind":"q6","Hi":5000}`); tr.Outcome != wire.OutcomeOK {
		t.Fatalf("post-checkpoint read: %+v", tr)
	}

	st := srv.Statz()
	resolved := st.Stats.Completed + st.Stats.Rejected + st.Stats.TimedOut + st.Stats.Cancelled
	if resolved != st.Arrived {
		t.Errorf("ledger does not reconcile: %d resolved, %d arrived", resolved, st.Arrived)
	}
	if st.Stats.Writes != 8 {
		t.Errorf("Writes = %d, want 8", st.Stats.Writes)
	}
	if st.Stats.WrQps <= 0 {
		t.Errorf("WrQps = %v, want positive", st.Stats.WrQps)
	}
	if st.Stats.Checkpoints == 0 {
		t.Error("statz lost the checkpoint count")
	}
}

// TestDrain: after Drain, health flips to 503, new queries resolve
// "draining" without polluting the arrival stats, and the reconciliation
// invariant holds.
func TestDrain(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	if _, tr := postQuery(t, ts, `{"Kind":"q6","Hi":1000}`); tr.Outcome != wire.OutcomeOK {
		t.Fatalf("pre-drain query: %+v", tr)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	resp, err := http.Post(ts.URL+wire.PathQuery, "application/json", strings.NewReader(`{"Kind":"q6"}`))
	if err != nil {
		t.Fatal(err)
	}
	var rep wire.ErrorReply
	json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || rep.Outcome != wire.OutcomeDraining {
		t.Errorf("draining POST: status %d reply %+v", resp.StatusCode, rep)
	}

	if resp, err = http.Get(ts.URL + wire.PathHealth); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d", resp.StatusCode)
	}

	st := srv.Statz()
	if !st.Draining || st.DrainRejected != 1 {
		t.Errorf("statz: draining=%v drainRejected=%d", st.Draining, st.DrainRejected)
	}
	if st.Arrived != 1 || st.Stats.Completed != 1 {
		t.Errorf("drain polluted stats: %+v", st)
	}
}

// TestScanRowValues checks the streamed values themselves: after an
// insert and a modify through /v1/update, a scan over the whole loaded
// range — plain rows and PDT rows alike — decodes with encoding/json
// to exactly the engine's view of the same RIDs, floats bit for bit.
func TestScanRowValues(t *testing.T) {
	priv := tpch.Generate(0.002, 3)
	srv := New(priv, Config{Serve: workload.DefaultServeConfig()})
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ConnContext = srv.ConnContext
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	for _, body := range []string{`{"Kind":"insert","Batch":4}`, `{"Kind":"modify","Batch":4}`} {
		resp, err := http.Post(ts.URL+wire.PathUpdate, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", body, resp.StatusCode)
		}
	}

	view := srv.Engine().View()
	if view.Deltas == nil {
		t.Fatal("view carries no deltas after two updates")
	}
	n := srv.Engine().NumTuples() // a full scan covers the loaded range
	img := view.Deltas.Image(view.Stable)
	// Find the PDT rows inside [0, n): inserted tuples and modified
	// stable tuples.
	var inserted, modified int
	var rid int64
	for _, seg := range view.Deltas.SegmentsRID(0, view.NumTuples()) {
		if seg.Kind == pdt.SegInsert {
			if rid < n {
				inserted += len(seg.Rows)
			}
			rid += int64(len(seg.Rows))
			continue
		}
		for sid := range seg.Mods {
			if rid+sid-seg.Lo < n {
				modified++
			}
		}
		rid += seg.Hi - seg.Lo
	}
	if inserted == 0 || modified == 0 {
		t.Fatalf("scan range holds %d inserted and %d modified rows, want both", inserted, modified)
	}

	rows, tr := postQuery(t, ts, `{"Kind":"scan"}`)
	if int64(len(rows)) != n || tr.Rows != n {
		t.Fatalf("scan streamed %d rows (trailer %d), want %d", len(rows), tr.Rows, n)
	}
	schema := view.Stable.Table().Schema
	cols := make([]int, len(scanColumns))
	for j, name := range scanColumns {
		cols[j] = priv.Col("lineitem", name)
	}
	for i, line := range rows {
		var fields []json.RawMessage
		if err := json.Unmarshal([]byte(line), &fields); err != nil {
			t.Fatalf("row %d %s: %v", i, line, err)
		}
		if len(fields) != len(cols) {
			t.Fatalf("row %d %s: %d columns, want %d", i, line, len(fields), len(cols))
		}
		for j, c := range cols {
			switch schema[c].Type {
			case storage.Int64:
				var v int64
				if err := json.Unmarshal(fields[j], &v); err != nil || v != img.I64[c][i] {
					t.Fatalf("row %d col %s = %s (%v), want %d", i, scanColumns[j], fields[j], err, img.I64[c][i])
				}
			case storage.Float64:
				var v float64
				err := json.Unmarshal(fields[j], &v)
				if want := img.F64[c][i]; err != nil || math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("row %d col %s = %s (%v), want %v", i, scanColumns[j], fields[j], err, want)
				}
			default:
				var v string
				if err := json.Unmarshal(fields[j], &v); err != nil || v != img.Str[c][i] {
					t.Fatalf("row %d col %s = %s (%v), want %q", i, scanColumns[j], fields[j], err, img.Str[c][i])
				}
			}
		}
	}
}

// TestOversizedBody: a request body over maxBodyBytes gets 413 with an
// ErrorReply on both POST endpoints, and the server keeps serving.
func TestOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, nil)
	big := `{"Kind":"q6","Pad":"` + strings.Repeat("x", 2<<20) + `"}`
	for _, path := range []string{wire.PathQuery, wire.PathUpdate} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		var rep wire.ErrorReply
		json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || rep.Error == "" {
			t.Errorf("%s: status %d reply %+v, want 413 with error", path, resp.StatusCode, rep)
		}
	}
	if _, tr := postQuery(t, ts, `{"Kind":"q6","Hi":1000}`); tr.Outcome != wire.OutcomeOK {
		t.Fatalf("query after oversized bodies: %+v", tr)
	}
}
