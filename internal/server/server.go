// Package server fronts the serving engine with HTTP: the admission
// scheduler is the front door, every request's lifecycle handle is tied
// to its HTTP context (disconnect → client-cancel, request deadline →
// query deadline), and results stream back as NDJSON through a bounded
// per-query send buffer — so a slow client backpressures through the
// plan into XChg instead of buffering the result set in server memory.
//
// Each row is a JSON array whose bytes are exactly strconv's: AppendInt
// for integers, AppendFloat(…, 'g', -1, 64) for floats, AppendQuote
// for strings. encodeBatch writes whole-cent floats below 1e6 and
// plain printable-ASCII strings directly, the values a lineitem scan
// carries, and leaves everything else to strconv. Request bodies are
// capped at maxBodyBytes; a larger one gets 413.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	scanshare "repro"
	"repro/internal/exec"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/tpch"
	"repro/internal/workload"
	"repro/wire"
)

// maxBodyBytes bounds a request body. Query and update requests are a
// few hundred bytes of JSON; anything near this size is not one.
const maxBodyBytes = 1 << 20

// Config parameterizes the HTTP front end.
type Config struct {
	// Serve configures the underlying engine (policy, MPL, admission
	// policy, devices, ...); its Real flag is forced on.
	Serve workload.ServeConfig
	// SendBuf bounds each query's send buffer in batches (default 8).
	// When a client reads slower than the plan produces, the buffer
	// fills, the producer parks, and the stall propagates down the plan:
	// XChg's bounded exchange channels fill and its workers park too.
	SendBuf int
	// DrainTimeout bounds how long Drain waits for in-flight queries
	// (0 = wait until the caller's context expires).
	DrainTimeout time.Duration
}

// Server is the HTTP front end over one ServeEngine.
type Server struct {
	cfg Config
	eng *workload.ServeEngine
	mux *http.ServeMux

	connSeq  atomic.Int64 // connections accepted, for tenant assignment
	querySeq atomic.Int64
	draining atomic.Bool
	inflight atomic.Int64 // admitted queries still streaming

	// produced counts rows encoded by plan producers, delivered rows
	// written to clients; their gap is bounded by the send buffer —
	// the observable the backpressure test pins down.
	produced  atomic.Int64
	delivered atomic.Int64
}

// New builds a server over the generated database.
func New(db *tpch.DB, cfg Config) *Server {
	if cfg.SendBuf <= 0 {
		cfg.SendBuf = 8
	}
	s := &Server{cfg: cfg, eng: workload.NewServeEngine(db, cfg.Serve)}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc(wire.PathQuery, s.handleQuery)
	s.mux.HandleFunc(wire.PathUpdate, s.handleUpdate)
	s.mux.HandleFunc(wire.PathStatz, s.handleStatz)
	s.mux.HandleFunc(wire.PathHealth, s.handleHealth)
	return s
}

// Handler returns the HTTP handler (PathQuery, PathStatz, PathHealth).
func (s *Server) Handler() http.Handler { return s.mux }

// Engine exposes the underlying serving engine (stats, scheduler).
func (s *Server) Engine() *workload.ServeEngine { return s.eng }

// Produced and Delivered report the cumulative row counts on either
// side of the send buffers.
func (s *Server) Produced() int64  { return s.produced.Load() }
func (s *Server) Delivered() int64 { return s.delivered.Load() }

type connIDKey struct{}

// ConnContext assigns each accepted connection an id; install it as
// http.Server.ConnContext. Connections map round-robin onto the
// engine's tenants, so a fleet of naive clients lands on all fairness
// domains without carrying tenant ids themselves.
func (s *Server) ConnContext(ctx context.Context, c net.Conn) context.Context {
	return context.WithValue(ctx, connIDKey{}, int(s.connSeq.Add(1)-1))
}

// Drain stops admitting queries (new ones resolve "draining") and waits
// until nothing is running, queued, or mid-stream. It returns nil on a
// clean drain, the context/timeout error otherwise.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.eng.Drain()
	if s.cfg.DrainTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DrainTimeout)
		defer cancel()
	}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.eng.Idle() && s.inflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close releases the engine. Call after Drain.
func (s *Server) Close() { s.eng.Close() }

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	st := s.Statz()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}

// Statz snapshots the server: the live serve-table row in the wire
// schema plus scheduler gauges.
func (s *Server) Statz() wire.Statz {
	res := s.eng.Stats()
	cfg := s.eng.Config()
	devices := cfg.Config.Devices
	if devices <= 0 {
		devices = 1
	}
	iosched := cfg.Config.IOScheduler
	if iosched == "" {
		iosched = "fifo"
	}
	tier := "flat"
	if cfg.Config.FastDevices > 0 {
		tier = "tiered-rr"
	}
	admission := cfg.AdmissionPolicy
	if admission == "" {
		admission = "fifo"
	}
	shards := cfg.PoolShards
	if cfg.Policy == workload.CScan {
		shards = 0 // the ABM replaces the page pool
	}
	// Rate 0: arrivals are client-driven, there is no configured rate.
	// Selectivity 1: requests carry their own predicates.
	row := scanshare.ServeRowOf(res, 0, cfg.MPL, cfg.Policy.String(),
		shards, devices, iosched, tier, admission, 1)
	sch := s.eng.Scheduler()
	return wire.Statz{
		Version:       wire.Version,
		UptimeSec:     res.ElapsedSec,
		Draining:      s.draining.Load(),
		Running:       sch.Running(),
		Queued:        sch.Queued(),
		Arrived:       res.Sched.Arrived,
		DrainRejected: res.Sched.DrainRejected,
		NumTuples:     s.eng.NumTuples(),
		Tenants:       s.eng.TenantCount(),
		Stats:         row.Wire(),
	}
}

func writeError(w http.ResponseWriter, code int, rep wire.ErrorReply) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(rep)
}

// decodeBody decodes a JSON request body of at most maxBodyBytes into v.
// On failure it writes the error reply — 413 for an oversized body, 400
// for anything else — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, wire.ErrorReply{Error: fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes)})
	} else {
		writeError(w, http.StatusBadRequest, wire.ErrorReply{Error: "bad request body: " + err.Error()})
	}
	return false
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req wire.QueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	kind := req.Kind
	if kind == "" {
		kind = wire.KindQ6
	}
	switch kind {
	case wire.KindQ1, wire.KindQ6, wire.KindScan:
	default:
		writeError(w, http.StatusBadRequest, wire.ErrorReply{Error: fmt.Sprintf("unknown kind %q (want q1, q6 or scan)", kind)})
		return
	}

	tenant := s.tenantOf(r, req.Tenant)

	rng := s.eng.ClipRange(req.Lo, req.Hi)
	var pred *exec.ScanPredicate
	if req.Predicate != nil {
		var err error
		pred, err = s.eng.PredicateNamed(req.Predicate.Col, req.Predicate.Lo, req.Predicate.Hi)
		if err != nil {
			writeError(w, http.StatusBadRequest, wire.ErrorReply{Error: "bad predicate: " + err.Error()})
			return
		}
	} else if req.Selectivity > 0 {
		pred = s.eng.PredicateFor(req.Selectivity)
	}

	// Lifecycle: one handle from admission to the device queue. The
	// request deadline arms it; the HTTP context cancels it the moment
	// the client disconnects, wherever the query is.
	qc := s.eng.NewQueryCtx()
	if req.Deadline > 0 {
		qc.SetDeadline(s.eng.Now() + rt.Time(req.Deadline))
	}
	stop := context.AfterFunc(r.Context(), func() { qc.Cancel(rt.CauseClientCancel) })
	defer stop()

	q := sched.Query{
		Stream: tenant,
		Seq:    int(s.querySeq.Add(1) - 1),
		Tenant: tenant,
		Cost:   s.eng.Price(rng, pred),
		Ctx:    qc,
	}
	tk, outcome := s.eng.Admit(q)
	switch outcome {
	case sched.AdmitGranted:
	case sched.AdmitDraining:
		writeError(w, http.StatusServiceUnavailable, wire.ErrorReply{Error: "server draining", Outcome: wire.OutcomeDraining})
		return
	case sched.AdmitRejected:
		writeError(w, http.StatusServiceUnavailable, wire.ErrorReply{Error: "admission queue full", Outcome: wire.OutcomeRejected})
		return
	default: // AdmitDropped: died while queued
		if qc.Cause() == rt.CauseAdmissionTimeout {
			writeError(w, http.StatusGatewayTimeout, wire.ErrorReply{Error: "deadline passed in admission queue", Outcome: wire.OutcomeAdmissionTimeout})
		}
		// Client-cancel: the connection is gone; nothing to write.
		return
	}

	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	plan, err := s.eng.BuildPlan(qc, kind, rng, pred)
	if err != nil {
		tk.Done()
		writeError(w, http.StatusBadRequest, wire.ErrorReply{Error: err.Error()})
		return
	}

	w.Header().Set("Content-Type", wire.ContentTypeNDJSON)
	rows, bytes, writeOK := s.stream(w, qc, plan)

	// Resolve the ticket first so /statz reconciles even while the
	// trailer is in flight.
	cancelled := qc.Cancelled()
	if cancelled {
		tk.Cancel(qc.Cause())
	} else {
		tk.Done()
	}
	if !writeOK {
		return
	}
	now := s.eng.Now()
	trailer := wire.QueryResult{
		Rows:        rows,
		Bytes:       bytes,
		Tenant:      tenant,
		Outcome:     wire.OutcomeOK,
		LatencyMS:   float64(now-tk.Arrive()) / 1e6,
		QueueWaitMS: float64(tk.Admit()-tk.Arrive()) / 1e6,
	}
	if cancelled {
		trailer.Outcome = qc.Cause().String()
		trailer.Error = qc.Err().Error()
	}
	b, _ := json.Marshal(trailer)
	w.Write(append(b, '\n'))
}

// tenantOf resolves a request's fairness domain: the connection's
// round-robin assignment unless the request pins one explicitly, either
// way reduced into the configured domain count.
func (s *Server) tenantOf(r *http.Request, explicit *int) int {
	tenants := s.eng.TenantCount()
	tenant, _ := r.Context().Value(connIDKey{}).(int)
	if explicit != nil {
		tenant = *explicit
	}
	tenant %= tenants
	if tenant < 0 {
		tenant += tenants
	}
	return tenant
}

// handleUpdate admits one update query through the same scheduler as
// reads — delta-size-priced, so sesf/wfq weigh writes against scans —
// and applies it to the engine's PDT store. The lifecycle binding
// matches reads: the HTTP context cancels a queued write the moment the
// client disconnects, and a cancelled write is never applied.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req wire.UpdateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	kindName := req.Kind
	if kindName == "" {
		kindName = wire.KindModify
	}
	kind, err := workload.ParseUpdateKind(kindName)
	if err != nil {
		writeError(w, http.StatusBadRequest, wire.ErrorReply{Error: err.Error()})
		return
	}
	tenant := s.tenantOf(r, req.Tenant)

	qc := s.eng.NewQueryCtx()
	if req.Deadline > 0 {
		qc.SetDeadline(s.eng.Now() + rt.Time(req.Deadline))
	}
	stop := context.AfterFunc(r.Context(), func() { qc.Cancel(rt.CauseClientCancel) })
	defer stop()

	q := sched.Query{
		Stream: tenant,
		Seq:    int(s.querySeq.Add(1) - 1),
		Tenant: tenant,
		Cost:   s.eng.PriceUpdate(req.Batch),
		Ctx:    qc,
		Write:  true,
	}
	tk, outcome := s.eng.Admit(q)
	switch outcome {
	case sched.AdmitGranted:
	case sched.AdmitDraining:
		writeError(w, http.StatusServiceUnavailable, wire.ErrorReply{Error: "server draining", Outcome: wire.OutcomeDraining})
		return
	case sched.AdmitRejected:
		writeError(w, http.StatusServiceUnavailable, wire.ErrorReply{Error: "admission queue full", Outcome: wire.OutcomeRejected})
		return
	default: // AdmitDropped: died while queued; the write never applies
		if qc.Cause() == rt.CauseAdmissionTimeout {
			writeError(w, http.StatusGatewayTimeout, wire.ErrorReply{Error: "deadline passed in admission queue", Outcome: wire.OutcomeAdmissionTimeout})
		}
		// Client-cancel: the connection is gone; nothing to write.
		return
	}
	if qc.Cancelled() {
		// Granted but already dead (disconnect or deadline raced the
		// grant): resolve the ticket, skip the write.
		tk.Cancel(qc.Cause())
		return
	}

	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	applied, version, pending, err := s.eng.ApplyUpdate(kind, req.Batch)
	tk.Done()
	if err != nil {
		writeError(w, http.StatusInternalServerError, wire.ErrorReply{Error: err.Error()})
		return
	}
	now := s.eng.Now()
	res := wire.UpdateResult{
		Applied:     applied,
		Tenant:      tenant,
		Outcome:     wire.OutcomeOK,
		Version:     version,
		Pending:     pending,
		Checkpoints: s.eng.Checkpoints(),
		LatencyMS:   float64(now-tk.Arrive()) / 1e6,
		QueueWaitMS: float64(tk.Admit()-tk.Arrive()) / 1e6,
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
}

// batchChunk is one encoded batch in flight between producer and writer.
type batchChunk struct {
	data []byte
	n    int64
}

// stream runs the plan and writes its rows as NDJSON. The producer
// goroutine drives the plan and parks on the bounded buf channel when
// the writer (i.e. the client) falls behind — plan.Next is then not
// called, XChg's exchange channels fill, and its workers park: client
// backpressure reaches the scan. Cancellation (client disconnect,
// deadline) unblocks both sides.
func (s *Server) stream(w http.ResponseWriter, qc *exec.QueryCtx, plan exec.Op) (rows, bytes int64, writeOK bool) {
	buf := make(chan batchChunk, s.cfg.SendBuf)
	cancelCh := make(chan struct{})
	remove := qc.OnCancel(func() { close(cancelCh) })
	defer remove()

	go func() {
		defer close(buf)
		plan.Open()
		defer plan.Close()
		schema := plan.Schema()
		for {
			b := plan.Next()
			if b == nil {
				return
			}
			chunk := batchChunk{data: encodeBatch(schema, b), n: int64(b.N)}
			s.produced.Add(chunk.n)
			select {
			case buf <- chunk:
			case <-cancelCh:
				return
			}
		}
	}()

	flusher, _ := w.(http.Flusher)
	writeOK = true
	for chunk := range buf {
		if !writeOK {
			continue // drain so the producer finishes its in-flight send
		}
		if _, err := w.Write(chunk.data); err != nil {
			// The client is gone; kill the query at its next check.
			qc.Cancel(rt.CauseClientCancel)
			writeOK = false
			continue
		}
		rows += chunk.n
		bytes += int64(len(chunk.data))
		s.delivered.Add(chunk.n)
		if flusher != nil {
			flusher.Flush()
		}
	}
	return rows, bytes, writeOK
}
