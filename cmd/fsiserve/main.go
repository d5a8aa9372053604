// Command fsiserve serves conjunctive/boolean queries over a sharded
// in-memory inverted index built on the fastintersect library — the
// query-serving system the paper's search-engine motivation points at.
//
// On startup it generates a synthetic corpus (the same simulated-real
// workload the benchmark harness uses), hash-partitions it across shards,
// and serves an HTTP JSON API:
//
//	GET /query?q=a+AND+b&limit=10   boolean query (AND/OR/NOT, parens)
//	GET /query?q=...&explain=1      ... plus the estimated physical plan
//	GET /query?q=...&explain=analyze ... executed plan with measured rows/time per operator
//	POST /query/batch               many queries in one call (shared planning)
//	POST /index/doc                 add/update a document (live, no rebuild)
//	DELETE /index/doc/{id}          delete a document (tombstoned immediately)
//	GET /stats                      engine + cache + delta/compaction counters
//	GET /metrics                    Prometheus text: counters, latency/stage histograms, per-kernel series
//	GET /debug/slowlog              ring buffer of queries slower than -slowlog-ms
//	GET /healthz                    liveness
//
// -pprof additionally mounts net/http/pprof under /debug/pprof/.
//
//	fsiserve -addr :8466            # then: curl 'localhost:8466/query?q=t0+AND+t17'
//
// The engine's throughput and latency are measured by the layered
// benchmark in perfbench/ (bash perfbench/run.sh) and by the go test
// benchmarks in internal/engine; fsiserve itself only serves.
//
// With -snapshot-dir D the whole segment tier is restored from D at startup
// when a snapshot exists there (skipping the index build) and saved back to
// D on graceful shutdown.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"fastintersect/internal/admission"
	"fastintersect/internal/engine"
	"fastintersect/internal/obs"
	"fastintersect/internal/workload"
)

func main() {
	var (
		addr        = flag.String("addr", ":8466", "listen address (serve mode)")
		shards      = flag.Int("shards", 4, "index shards")
		workers     = flag.Int("workers", 0, "queries evaluated at once, each on its own goroutine over every shard (0 = GOMAXPROCS)")
		cacheSize   = flag.Int("cache", 4096, "result-cache entries (0 disables)")
		docs        = flag.Uint("docs", 200_000, "synthetic corpus: number of documents")
		terms       = flag.Int("terms", 20_000, "synthetic corpus: vocabulary size")
		seed        = flag.Uint64("seed", 0xC0FFEE, "corpus seed")
		compactAt   = flag.Int("compact", 50_000, "active-segment postings per shard that trigger a background compaction (0 = never compact automatically)")
		snapDir     = flag.String("snapshot-dir", "", "segment-snapshot directory: restore the whole tier from it at startup when a snapshot exists (skipping the index build), and save the tier into it on graceful shutdown")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		slowlogMS   = flag.Int("slowlog-ms", 250, "slow-query log threshold in milliseconds (0 disables /debug/slowlog)")
		traceSample = flag.Int("trace-sample", 0, "trace 1 in N queries with stage/operator timing (0 = engine default of 64)")

		maxInflight = flag.Int("max-inflight", 0, "admission: max concurrently executing requests (0 = 2×GOMAXPROCS)")
		queueDepth  = flag.Int("queue-depth", 0, "admission: max requests queued for a slot (0 = 4×max-inflight, negative = no queue)")
		deadlineMS  = flag.Int("default-deadline-ms", 2000, "default per-request deadline in milliseconds (0 = none); requests override with ?deadline_ms=")
		clientQPS   = flag.Float64("client-qps", 0, "admission: per-client token-bucket refill rate (0 = no quotas)")
		clientBurst = flag.Float64("client-burst", 0, "admission: per-client token-bucket capacity (0 = 2×client-qps)")
	)
	flag.Parse()

	if *docs > math.MaxUint32 {
		fmt.Fprintf(os.Stderr, "fsiserve: -docs %d exceeds the uint32 docID space\n", *docs)
		os.Exit(2)
	}
	if *terms < 1 {
		fmt.Fprintf(os.Stderr, "fsiserve: -terms must be at least 1 (got %d)\n", *terms)
		os.Exit(2)
	}
	cfg := workload.SmallRealConfig()
	cfg.NumDocs = uint32(*docs)
	cfg.NumTerms = *terms
	cfg.NumQueries = 0 // clients send the queries; the corpus is its postings
	cfg.Seed = *seed
	fmt.Fprintf(os.Stderr, "fsiserve: generating corpus (%d docs, %d terms)...\n", cfg.NumDocs, cfg.NumTerms)
	genStart := time.Now()
	corpus := workload.NewReal(cfg)

	eng := engine.New(engine.Config{
		Shards:           *shards,
		Workers:          *workers,
		CacheSize:        *cacheSize,
		CompactThreshold: *compactAt,
		TraceSample:      *traceSample,
	})
	if *snapDir != "" && engine.SnapshotExists(*snapDir) {
		// Restart path: the serialized tier (frozen segments with their
		// tombstones, the active segment) replaces the corpus index build.
		// Each frozen segment is rebuilt by the same parallel build an
		// install runs; the active segment loads as-is.
		if err := eng.LoadSnapshot(*snapDir); err != nil {
			fmt.Fprintf(os.Stderr, "fsiserve: restoring snapshot from %s: %v\n", *snapDir, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "fsiserve: restored segment snapshot from %s\n", *snapDir)
	} else if err := loadCorpus(eng, corpus); err != nil {
		fmt.Fprintf(os.Stderr, "fsiserve: %v\n", err)
		os.Exit(1)
	}
	st := eng.Stats()
	fmt.Fprintf(os.Stderr, "fsiserve: indexed %d docs, %d (term,shard) postings across %d shards (%.1f MB of posting lists) in %v\n",
		st.Docs, st.Terms, st.Shards, float64(st.Postings.StoredBytes)/1e6,
		time.Since(genStart).Round(time.Millisecond))

	opts := serverOptions{
		snapshotDir: *snapDir,
		pprof:       *pprofOn,
		admission: admission.Config{
			MaxInflight: *maxInflight,
			QueueDepth:  *queueDepth,
			ClientQPS:   *clientQPS,
			ClientBurst: *clientBurst,
		},
		defaultDeadline: time.Duration(*deadlineMS) * time.Millisecond,
	}
	if *slowlogMS > 0 {
		opts.slow = obs.NewSlowLog(time.Duration(*slowlogMS)*time.Millisecond, 128)
	}
	serve(eng, *addr, opts)
}

// loadCorpus installs the simulated-real corpus, term-major. Stats().Docs
// afterwards reports the distinct docIDs actually appearing in a posting
// list (documents the generator never sampled are not indexed).
func loadCorpus(eng *engine.Engine, corpus *workload.Real) error {
	b := eng.NewBuilder()
	for t, postings := range corpus.Postings {
		if err := b.AddPosting(workload.TermName(t), postings); err != nil {
			return err
		}
	}
	return eng.Install(b)
}

// serve runs the HTTP API until SIGINT/SIGTERM, then drains: the admission
// gate stops admitting (queued work is shed, inflight work finishes), then
// the HTTP server closes its connections.
func serve(eng *engine.Engine, addr string, opts serverOptions) {
	s := newServer(eng, opts)
	srv := &http.Server{
		Addr:         addr,
		Handler:      s.handler(),
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 30 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "fsiserve: listening on %s\n", addr)
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "fsiserve: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "fsiserve: shutting down...")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.gate.Drain(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "fsiserve: drain: %v\n", err)
	}
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "fsiserve: shutdown: %v\n", err)
		os.Exit(1)
	}
	if opts.snapshotDir != "" {
		// The gate has drained, so the tier is quiescent: the snapshot is the
		// exact state the next -snapshot-dir start will serve.
		if err := eng.SaveSnapshot(opts.snapshotDir); err != nil {
			fmt.Fprintf(os.Stderr, "fsiserve: saving snapshot to %s: %v\n", opts.snapshotDir, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "fsiserve: saved segment snapshot to %s\n", opts.snapshotDir)
	}
}

// serverOptions configures the optional observability surfaces and the
// admission layer.
type serverOptions struct {
	slow  *obs.SlowLog // nil disables slow-query recording
	pprof bool         // mount net/http/pprof under /debug/pprof/
	// snapshotDir, when set, receives a segment snapshot of the whole tier
	// after the graceful-shutdown drain completes.
	snapshotDir string

	// admission sizes the gate; the zero value takes the package defaults
	// (2×GOMAXPROCS inflight, 4× that queued, no quotas).
	admission admission.Config
	// defaultDeadline bounds requests that do not pass deadline_ms
	// (0 = unbounded).
	defaultDeadline time.Duration
}

// overloadReasons enumerates the reason labels of
// fsi_overload_responses_total and /debug/slowlog's reason field: admission
// outcomes, plus requests that were admitted but ran out of deadline during
// execution.
var overloadReasons = []string{
	"rejected_quota", "rejected_deadline",
	"shed_queue_full", "shed_queue_timeout", "shed_draining",
	"deadline", "canceled",
}

// server wires the engine to HTTP.
type server struct {
	eng             *engine.Engine
	slow            *obs.SlowLog
	pprof           bool
	started         time.Time
	gate            *admission.Gate
	coal            *admission.Coalescer[*engine.Result]
	defaultDeadline time.Duration
	overload        map[string]*obs.Counter // 429/503 responses by reason
}

func newServer(eng *engine.Engine, opts ...serverOptions) *server {
	var o serverOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	reg := eng.Metrics()
	s := &server{
		eng:             eng,
		slow:            o.slow,
		pprof:           o.pprof,
		started:         time.Now(),
		gate:            admission.NewGate(o.admission, reg),
		coal:            admission.NewCoalescer[*engine.Result](reg),
		defaultDeadline: o.defaultDeadline,
		overload:        make(map[string]*obs.Counter, len(overloadReasons)),
	}
	for _, reason := range overloadReasons {
		s.overload[reason] = reg.Counter(
			`fsi_overload_responses_total{reason="`+reason+`"}`,
			"Requests answered 429/503 under overload control, by reason.")
	}
	reg.GaugeFunc("fsi_uptime_seconds",
		"Seconds since the serving process started.",
		func() float64 { return time.Since(s.started).Seconds() })
	return s
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	s.route(mux, "GET /query", "/query", s.handleQuery)
	s.route(mux, "POST /query/batch", "/query/batch", s.handleQueryBatch)
	s.route(mux, "GET /stats", "/stats", s.handleStats)
	s.route(mux, "POST /index/doc", "/index/doc", s.handleAddDoc)
	s.route(mux, "DELETE /index/doc/{id}", "/index/doc/:id", s.handleDeleteDoc)
	s.route(mux, "GET /debug/slowlog", "/debug/slowlog", s.handleSlowlog)
	// /metrics and /healthz stay uninstrumented: scrape and liveness traffic
	// would otherwise dominate the per-endpoint series they exist to expose.
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// route registers h instrumented with per-endpoint request/error counters
// and a latency histogram, all on the engine's metrics registry so one
// /metrics scrape covers engine and HTTP series alike.
func (s *server) route(mux *http.ServeMux, pattern, path string, h http.HandlerFunc) {
	reg := s.eng.Metrics()
	lbl := `{path="` + path + `"}`
	reqs := reg.Counter("fsi_http_requests_total"+lbl, "HTTP requests served, by endpoint.")
	errs := reg.Counter("fsi_http_errors_total"+lbl, "HTTP responses with status >= 400, by endpoint.")
	lat := reg.Histogram("fsi_http_request_seconds"+lbl, "HTTP request latency, by endpoint.")
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		reqs.Inc()
		if sw.code >= 400 {
			errs.Inc()
		}
		lat.Observe(time.Since(t0))
	})
}

// statusWriter captures the response status for the error counter; an
// unset status means an implicit 200 from the first Write.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// handleMetrics renders every registered series in the Prometheus text
// exposition format (version 0.0.4 — the plain-text contract scrapers
// accept without a client library on our side).
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.eng.Metrics().WritePrometheus(w)
}

// slowlogResponse is the GET /debug/slowlog body. Entries are newest
// first; Total counts every slow query ever seen, including entries the
// ring has since evicted.
type slowlogResponse struct {
	ThresholdMS int64           `json:"threshold_ms"`
	Total       uint64          `json:"total"`
	Entries     []obs.SlowEntry `json:"entries"`
}

func (s *server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	entries := s.slow.Snapshot()
	if entries == nil {
		entries = []obs.SlowEntry{}
	}
	writeJSON(w, http.StatusOK, slowlogResponse{
		ThresholdMS: s.slow.Threshold().Milliseconds(),
		Total:       s.slow.Total(),
		Entries:     entries,
	})
}

type queryResponse struct {
	Query      string   `json:"query"`
	Normalized string   `json:"normalized"`
	Count      int      `json:"count"`
	Docs       []uint32 `json:"docs"`
	Truncated  bool     `json:"truncated"`
	Cached     bool     `json:"cached"`
	// Coalesced marks a response served by attaching to an identical
	// in-flight query's execution rather than running its own.
	Coalesced bool  `json:"coalesced,omitempty"`
	ElapsedUS int64 `json:"elapsed_us"`
	// Plan is the physical plan (operator tree with kernels and cost
	// estimates), present when the request asked for explain=1; with
	// explain=analyze it additionally carries measured rows and time per
	// operator plus stage and per-shard timings.
	Plan string `json:"plan,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// requestContext derives the request's execution context: ?deadline_ms=
// overrides the server default (0 = explicitly unbounded). The returned
// context is always rooted at r.Context(), so a client disconnect cancels
// execution even without a deadline.
func (s *server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.defaultDeadline
	if ds := r.URL.Query().Get("deadline_ms"); ds != "" {
		v, err := strconv.Atoi(ds)
		if err != nil || v < 0 {
			return nil, nil, fmt.Errorf("bad deadline_ms %q (want 0 for none or a positive millisecond budget)", ds)
		}
		d = time.Duration(v) * time.Millisecond
	}
	if d <= 0 {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// clientKey identifies the requester for per-client quotas: the explicit
// ?client= tag when present (load balancers forward the originating
// principal this way), otherwise the peer address without its port.
func clientKey(r *http.Request) string {
	if c := r.URL.Query().Get("client"); c != "" {
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// overloadReason classifies an error as an overload outcome (one of
// overloadReasons) or "" for ordinary failures.
func overloadReason(err error) string {
	switch {
	case errors.Is(err, admission.ErrQuotaExceeded):
		return "rejected_quota"
	case errors.Is(err, admission.ErrDeadlineInfeasible):
		return "rejected_deadline"
	case errors.Is(err, admission.ErrQueueFull):
		return "shed_queue_full"
	case errors.Is(err, admission.ErrQueueTimeout):
		return "shed_queue_timeout"
	case errors.Is(err, admission.ErrDraining):
		return "shed_draining"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "canceled"
	}
	return ""
}

// writeQueryError maps a query-path failure to its status code, records it
// in the slowlog (overload outcomes carry a reason and bypass the slowness
// threshold) and counts it. Overload responses advertise Retry-After: quota
// rejections are the client's budget (429), everything else is server
// pressure (503).
func (s *server) writeQueryError(w http.ResponseWriter, q string, start time.Time, err error) {
	reason := overloadReason(err)
	s.slow.Record(obs.SlowEntry{
		Time: start, Query: q,
		DurationUS: time.Since(start).Microseconds(),
		Error:      err.Error(),
		Reason:     reason,
	})
	code := http.StatusBadRequest
	switch {
	case reason == "rejected_quota":
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	case reason != "":
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, engine.ErrNotBuilt):
		code = http.StatusServiceUnavailable
	}
	if reason != "" {
		s.overload[reason].Inc()
	}
	writeJSON(w, code, errorResponse{err.Error()})
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	limit := 100
	if ls := r.URL.Query().Get("limit"); ls != "" {
		v, err := strconv.Atoi(ls)
		if err != nil || v < -1 {
			// -1 is the documented "no limit"; 0 means count-only; anything
			// below -1 used to silently mean "unlimited" and is now rejected.
			writeJSON(w, http.StatusBadRequest, errorResponse{fmt.Sprintf("bad limit %q (want -1 for unlimited, 0 for count-only, or a positive cap)", ls)})
			return
		}
		limit = v
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	defer cancel()
	client := clientKey(r)
	start := time.Now()
	var (
		res       *engine.Result
		planStr   string
		coalesced bool
	)
	switch explain := r.URL.Query().Get("explain"); explain {
	case "", "0":
		// Plain queries coalesce: concurrent duplicates of one canonical
		// form at one index generation share a single execution. The leader
		// acquires admission inside the coalesced function — followers ride
		// its slot, so a hot-key burst costs one inflight slot and one
		// quota token (the leader's), not one per duplicate. Parse errors
		// are caught by canonicalization, before admission: malformed
		// queries never consume gate capacity.
		var canon string
		canon, err = s.eng.Canonicalize(q)
		if err != nil {
			break
		}
		// limit=0 takes the engine's count-only fast path (no merged-result
		// materialization). Count executions coalesce among themselves but
		// never with materializing duplicates — a count result carries no
		// docs to hand a materializing follower — so the key is prefixed.
		key := admission.Key{Canon: canon, Gen: s.eng.Generation()}
		run := s.eng.QueryContext
		if limit == 0 {
			key.Canon = "#count:" + canon
			run = s.eng.QueryCountContext
		}
		res, coalesced, err = s.coal.Do(ctx, key,
			func() (*engine.Result, error) {
				tk, aerr := s.gate.Acquire(ctx, client)
				if aerr != nil {
					return nil, aerr
				}
				defer s.gate.Release(tk)
				return run(ctx, q)
			})
	case "1", "analyze":
		// Explain output is per-request diagnostics (analyze re-executes
		// with tracing), so it is admitted but never coalesced.
		var tk admission.Ticket
		tk, err = s.gate.Acquire(ctx, client)
		if err != nil {
			break
		}
		if explain == "1" {
			res, planStr, err = s.eng.ExplainContext(ctx, q)
		} else {
			res, planStr, err = s.eng.ExplainAnalyzeContext(ctx, q)
		}
		s.gate.Release(tk)
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{fmt.Sprintf("bad explain %q (want 1 for the estimated plan or analyze for measured execution)", explain)})
		return
	}
	if err != nil {
		// Syntax errors carry the byte offset of the offending token in the
		// message ("syntax error at offset N: ..."), so 400 bodies point at
		// the position in the submitted query; admission and deadline
		// failures map to 429/503 with Retry-After.
		s.writeQueryError(w, q, start, err)
		return
	}
	s.slow.Record(obs.SlowEntry{
		Time: start, Query: q, Normalized: res.Normalized,
		DurationUS: time.Since(start).Microseconds(),
		Rows:       res.Count,
		Cached:     res.Cached,
	})
	docs := res.Docs
	truncated := false
	if limit >= 0 && len(docs) > limit {
		docs = docs[:limit]
		truncated = true
	}
	if docs == nil {
		docs = []uint32{} // render "docs": [] rather than null
	}
	// Count-only responses report matching docs they did not materialize.
	if limit == 0 && res.Count > 0 {
		truncated = true
	}
	writeJSON(w, http.StatusOK, queryResponse{
		Query:      q,
		Normalized: res.Normalized,
		Count:      res.Count,
		Docs:       docs,
		Truncated:  truncated,
		Cached:     res.Cached,
		Coalesced:  coalesced,
		ElapsedUS:  time.Since(start).Microseconds(),
		Plan:       planStr,
	})
}

// batchRequest is the POST /query/batch body. Limit applies to every query
// with exactly /query's semantics: positive caps, 0 count-only, -1
// unlimited, omitted defaults to 100.
type batchRequest struct {
	Queries []string `json:"queries"`
	Limit   *int     `json:"limit,omitempty"`
	// DeadlineMS overrides the server's default deadline for the whole
	// batch (0 = explicitly none).
	DeadlineMS *int `json:"deadline_ms,omitempty"`
}

// batchItem is one query's slot in the batch response. Error is set instead
// of the result fields when that query failed to parse or evaluate.
type batchItem struct {
	Query      string   `json:"query"`
	Normalized string   `json:"normalized,omitempty"`
	Count      int      `json:"count"`
	Docs       []uint32 `json:"docs,omitempty"`
	Truncated  bool     `json:"truncated,omitempty"`
	Cached     bool     `json:"cached,omitempty"`
	Error      string   `json:"error,omitempty"`
}

type batchResponse struct {
	Results   []batchItem `json:"results"`
	ElapsedUS int64       `json:"elapsed_us"`
}

// handleQueryBatch executes many queries as one engine batch: queries that
// normalize to the same canonical form are planned and evaluated once, and
// all cache misses run on one execution context under one worker slot.
// Per-query failures land in the matching result slot; only a malformed
// body or a missing index fails the whole request.
func (s *server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{fmt.Sprintf("bad body: %v", err)})
		return
	}
	if len(req.Queries) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{"queries must contain at least one query"})
		return
	}
	limit := 100 // the same default as GET /query
	if req.Limit != nil {
		if *req.Limit < -1 {
			writeJSON(w, http.StatusBadRequest, errorResponse{fmt.Sprintf("bad limit %d (want -1 for unlimited, 0 for count-only, or a positive cap)", *req.Limit)})
			return
		}
		limit = *req.Limit
	}
	d := s.defaultDeadline
	if req.DeadlineMS != nil {
		if *req.DeadlineMS < 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{fmt.Sprintf("bad deadline_ms %d (want 0 for none or a positive millisecond budget)", *req.DeadlineMS)})
			return
		}
		d = time.Duration(*req.DeadlineMS) * time.Millisecond
	}
	ctx := r.Context()
	if d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	start := time.Now()
	// One admission slot covers the whole batch: the engine evaluates the
	// whole batch on one goroutine under one worker slot, so a batch is one
	// unit of inflight load, not len(Queries) units.
	tk, err := s.gate.Acquire(ctx, clientKey(r))
	if err != nil {
		s.writeQueryError(w, fmt.Sprintf("<batch of %d>", len(req.Queries)), start, err)
		return
	}
	// limit=0 sends the whole batch down the engine's count-only path: no
	// merged result is materialized for any cache miss in the batch.
	var batch []engine.BatchResult
	if limit == 0 {
		batch = s.eng.QueryBatchCountContext(ctx, req.Queries)
	} else {
		batch = s.eng.QueryBatchContext(ctx, req.Queries)
	}
	s.gate.Release(tk)
	resp := batchResponse{Results: make([]batchItem, len(batch))}
	for i, br := range batch {
		item := batchItem{Query: req.Queries[i]}
		switch {
		case errors.Is(br.Err, engine.ErrNotBuilt):
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{br.Err.Error()})
			return
		case br.Err != nil:
			item.Error = br.Err.Error()
		default:
			docs := br.Result.Docs
			if limit >= 0 && len(docs) > limit {
				docs = docs[:limit]
				item.Truncated = true
			}
			item.Normalized = br.Result.Normalized
			item.Count = br.Result.Count
			item.Docs = docs
			item.Cached = br.Result.Cached
			if limit == 0 && item.Count > 0 {
				item.Truncated = true
			}
		}
		resp.Results[i] = item
	}
	resp.ElapsedUS = time.Since(start).Microseconds()
	writeJSON(w, http.StatusOK, resp)
}

// addDocRequest is the POST /index/doc body.
type addDocRequest struct {
	DocID uint32   `json:"doc_id"`
	Terms []string `json:"terms"`
}

// mutationResponse acknowledges an index mutation.
type mutationResponse struct {
	Status     string `json:"status"`
	DocID      uint32 `json:"doc_id"`
	Generation uint64 `json:"generation"`
}

// handleAddDoc makes a document queryable immediately: it lands in its home
// shard's active segment (no rebuild) and supersedes any indexed version.
func (s *server) handleAddDoc(w http.ResponseWriter, r *http.Request) {
	var req addDocRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{fmt.Sprintf("bad body: %v", err)})
		return
	}
	terms := req.Terms[:0]
	for _, t := range req.Terms {
		if t != "" {
			terms = append(terms, t)
		}
	}
	if len(terms) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{"terms must contain at least one non-empty term"})
		return
	}
	if err := s.eng.AddDocument(req.DocID, terms); err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, engine.ErrNotBuilt) {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, errorResponse{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, mutationResponse{
		Status: "indexed", DocID: req.DocID, Generation: s.eng.Generation(),
	})
}

// handleDeleteDoc removes a document from query results immediately
// (tombstoned in any frozen segment, dropped from the active one). Unknown
// documents return 404.
func (s *server) handleDeleteDoc(w http.ResponseWriter, r *http.Request) {
	id64, err := strconv.ParseUint(r.PathValue("id"), 10, 32)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{fmt.Sprintf("bad doc id %q", r.PathValue("id"))})
		return
	}
	was, err := s.eng.DeleteDocument(uint32(id64))
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, engine.ErrNotBuilt) {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, errorResponse{err.Error()})
		return
	}
	if !was {
		writeJSON(w, http.StatusNotFound, errorResponse{fmt.Sprintf("doc %d is not indexed", id64)})
		return
	}
	writeJSON(w, http.StatusOK, mutationResponse{
		Status: "deleted", DocID: uint32(id64), Generation: s.eng.Generation(),
	})
}

type statsResponse struct {
	engine.Stats
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statsResponse{
		Stats:         s.eng.Stats(),
		UptimeSeconds: time.Since(s.started).Seconds(),
	})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
