// Command pbserver serves the PackageBuilder meal-planner demo (the
// paper's Figure 1 scenario) over HTTP: a single-page UI for writing
// PaQL, viewing the sample package and its aggregates, pinning tuples,
// requesting replacements (§3.3 adaptive exploration), asking for
// constraint suggestions (§3.1), and seeing the 2-D package-space
// summary (§3.2).
//
//	pbserver -addr :8080 -n 500 -seed 42
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	pb "repro"
	"repro/internal/dataset"
	"repro/internal/explore"
	"repro/internal/lifecycle"
)

// maxBodyBytes bounds request bodies so a client cannot stream an
// unbounded payload into the JSON decoder.
const maxBodyBytes = 1 << 20

// server holds the demo state: a client of one packagebuilder.System,
// which owns the database (read-only after startup and safe for
// concurrent readers) and the partition-tree cache and fingerprint memo
// every request shares. mu guards only the mutable exploration session
// (the booth-kiosk state), taken for reading by handlers that render it
// and for writing by handlers that swap or mutate it. Query evaluation
// itself runs outside the lock, so concurrent /api/query requests proceed
// in parallel.
type server struct {
	sys *pb.System
	// base is the options record every solve starts from, bound by the
	// server flags: the seed, the tree directory (-sketch-dir — a server
	// flag, never request data, since a client must not choose where the
	// server writes), the -sketch-incr default, and the per-query
	// lifecycle limits (-mem-budget, and -timeout, whose hard ctx
	// deadline trails the soft budget). A request overlays only the
	// fields handleQuery names.
	base pb.Options
	// adm bounds concurrent solves: excess requests queue FIFO, then
	// shed with 429 + Retry-After once the queue is full or the server
	// is draining. Cheap handlers (pin, suggest, index) bypass it.
	adm *lifecycle.Controller
	// health is the per-subsystem degradation registry behind /healthz:
	// solves that took a degradation-ladder rung report the subsystem,
	// a fully clean solve clears the board.
	health *lifecycle.Health

	mu      sync.RWMutex
	ses     *explore.Session // one demo session, like the booth kiosk
	sesOpts pb.Options       // the options ses was opened under
}

// Request IDs: a per-process salt plus an atomic counter, echoed in the
// X-Request-Id header and in every error body so a client-reported
// failure can be matched to exactly one server log line.
var (
	reqSalt uint64
	reqSeq  atomic.Uint64
)

func init() {
	reqSalt = uint64(time.Now().UnixNano())
	// splitmix-style finalizer so consecutive restarts don't share a prefix.
	reqSalt ^= reqSalt >> 30
	reqSalt *= 0xbf58476d1ce4e5b9
	reqSalt ^= reqSalt >> 27
}

func newRequestID() string {
	return fmt.Sprintf("%08x-%d", uint32(reqSalt), reqSeq.Add(1))
}

type ctxKey int

const reqIDKey ctxKey = iota

// requestID returns the request's ID, minting one for requests that did
// not pass through the middleware (direct handler calls in tests).
func requestID(r *http.Request) string {
	if id, ok := r.Context().Value(reqIDKey).(string); ok {
		return id
	}
	return newRequestID()
}

// withRequest is the outermost middleware: it mints the request ID,
// echoes it in the X-Request-Id header, and converts a handler panic
// into a logged 500 with a typed body instead of a killed connection.
func (s *server) withRequest(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := newRequestID()
		w.Header().Set("X-Request-Id", id)
		r = r.WithContext(context.WithValue(r.Context(), reqIDKey, id))
		defer func() {
			if rec := recover(); rec != nil {
				s.httpErr(w, r, lifecycle.Internal(fmt.Errorf("panic: %v", rec)))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// noteHealth folds one solve's outcome into the health registry: each
// "subsystem: detail" degradation reason marks its subsystem not-OK,
// and a fully clean solve clears the whole board (one healthy
// end-to-end query exercises the main path).
func (s *server) noteHealth(stats *pb.Stats) {
	if stats == nil {
		return
	}
	if !stats.Degraded {
		s.health.ClearAll()
		return
	}
	for _, reason := range stats.DegradedReasons {
		sub, detail, ok := strings.Cut(reason, ": ")
		if !ok {
			sub, detail = "engine", reason
		}
		s.health.Report(sub, detail)
	}
}

// session returns the current exploration session and the options it
// was opened under, or an error when no query has been run yet.
func (s *server) session() (*explore.Session, pb.Options, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.ses == nil {
		return nil, pb.Options{}, fmt.Errorf("no active query")
	}
	return s.ses, s.sesOpts, nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	n := flag.Int("n", 500, "recipe count")
	seed := flag.Int64("seed", 42, "dataset seed")
	s := &server{sys: pb.New(), base: pb.Options{Seed: 1}, health: lifecycle.NewHealth()}
	flag.StringVar(&s.base.SketchPersistDir, "sketch-dir", "", "persist sketch-refine partition trees to this directory (survives restarts)")
	flag.BoolVar(&s.base.SketchIncremental, "sketch-incr", true, "let the planner patch cached sketch-refine partition trees in place after writes; =false forces rebuilds")
	maxInFlight := flag.Int("max-inflight", 4, "concurrent solves admitted; excess requests queue")
	maxQueue := flag.Int("max-queue", 16, "queued solves before shedding with 429")
	flag.Int64Var(&s.base.MemoryBudget, "mem-budget", 0, "per-query memory budget in bytes, enforced at solve admission (0 = unlimited)")
	flag.DurationVar(&s.base.Timeout, "timeout", 0, "per-query soft time budget; best-effort packages at expiry (0 = none)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window on SIGTERM/SIGINT")
	flag.Parse()

	if err := dataset.LoadRecipes(s.sys.DB(), "recipes", dataset.RecipesConfig{N: *n, Seed: *seed}); err != nil {
		log.Fatal(err)
	}
	s.adm = lifecycle.NewController(*maxInFlight, *maxQueue)
	if dir := s.base.SketchPersistDir; dir != "" {
		if msg := s.sys.SweepSketchDir(dir); msg != "" {
			log.Printf("pbserver: %s", msg)
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/api/query", s.handleQuery)
	mux.HandleFunc("/api/replace", s.handleReplace)
	mux.HandleFunc("/api/pin", s.handlePin)
	mux.HandleFunc("/api/suggest", s.handleSuggest)
	mux.HandleFunc("/api/summary", s.handleSummary)
	mux.HandleFunc("/api/lifecycle", s.handleLifecycle)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	fmt.Fprintf(os.Stderr, "PackageBuilder meal planner on http://localhost%s (%d recipes)\n", *addr, *n)
	// A hardened server: a slow or hostile client cannot hold a
	// connection (and its handler goroutine) open indefinitely, and
	// request bodies are capped before they reach the JSON decoders.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.withRequest(http.MaxBytesHandler(mux, maxBodyBytes)),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}

	// Graceful shutdown: the first SIGTERM/SIGINT stops admission (new
	// solves shed with 429, queued waiters are released), lets in-flight
	// solves finish inside the drain window, then closes the listener. A
	// second signal aborts immediately via the restored default handler.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	errC := make(chan error, 1)
	go func() { errC <- srv.ListenAndServe() }()
	select {
	case err := <-errC:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // restore default signal behavior: second signal kills
		log.Printf("pbserver: shutdown signal — draining for up to %s", *drain)
		s.adm.BeginDrain()
		// Readiness grace: Shutdown closes the listener (and idle
		// keep-alives) immediately, so /readyz could never serve its
		// 503. Keep the listener up briefly — admission is already
		// shedding solves — so load-balancer readiness probes observe
		// not-ready and stop routing before connections start failing.
		if grace := min(*drain/5, 2*time.Second); grace > 0 {
			time.Sleep(grace)
		}
		shutCtx, cancel := context.WithDeadline(context.Background(), time.Now().Add(*drain))
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Printf("pbserver: drain window expired (%v); closing", err)
			_ = srv.Close()
		}
		st := s.adm.Stats()
		log.Printf("pbserver: stopped (admitted %d, shed %d)", st.Admitted, st.Shed)
	}
}

type pkgJSON struct {
	Columns   []string          `json:"columns"`
	Rows      [][]string        `json:"rows"`
	RowIDs    []int             `json:"rowIds"`
	Aggs      map[string]string `json:"aggregates"`
	Objective float64           `json:"objective"`
	Stats     *statsJSON        `json:"stats"`
	Pinned    []int             `json:"pinned"`
}

// statsJSON is the "stats" object of a package response: the
// evaluation's own figures, the lifetime traffic of the tiers sketch
// queries share, the certificate when there is one, and — for a
// sketch-refine answer — the solver's record itself, flattened in under
// its own struct tags.
type statsJSON struct {
	Strategy        string  `json:"strategy"`
	Exact           bool    `json:"exact"`
	Candidates      int     `json:"candidates"`
	RowsScanned     int     `json:"rowsScanned"`
	SnapshotHit     bool    `json:"snapshotHit"`
	Bounds          string  `json:"bounds"`
	ElapsedMs       float64 `json:"elapsedMs"`
	MemoryEstimate  int64   `json:"memoryEstimate,omitempty"`
	PlannedStrategy string  `json:"plannedStrategy,omitempty"`
	Degraded        bool    `json:"degraded"`
	DegradedReason  string  `json:"degradedReason,omitempty"`
	CacheHits       int64   `json:"sketchCacheHits"`
	CacheMisses     int64   `json:"sketchCacheMisses"`
	FPRowsHashed    int64   `json:"sketchFPRowsHashed"`
	*certJSON
	*pb.SketchStats
}

// certJSON is the certified interval. CertifiedText is the line every
// surface prints (Stats.CertifiedLine); GapText the gap alone, rendered
// by the same helper, for clients that lay the interval out themselves.
type certJSON struct {
	Certified     bool    `json:"certified"`
	BoundValue    float64 `json:"boundValue"`
	Gap           float64 `json:"gap"`
	GapText       string  `json:"gapText"`
	BoundStage    string  `json:"boundStage,omitempty"`
	CertifiedText string  `json:"certifiedText"`
}

// pinnedRowIDs reports the session's pins as base-table row ids — what
// the page and the pin API key on — rather than candidate indexes.
func pinnedRowIDs(ses *explore.Session) []int {
	ids, out := ses.Prepared().Instance.IDs, ses.Pinned()
	for k, i := range out {
		out[k] = ids[i]
	}
	return out
}

func (s *server) packageJSON(ses *explore.Session, p *pb.Package, stats *pb.Stats) *pkgJSON {
	tab, _ := s.sys.DB().Table(ses.Query().Table)
	out := &pkgJSON{Aggs: map[string]string{}}
	for _, c := range tab.Schema.Cols {
		out.Columns = append(out.Columns, c.Name)
	}
	for _, row := range p.Rows {
		var cells []string
		for _, v := range row {
			cells = append(cells, v.String())
		}
		out.Rows = append(out.Rows, cells)
	}
	out.RowIDs = p.TupleIDs()
	for k, v := range p.AggValues {
		out.Aggs[k] = v.String()
	}
	out.Objective = p.Objective
	out.Pinned = pinnedRowIDs(ses)
	if stats == nil {
		return out
	}
	cs, ms := s.sys.SketchCache().Stats(), s.sys.SketchMemo().Stats()
	out.Stats = &statsJSON{
		Strategy:       stats.Strategy.String(),
		Exact:          stats.Exact,
		Candidates:     stats.Candidates,
		RowsScanned:    stats.RowsScanned,
		SnapshotHit:    stats.SnapshotHit,
		Bounds:         stats.Bounds.String(),
		ElapsedMs:      float64(stats.Elapsed.Microseconds()) / 1000,
		MemoryEstimate: stats.MemoryEstimate,
		Degraded:       stats.Degraded,
		DegradedReason: strings.Join(stats.DegradedReasons, "; "),
		CacheHits:      cs.Hits,
		CacheMisses:    cs.Misses,
		FPRowsHashed:   ms.RowsHashed,
		SketchStats:    stats.Sketch,
	}
	if stats.Certified {
		out.Stats.certJSON = &certJSON{Certified: true, BoundValue: stats.BoundValue, Gap: stats.Gap,
			GapText: stats.Interval(p.Objective).FormatGap(), BoundStage: stats.BoundStage,
			CertifiedText: stats.CertifiedLine(p.Objective)}
	}
	if stats.Plan != nil {
		out.Stats.PlannedStrategy = stats.Plan.Strategy
	}
	return out
}

// decodeJSON parses a body-limited JSON request.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	return json.NewDecoder(r.Body).Decode(v)
}

// admit gates a handler's solve work through the admission controller.
// On refusal it writes the 429 (shed) or 408 (client gone while
// queued) response itself and returns ok=false; on success the caller
// must defer the release.
func (s *server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	release, err := s.adm.Acquire(r.Context())
	if err != nil {
		s.httpErr(w, r, err)
		return nil, false
	}
	return release, true
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// The request names its five fields one by one and never embeds
	// pb.Options: the tree directory and the lifecycle limits stay the
	// server's.
	var req struct {
		Query       string      `json:"query"`
		Strategy    pb.Strategy `json:"strategy"`    // "", "auto", "solver", "sketch-refine", ...
		SketchDepth int         `json:"sketchDepth"` // 0/1 = flat, >=2 hierarchical
		SketchIncr  *bool       `json:"sketchIncr"`  // tree patching after writes; nil = server default
		Explain     bool        `json:"explain"`     // plan only: return the decision trail, don't execute
	}
	if err := decodeJSON(w, r, &req); err != nil {
		s.httpErr(w, r, err)
		return
	}
	opts := s.base
	opts.Strategy, opts.SketchDepth = req.Strategy, req.SketchDepth
	if req.SketchIncr != nil {
		opts.SketchIncremental = *req.SketchIncr
	}
	if req.Explain {
		qp, err := s.sys.ExplainContext(r.Context(), req.Query, pb.With(opts))
		if err != nil {
			s.httpErr(w, r, err)
			return
		}
		writeJSON(w, map[string]any{"plan": qp, "explain": qp.Explain()})
		return
	}
	// Evaluation is the expensive part; it needs an admission slot and
	// runs without the lock so concurrent queries don't serialize
	// behind one another. The request context cancels the solve when
	// the client disconnects.
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	ses, err := s.sys.ExploreContext(r.Context(), req.Query, pb.With(opts))
	if err != nil {
		s.httpErr(w, r, err)
		return
	}
	if _, err := ses.RefreshContext(r.Context()); err != nil {
		s.httpErr(w, r, err)
		return
	}
	s.noteHealth(ses.Stats())
	// Render before publishing: once s.ses is swapped, concurrent
	// replace/pin handlers may mutate the session, so it must not be
	// read lock-free after this point.
	out := s.packageJSON(ses, ses.Current(), ses.Stats())
	s.mu.Lock()
	s.ses, s.sesOpts = ses, opts
	s.mu.Unlock()
	writeJSON(w, out)
}

func (s *server) handleReplace(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ses == nil {
		s.httpErr(w, r, fmt.Errorf("no active query"))
		return
	}
	if _, err := s.ses.ReplaceContext(r.Context()); err != nil {
		s.httpErr(w, r, err)
		return
	}
	s.noteHealth(s.ses.Stats())
	writeJSON(w, s.packageJSON(s.ses, s.ses.Current(), s.ses.Stats()))
}

func (s *server) handlePin(w http.ResponseWriter, r *http.Request) {
	var req struct {
		RowID int  `json:"rowId"`
		Unpin bool `json:"unpin"`
	}
	if err := decodeJSON(w, r, &req); err != nil {
		s.httpErr(w, r, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ses == nil {
		s.httpErr(w, r, fmt.Errorf("no active query"))
		return
	}
	if req.Unpin {
		for i, id := range s.ses.Prepared().Instance.IDs {
			if id == req.RowID {
				s.ses.Unpin(i)
			}
		}
	} else if err := s.ses.PinRowID(req.RowID); err != nil {
		s.httpErr(w, r, err)
		return
	}
	writeJSON(w, map[string]any{"pinned": pinnedRowIDs(s.ses)})
}

func (s *server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	ses, _, err := s.session()
	if err != nil {
		s.httpErr(w, r, err)
		return
	}
	col := r.URL.Query().Get("column")
	// Suggest reads only the session's immutable prepared query, so it
	// runs without the lock or an admission slot, like handlePin.
	sugg, err := ses.Suggest(explore.Highlight{Column: col, Row: -1})
	if err != nil {
		s.httpErr(w, r, err)
		return
	}
	writeJSON(w, sugg)
}

// handleHealthz reports per-subsystem degradation state. It always
// answers 200 — a degraded server still serves queries (that is the
// point of the degradation ladder); the body says which rungs are
// currently engaged so an operator can fix the underlying fault.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	degraded, reasons := s.health.Degraded()
	status := "ok"
	if degraded {
		status = "degraded"
	}
	writeJSON(w, map[string]any{
		"status":     status,
		"degraded":   degraded,
		"reasons":    reasons,
		"subsystems": s.health.Snapshot(),
	})
}

// handleReadyz is the load-balancer probe: 200 while the server accepts
// new solves, 503 once draining began (graceful shutdown) so traffic
// moves away before the listener closes.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.adm.Stats().Draining {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]any{"ready": false, "reason": "draining"})
		return
	}
	writeJSON(w, map[string]any{"ready": true})
}

// handleLifecycle reports the admission controller's counters — the
// load-test and ops surface for watching in-flight/queued/shed.
func (s *server) handleLifecycle(w http.ResponseWriter, r *http.Request) {
	st := s.adm.Stats()
	writeJSON(w, map[string]any{
		"inFlight": st.InFlight,
		"queued":   st.Queued,
		"admitted": st.Admitted,
		"shed":     st.Shed,
		"draining": st.Draining,
	})
}

func (s *server) handleSummary(w http.ResponseWriter, r *http.Request) {
	ses, opts, err := s.session()
	if err != nil {
		s.httpErr(w, r, err)
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	// Running a prepared query is a pure read over it and the database;
	// it needs no lock, so summaries render concurrently too. It runs
	// under the options the session was opened with, so the nine
	// packages come from the session's own plan.
	prep := ses.Prepared()
	res, err := s.sys.RunContext(r.Context(), prep, pb.With(opts), pb.WithLimit(9))
	if err != nil {
		s.httpErr(w, r, err)
		return
	}
	s.noteHealth(&res.Stats)
	sum, err := s.sys.Summarize(prep, res.Packages, 0, !res.Stats.Exact)
	if err != nil {
		s.httpErr(w, r, err)
		return
	}
	writeJSON(w, sum)
}

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, indexHTML)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// httpErr maps the lifecycle error taxonomy onto HTTP statuses so
// clients can react mechanically: 429 + Retry-After when the query was
// shed, 408 when the caller's context died (disconnect or deadline
// empty-handed), 422 for queries the engine refuses to or provably
// cannot answer, 500 for internal failures (a recovered panic or an
// injected fault that exhausted the degradation ladder), and 400 for
// everything else (parse errors, bad parameters). The JSON body's
// "code" field carries the category and "requestId" the request's ID;
// operator-actionable statuses (429/408/500) are logged with the same
// ID so a client report matches exactly one log line.
func (s *server) httpErr(w http.ResponseWriter, r *http.Request, err error) {
	id := requestID(r)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Request-Id", id)
	status, code := http.StatusBadRequest, "bad_request"
	switch {
	case errors.Is(err, lifecycle.ErrAdmission):
		status, code = http.StatusTooManyRequests, "admission"
		secs := int(math.Ceil(s.adm.RetryAfter().Seconds()))
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	case errors.Is(err, lifecycle.ErrCanceled):
		status, code = http.StatusRequestTimeout, "canceled"
	case errors.Is(err, lifecycle.ErrBudgetExceeded):
		status, code = http.StatusUnprocessableEntity, "budget"
	case errors.Is(err, lifecycle.ErrInfeasible):
		status, code = http.StatusUnprocessableEntity, "infeasible"
	case errors.Is(err, lifecycle.ErrInternal):
		status, code = http.StatusInternalServerError, "internal"
	}
	if status == http.StatusInternalServerError ||
		status == http.StatusTooManyRequests ||
		status == http.StatusRequestTimeout {
		log.Printf("pbserver: %s %s -> %d (request %s): %v", r.Method, r.URL.Path, status, id, err)
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error(), "code": code, "requestId": id})
}

const indexHTML = `<!doctype html>
<html><head><meta charset="utf-8"><title>PackageBuilder — Meal Planner</title>
<style>
 body { font-family: system-ui, sans-serif; margin: 2em; max-width: 1080px; }
 textarea { width: 100%; height: 9em; font-family: monospace; font-size: 13px; }
 table { border-collapse: collapse; margin-top: .7em; }
 td, th { border: 1px solid #bbb; padding: 3px 9px; font-size: 13px; }
 tr.pinned { background: #fff4c2; }
 button { margin: 4px 6px 4px 0; }
 #aggs, #stats, #sugg, #plan { font-family: monospace; font-size: 13px; white-space: pre; }
 .cols { display: flex; gap: 2em; } .col { flex: 1; }
 svg { border: 1px solid #ccc; background: #fafafa; }
 h3 { margin-bottom: .2em; }
</style></head><body>
<h1>PackageBuilder — Meal Planner</h1>
<p>Write a PaQL package query over the <code>recipes</code> relation
(columns: id, name, cuisine, mealtype, gluten, calories, protein, fat, carbs, price, rating).</p>
<textarea id="q">SELECT PACKAGE(R) AS P
FROM recipes R
WHERE R.gluten = 'free'
SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500
MAXIMIZE SUM(P.protein)</textarea><br>
<button onclick="run()">Run query</button>
<button onclick="explainPlan()">Explain plan</button>
<button onclick="replacePkg()">Replace unpinned (adaptive exploration)</button>
<button onclick="summary()">Package-space summary</button>
suggest for column: <input id="scol" size="10" value="fat">
<button onclick="suggest()">Suggest</button>
<div class="cols"><div class="col">
 <h3>Sample package <small>(click a row to pin/unpin)</small></h3>
 <div id="pkg"></div>
 <h3>Aggregates</h3><div id="aggs"></div>
</div><div class="col">
 <h3>Suggestions</h3><div id="sugg"></div>
 <h3>Plan</h3><div id="plan"></div>
 <h3>Package space</h3><div id="space"></div>
</div></div>
<script>
let pinned = new Set(), shown = null;
async function post(url, body) {
  const r = await fetch(url, {method:'POST', body: JSON.stringify(body||{})});
  const j = await r.json();
  if (j.error) { alert(j.error); throw j.error; }
  return j;
}
function render(p) {
  shown = p;
  pinned = new Set(p.pinned || []);
  let h = '<table><tr>' + p.columns.map(c=>'<th>'+c+'</th>').join('') + '</tr>';
  p.rows.forEach((row, i) => {
    const id = p.rowIds[i];
    const cls = pinned.has(id) ? ' class="pinned"' : '';
    h += '<tr'+cls+' onclick="togglePin('+id+')">' + row.map(c=>'<td>'+c+'</td>').join('') + '</tr>';
  });
  h += '</table>';
  document.getElementById('pkg').innerHTML = h;
  let stats = '';
  if (p.stats && p.stats.strategy) {
    let sk = '';
    if (p.stats.partitions) {
      sk = ' (' + p.stats.partitions + ' partitions';
      if (p.stats.sketchLevels > 1) sk += ', ' + p.stats.sketchLevels + ' levels';
      if (p.stats.sketchBranches > 1) sk += ', ' + p.stats.sketchBranches + ' branches';
      if (p.stats.sketchAtomRewrites > 0) sk += ', ' + p.stats.sketchAtomRewrites + ' atom rewrites';
      if (p.stats.sketchCacheHit) sk += ', cached tree';
      if (p.stats.sketchTreeLoaded) sk += ', tree from disk';
      if (p.stats.sketchTreePatched) sk += ', tree patched (' + p.stats.sketchDeltaApplied + ' tuples changed)';
      if (p.stats.sketchWorkers > 1) sk += ', ' + p.stats.sketchWorkers + ' workers';
      sk += ')';
    }
    stats = '\nstrategy: ' + p.stats.strategy + sk +
      '  candidates: ' + p.stats.candidates + ' (' + p.stats.rowsScanned + ' rows scanned)  ' + p.stats.elapsedMs + 'ms';
    if (p.stats.certified) stats += '\ncertified: ' + p.stats.certifiedText;
    if (p.stats.plannedStrategy) stats += '\nplanned: ' + p.stats.plannedStrategy;
    if (p.stats.degraded) stats += '\ndegraded: ' + p.stats.degradedReason;
  }
  document.getElementById('aggs').textContent =
    Object.entries(p.aggregates).map(([k,v])=>k.padEnd(36)+v).join('\n') +
    '\nobjective: ' + p.objective + stats;
}
async function run() { render(await post('/api/query', {query: document.getElementById('q').value})); }
async function explainPlan() {
  const j = await post('/api/query', {query: document.getElementById('q').value, explain: true});
  document.getElementById('plan').textContent = j.explain;
}
async function replacePkg() { render(await post('/api/replace')); }
async function togglePin(id) {
  const j = await post('/api/pin', {rowId: id, unpin: pinned.has(id)});
  shown.pinned = j.pinned;
  render(shown);
}
async function suggest() {
  const col = document.getElementById('scol').value;
  const r = await fetch('/api/suggest?column=' + encodeURIComponent(col));
  const j = await r.json();
  if (j.error) { alert(j.error); return; }
  document.getElementById('sugg').textContent =
    j.map(s=>'['+s.Kind+'] '+s.Text+'\n        '+s.Why).join('\n');
}
async function summary() {
  const r = await fetch('/api/summary');
  const j = await r.json();
  if (j.error) { alert(j.error); return; }
  const W=420,H=260,pad=40;
  const xs=j.points.map(p=>p.x), ys=j.points.map(p=>p.y);
  const xmin=Math.min(...xs), xmax=Math.max(...xs), ymin=Math.min(...ys), ymax=Math.max(...ys);
  const sx=v=> pad + (xmax>xmin ? (v-xmin)/(xmax-xmin) : .5) * (W-2*pad);
  const sy=v=> H-pad - (ymax>ymin ? (v-ymin)/(ymax-ymin) : .5) * (H-2*pad);
  let svg = '<svg width="'+W+'" height="'+H+'">';
  j.points.forEach(p => {
    svg += '<circle cx="'+sx(p.x)+'" cy="'+sy(p.y)+'" r="'+(p.current?8:5)+'" fill="'+(p.current?'#d9480f':'#4263eb')+'"><title>package '+p.index+': obj '+p.objective+'</title></circle>';
  });
  svg += '<text x="'+(W/2)+'" y="'+(H-8)+'" text-anchor="middle" font-size="12">'+j.xLabel+'</text>';
  svg += '<text x="12" y="'+(H/2)+'" font-size="12" transform="rotate(-90 12 '+(H/2)+')">'+j.yLabel+'</text>';
  svg += '</svg>';
  document.getElementById('space').innerHTML = svg + (j.running ? '<br><em>running: result space incomplete</em>' : '');
}
</script></body></html>`
