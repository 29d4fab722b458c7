package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	pb "repro"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/lifecycle"
)

func testServer(t *testing.T) *server {
	t.Helper()
	return newTestServer(t, 80, pb.Options{Seed: 1})
}

// newTestServer loads n recipes and serves them under base, with main's
// default admission limits.
func newTestServer(t *testing.T, n int, base pb.Options) *server {
	t.Helper()
	sys := pb.New()
	if err := dataset.LoadRecipes(sys.DB(), "recipes", dataset.RecipesConfig{N: n, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	return &server{sys: sys, base: base, adm: lifecycle.NewController(4, 16), health: lifecycle.NewHealth()}
}

const demoQuery = `SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free'
SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500
MAXIMIZE SUM(P.protein)`

func postJSON(t *testing.T, h http.HandlerFunc, body string) (*httptest.ResponseRecorder, map[string]json.RawMessage) {
	t.Helper()
	req := httptest.NewRequest("POST", "/x", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h(rec, req)
	var out map[string]json.RawMessage
	_ = json.Unmarshal(rec.Body.Bytes(), &out)
	return rec, out
}

func TestHandleQueryAndReplace(t *testing.T) {
	s := testServer(t)
	rec, out := postJSON(t, s.handleQuery, `{"query": `+mustJSON(demoQuery)+`}`)
	if rec.Code != 200 {
		t.Fatalf("query status %d: %s", rec.Code, rec.Body)
	}
	var rows [][]string
	_ = json.Unmarshal(out["rows"], &rows)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	var aggs map[string]string
	_ = json.Unmarshal(out["aggregates"], &aggs)
	if aggs["COUNT(*)"] != "3" {
		t.Errorf("aggs = %v", aggs)
	}
	// replace must return a different package
	rec2, out2 := postJSON(t, s.handleReplace, `{}`)
	if rec2.Code != 200 {
		t.Fatalf("replace status %d: %s", rec2.Code, rec2.Body)
	}
	if string(out["rows"]) == string(out2["rows"]) {
		t.Error("replace returned the same package")
	}
}

func TestHandlePinSuggestSummary(t *testing.T) {
	s := testServer(t)
	rec, out := postJSON(t, s.handleQuery, `{"query": `+mustJSON(demoQuery)+`}`)
	if rec.Code != 200 {
		t.Fatalf("query: %s", rec.Body)
	}
	var rowIDs []int
	_ = json.Unmarshal(out["rowIds"], &rowIDs)
	if len(rowIDs) == 0 {
		t.Fatal("no row ids")
	}
	// pin
	rec2, _ := postJSON(t, s.handlePin, `{"rowId": `+itoa(rowIDs[0])+`}`)
	if rec2.Code != 200 {
		t.Fatalf("pin: %s", rec2.Body)
	}
	// unpin
	rec3, _ := postJSON(t, s.handlePin, `{"rowId": `+itoa(rowIDs[0])+`, "unpin": true}`)
	if rec3.Code != 200 {
		t.Fatalf("unpin: %s", rec3.Body)
	}
	// unpin a row that is not a candidate: refused as a pin of it is
	rec3, _ = postJSON(t, s.handlePin, `{"rowId": 999999, "unpin": true}`)
	if want := "explore: row id 999999 is not a candidate (check base constraints)"; rec3.Code != 400 ||
		!strings.Contains(rec3.Body.String(), want) || !strings.Contains(rec3.Body.String(), `"bad_request"`) {
		t.Fatalf("unpin of a non-candidate: %d %s, want 400 bad_request %q", rec3.Code, rec3.Body, want)
	}
	// suggest
	req := httptest.NewRequest("GET", "/api/suggest?column=fat", nil)
	rec4 := httptest.NewRecorder()
	s.handleSuggest(rec4, req)
	if rec4.Code != 200 || !strings.Contains(rec4.Body.String(), "MINIMIZE SUM(P.fat)") {
		t.Errorf("suggest: %d %s", rec4.Code, rec4.Body)
	}
	// summary
	req = httptest.NewRequest("GET", "/api/summary", nil)
	rec5 := httptest.NewRecorder()
	s.handleSummary(rec5, req)
	if rec5.Code != 200 || !strings.Contains(rec5.Body.String(), "points") {
		t.Errorf("summary: %d %s", rec5.Code, rec5.Body)
	}
}

// TestPinnedAreRowIDs: the page keys everything on base-table row ids,
// so every handler that reports pins must report row ids. Under a WHERE
// the candidate indexes differ from them.
func TestPinnedAreRowIDs(t *testing.T) {
	s := testServer(t)
	rec, out := postJSON(t, s.handleQuery, `{"query": `+mustJSON(demoQuery)+`}`)
	if rec.Code != 200 {
		t.Fatalf("query: %s", rec.Body)
	}
	ints := func(raw json.RawMessage) []int {
		var v []int
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		return v
	}
	// Pin the package row whose candidate index differs most from its
	// row id: the last one.
	rowIDs := ints(out["rowIds"])
	id := rowIDs[len(rowIDs)-1]
	ses, _, _ := s.session()
	if idx := slices.Index(ses.Prepared().Instance.IDs, id); idx == id {
		t.Fatalf("row %d is candidate %d: the WHERE filtered nothing before it", id, idx)
	}
	rec, out = postJSON(t, s.handlePin, `{"rowId": `+itoa(id)+`}`)
	if got := ints(out["pinned"]); rec.Code != 200 || !slices.Equal(got, []int{id}) {
		t.Fatalf("pin row %d: status %d, pinned = %v", id, rec.Code, got)
	}
	rec, out = postJSON(t, s.handleReplace, `{}`)
	if got := ints(out["pinned"]); rec.Code != 200 || !slices.Equal(got, []int{id}) {
		t.Fatalf("replace: status %d, pinned = %v, want [%d]", rec.Code, got, id)
	}
	if got := ints(out["rowIds"]); !slices.Contains(got, id) {
		t.Errorf("replacement package %v lost pinned row %d", got, id)
	}
	rec, out = postJSON(t, s.handlePin, `{"rowId": `+itoa(id)+`, "unpin": true}`)
	if got := ints(out["pinned"]); rec.Code != 200 || len(got) != 0 {
		t.Fatalf("unpin row %d: status %d, pinned = %v", id, rec.Code, got)
	}
}

func TestHandlersWithoutSession(t *testing.T) {
	s := testServer(t)
	rec, _ := postJSON(t, s.handleReplace, `{}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("replace without session = %d", rec.Code)
	}
	rec2, _ := postJSON(t, s.handlePin, `{"rowId": 1}`)
	if rec2.Code != http.StatusBadRequest {
		t.Errorf("pin without session = %d", rec2.Code)
	}
	rec3, _ := postJSON(t, s.handleQuery, `{"query": "garbage"}`)
	if rec3.Code != http.StatusBadRequest {
		t.Errorf("bad query = %d", rec3.Code)
	}
	// index page serves HTML
	req := httptest.NewRequest("GET", "/", nil)
	rec4 := httptest.NewRecorder()
	s.handleIndex(rec4, req)
	if !strings.Contains(rec4.Body.String(), "PackageBuilder") {
		t.Error("index page missing")
	}
}

func mustJSON(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

func itoa(i int) string {
	b, _ := json.Marshal(i)
	return string(b)
}

func TestQueryStrategyExposure(t *testing.T) {
	s := testServer(t)
	rec, out := postJSON(t, s.handleQuery,
		`{"query": `+mustJSON(demoQuery)+`, "strategy": "sketch-refine"}`)
	if rec.Code != 200 {
		t.Fatalf("sketch query status %d: %s", rec.Code, rec.Body)
	}
	var stats map[string]any
	_ = json.Unmarshal(out["stats"], &stats)
	if stats["strategy"] != "sketch-refine" {
		t.Errorf("stats.strategy = %v", stats["strategy"])
	}
	if p, ok := stats["partitions"].(float64); !ok || p <= 0 {
		t.Errorf("stats.partitions = %v", stats["partitions"])
	}
	rec2, _ := postJSON(t, s.handleQuery,
		`{"query": `+mustJSON(demoQuery)+`, "strategy": "warp-drive"}`)
	if rec2.Code != http.StatusBadRequest {
		t.Errorf("unknown strategy status = %d", rec2.Code)
	}

	// Full-grammar sketch run: an AVG atom inside a disjunction stays on
	// the sketch strategy and surfaces the branch/rewrite counters.
	avgQuery := `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 3 AND (AVG(P.calories) <= 900 OR SUM(P.calories) <= 2000)
		MAXIMIZE SUM(P.protein)`
	rec3, out3 := postJSON(t, s.handleQuery,
		`{"query": `+mustJSON(avgQuery)+`, "strategy": "sketch-refine"}`)
	if rec3.Code != 200 {
		t.Fatalf("avg sketch query status %d: %s", rec3.Code, rec3.Body)
	}
	var stats3 map[string]any
	_ = json.Unmarshal(out3["stats"], &stats3)
	if stats3["strategy"] != "sketch-refine" {
		t.Errorf("avg query fell back: strategy = %v", stats3["strategy"])
	}
	if b, ok := stats3["sketchBranches"].(float64); !ok || b != 2 {
		t.Errorf("stats.sketchBranches = %v, want 2", stats3["sketchBranches"])
	}
	if rw, ok := stats3["sketchAtomRewrites"].(float64); !ok || rw != 1 {
		t.Errorf("stats.sketchAtomRewrites = %v, want 1", stats3["sketchAtomRewrites"])
	}
}

// TestConcurrentQueryTraffic hammers the API from many goroutines —
// queries evaluating in parallel with replaces, pins, suggestions and
// summaries — so `go test -race` can catch locking regressions in the
// session-swap path.
func TestConcurrentQueryTraffic(t *testing.T) {
	s := testServer(t)
	if rec, _ := postJSON(t, s.handleQuery, `{"query": `+mustJSON(demoQuery)+`}`); rec.Code != 200 {
		t.Fatalf("seed query: %s", rec.Body)
	}
	const workers = 12
	errs := make(chan string, workers*4)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				rec := httptest.NewRecorder()
				switch i % 5 {
				case 0:
					req := httptest.NewRequest("POST", "/api/query",
						strings.NewReader(`{"query": `+mustJSON(demoQuery)+`}`))
					s.handleQuery(rec, req)
					if rec.Code != 200 {
						errs <- "query: " + rec.Body.String()
					}
				case 1:
					req := httptest.NewRequest("POST", "/api/replace", strings.NewReader(`{}`))
					s.handleReplace(rec, req)
					// "no further distinct package" is a legitimate outcome
				case 2:
					req := httptest.NewRequest("GET", "/api/suggest?column=fat", nil)
					s.handleSuggest(rec, req)
					if rec.Code != 200 {
						errs <- "suggest: " + rec.Body.String()
					}
				case 3:
					req := httptest.NewRequest("GET", "/api/summary", nil)
					s.handleSummary(rec, req)
					if rec.Code != 200 {
						errs <- "summary: " + rec.Body.String()
					}
				case 4:
					// Pin/unpin mutate the session's pinned map; racing
					// them against queries is the point. A 400 ("row id
					// is not a candidate") is a legitimate outcome.
					body := `{"rowId": 1}`
					if j%2 == 1 {
						body = `{"rowId": 1, "unpin": true}`
					}
					req := httptest.NewRequest("POST", "/api/pin", strings.NewReader(body))
					s.handlePin(rec, req)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestHandleExplain exercises the explain request field: the server
// plans the query without executing it and returns the decision trail
// as structured JSON plus rendered text.
func TestHandleExplain(t *testing.T) {
	s := testServer(t)
	rec, out := postJSON(t, s.handleQuery,
		`{"query": `+mustJSON(demoQuery)+`, "explain": true}`)
	if rec.Code != 200 {
		t.Fatalf("explain status %d: %s", rec.Code, rec.Body)
	}
	var qp struct {
		Strategy  string `json:"strategy"`
		Decisions []struct {
			Name   string `json:"name"`
			Forced bool   `json:"forced"`
		} `json:"decisions"`
	}
	if err := json.Unmarshal(out["plan"], &qp); err != nil {
		t.Fatalf("plan JSON: %v", err)
	}
	if qp.Strategy == "" || len(qp.Decisions) == 0 {
		t.Fatalf("plan = %s", out["plan"])
	}
	var text string
	_ = json.Unmarshal(out["explain"], &text)
	if !strings.Contains(text, "strategy = ") || !strings.Contains(text, "plan for:") {
		t.Errorf("explain text = %q", text)
	}
	// Explaining must not publish a session.
	if _, _, err := s.session(); err == nil {
		t.Error("explain created a session")
	}

	// Each knob a request can pin — strategy, sketchDepth — comes back
	// forced; the worker count stays the planner's decision.
	rec2, out2 := postJSON(t, s.handleQuery, `{"query": `+mustJSON(demoQuery)+
		`, "explain": true, "strategy": "sketch-refine", "sketchDepth": 2}`)
	if rec2.Code != 200 {
		t.Fatalf("forced explain status %d: %s", rec2.Code, rec2.Body)
	}
	var qp2 struct {
		Decisions []struct {
			Name   string `json:"name"`
			Value  string `json:"value"`
			Forced bool   `json:"forced"`
		} `json:"decisions"`
	}
	_ = json.Unmarshal(out2["plan"], &qp2)
	want := map[string]string{"strategy": "sketch-refine", "depth": "2"}
	var forced []string
	sawWorkers := false
	for _, d := range qp2.Decisions {
		sawWorkers = sawWorkers || d.Name == "parallelism"
		if !d.Forced {
			continue
		}
		forced = append(forced, d.Name)
		if d.Value != want[d.Name] {
			t.Errorf("forced %s = %q, want %q", d.Name, d.Value, want[d.Name])
		}
	}
	if len(forced) != len(want) || !sawWorkers {
		t.Errorf("forced decisions %v (parallelism present: %v), want exactly %v: %s", forced, sawWorkers, want, out2["plan"])
	}

	// A sketchIncr key from an older client names a field the server no
	// longer reads, and a second value after the request is input no
	// handler reads either: each is a 400, not silently ignored.
	for body, names := range map[string]string{
		`{"query": ` + mustJSON(demoQuery) + `, "explain": true, "sketchIncr": false}`: `"sketchIncr"`,
		`{"query": ` + mustJSON(demoQuery) + `, "explain": true} {"sketchDepth": 2}`:   "continues after its JSON value",
	} {
		rec3, out3 := postJSON(t, s.handleQuery, body)
		var code, msg string
		_ = json.Unmarshal(out3["code"], &code)
		_ = json.Unmarshal(out3["error"], &msg)
		if rec3.Code != http.StatusBadRequest || code != "bad_request" || !strings.Contains(msg, names) {
			t.Errorf("%s: status %d, body %s; want a 400 bad_request naming %s", body, rec3.Code, rec3.Body, names)
		}
	}
}

// TestPlannedStrategyStat checks every query response reports the
// planner's pick alongside the executed strategy.
func TestPlannedStrategyStat(t *testing.T) {
	s := testServer(t)
	rec, out := postJSON(t, s.handleQuery, `{"query": `+mustJSON(demoQuery)+`}`)
	if rec.Code != 200 {
		t.Fatalf("query status %d: %s", rec.Code, rec.Body)
	}
	var stats map[string]any
	_ = json.Unmarshal(out["stats"], &stats)
	ps, _ := stats["plannedStrategy"].(string)
	if ps == "" {
		t.Errorf("stats.plannedStrategy missing: %v", stats)
	}
}

// TestSnapshotStats: the response says how the candidates were found —
// scanned for on the first POST of a query, served by the table's
// candidate snapshot on a repeat.
func TestSnapshotStats(t *testing.T) {
	s := testServer(t)
	for i, want := range []struct {
		hit     bool
		scanned bool
	}{{false, true}, {true, false}} {
		rec, out := postJSON(t, s.handleQuery, `{"query": `+mustJSON(demoQuery)+`}`)
		if rec.Code != 200 {
			t.Fatalf("query status %d: %s", rec.Code, rec.Body)
		}
		var stats struct {
			RowsScanned *int  `json:"rowsScanned"`
			SnapshotHit *bool `json:"snapshotHit"`
		}
		if err := json.Unmarshal(out["stats"], &stats); err != nil || stats.RowsScanned == nil || stats.SnapshotHit == nil {
			t.Fatalf("POST %d: stats lack rowsScanned/snapshotHit: %s", i+1, out["stats"])
		}
		if *stats.SnapshotHit != want.hit || (*stats.RowsScanned > 0) != want.scanned {
			t.Errorf("POST %d: snapshotHit=%v rowsScanned=%d", i+1, *stats.SnapshotHit, *stats.RowsScanned)
		}
	}
}

// TestAdmissionShedding saturates a 1-slot/0-queue controller and
// checks the shed response: 429, a Retry-After hint, and the machine
// code "admission".
func TestAdmissionShedding(t *testing.T) {
	s := testServer(t)
	s.adm = lifecycle.NewController(1, 0)
	release, err := s.adm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	rec, _ := postJSON(t, s.handleQuery, `{"query": `+mustJSON(demoQuery)+`}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated query status = %d: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	var body map[string]string
	_ = json.Unmarshal(rec.Body.Bytes(), &body)
	if body["code"] != "admission" {
		t.Errorf("code = %q, want admission", body["code"])
	}
	// Draining sheds the same way.
	s.adm = lifecycle.NewController(1, 0)
	s.adm.BeginDrain()
	rec2, _ := postJSON(t, s.handleQuery, `{"query": `+mustJSON(demoQuery)+`}`)
	if rec2.Code != http.StatusTooManyRequests {
		t.Errorf("draining query status = %d", rec2.Code)
	}
	// The slot freed: a fresh controller admits again.
	s.adm = lifecycle.NewController(1, 0)
	rec3, _ := postJSON(t, s.handleQuery, `{"query": `+mustJSON(demoQuery)+`}`)
	if rec3.Code != 200 {
		t.Errorf("post-shed query status = %d: %s", rec3.Code, rec3.Body)
	}
}

// TestTypedErrorStatuses checks each lifecycle outcome maps to its
// HTTP status and code field.
func TestTypedErrorStatuses(t *testing.T) {
	s := testServer(t)
	// Provably infeasible: 422 / infeasible.
	infeasible := `SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) >= 5 AND COUNT(*) <= 2`
	rec, _ := postJSON(t, s.handleQuery, `{"query": `+mustJSON(infeasible)+`}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("infeasible status = %d: %s", rec.Code, rec.Body)
	}
	var body map[string]string
	_ = json.Unmarshal(rec.Body.Bytes(), &body)
	if body["code"] != "infeasible" {
		t.Errorf("code = %q, want infeasible", body["code"])
	}
	// A type error the analyzer names is the client's: plain 400.
	typed := `SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 2 AND MIN(P.name) >= 1`
	if rec, _ := postJSON(t, s.handleQuery, `{"query": `+mustJSON(typed)+`}`); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "MIN(R.name)") {
		t.Errorf("type error: status %d, body %s; want 400 naming the atom", rec.Code, rec.Body)
	}
	// Memory budget refusal: 422 / budget.
	s.base.MemoryBudget = 1
	rec2, _ := postJSON(t, s.handleQuery, `{"query": `+mustJSON(demoQuery)+`}`)
	if rec2.Code != http.StatusUnprocessableEntity {
		t.Errorf("budget status = %d: %s", rec2.Code, rec2.Body)
	}
	_ = json.Unmarshal(rec2.Body.Bytes(), &body)
	if body["code"] != "budget" {
		t.Errorf("code = %q, want budget", body["code"])
	}
	s.base.MemoryBudget = 0
	// Dead request context: 408 / canceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/api/query",
		strings.NewReader(`{"query": `+mustJSON(demoQuery)+`}`)).WithContext(ctx)
	rec3 := httptest.NewRecorder()
	s.handleQuery(rec3, req)
	if rec3.Code != http.StatusRequestTimeout {
		t.Errorf("canceled status = %d: %s", rec3.Code, rec3.Body)
	}
	_ = json.Unmarshal(rec3.Body.Bytes(), &body)
	if body["code"] != "canceled" {
		t.Errorf("code = %q, want canceled", body["code"])
	}
}

// TestLifecycleEndpoint checks the ops counters surface.
func TestLifecycleEndpoint(t *testing.T) {
	s := testServer(t)
	if rec, _ := postJSON(t, s.handleQuery, `{"query": `+mustJSON(demoQuery)+`}`); rec.Code != 200 {
		t.Fatalf("seed query: %s", rec.Body)
	}
	req := httptest.NewRequest("GET", "/api/lifecycle", nil)
	rec := httptest.NewRecorder()
	s.handleLifecycle(rec, req)
	var st struct {
		Admitted uint64 `json:"admitted"`
		Draining bool   `json:"draining"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Admitted != 1 || st.Draining {
		t.Errorf("stats = %+v", st)
	}
}

// TestExplainIsAdmitted: EXPLAIN parses, scans and plans, so it takes an
// admission slot like a query: with every slot held it is shed, and once
// it has run its slot is free again.
func TestExplainIsAdmitted(t *testing.T) {
	s := testServer(t)
	s.adm = lifecycle.NewController(1, 0)
	release, err := s.adm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	explain := `{"query": ` + mustJSON(demoQuery) + `, "explain": true}`
	if rec, _ := postJSON(t, s.handleQuery, explain); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("explain with every slot held: status %d, want 429: %s", rec.Code, rec.Body)
	}
	release()
	if rec, _ := postJSON(t, s.handleQuery, explain); rec.Code != 200 {
		t.Fatalf("explain with a free slot: status %d: %s", rec.Code, rec.Body)
	}
	rec := httptest.NewRecorder()
	s.handleLifecycle(rec, httptest.NewRequest("GET", "/api/lifecycle", nil))
	var st struct {
		InFlight int    `json:"inFlight"`
		Admitted uint64 `json:"admitted"`
		Shed     uint64 `json:"shed"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.InFlight != 0 || st.Admitted != 2 || st.Shed != 1 {
		t.Errorf("lifecycle after a shed and an admitted explain = %+v, want in-flight 0, admitted 2, shed 1", st)
	}
}

// TestExplainStatementAnswersWithPlan: an EXPLAIN statement in the query
// text is answered as "explain": true is, with the plan, and is not
// executed.
func TestExplainStatementAnswersWithPlan(t *testing.T) {
	s := testServer(t)
	rec, out := postJSON(t, s.handleQuery, `{"query": `+mustJSON("EXPLAIN "+demoQuery)+`}`)
	if rec.Code != 200 || out["plan"] == nil {
		t.Fatalf("EXPLAIN statement: status %d, body %.300s; want 200 with the plan", rec.Code, rec.Body)
	}
	var explain string
	if err := json.Unmarshal(out["explain"], &explain); err != nil || !strings.HasPrefix(explain, "plan for: ") {
		t.Errorf("EXPLAIN statement: explain = %.200q, %v; want the rendered plan", explain, err)
	}
	if out["stats"] != nil || s.ses != nil {
		t.Errorf("EXPLAIN statement was executed: %.300s", rec.Body)
	}
}

// TestDeepQueryIsABadRequest: a formula nested past the parser's depth cap
// is the client's error, refused before anything recurses through it.
func TestDeepQueryIsABadRequest(t *testing.T) {
	s := testServer(t)
	deep := `SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT ` +
		strings.Repeat("(", 400000) + "COUNT(*) = 1" + strings.Repeat(")", 400000)
	for _, explain := range []string{"false", "true"} {
		rec, _ := postJSON(t, s.handleQuery, `{"query": `+mustJSON(deep)+`, "explain": `+explain+`}`)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "nests too deeply") {
			t.Errorf("explain %s: status %d, body %.200s; want 400 naming the depth cap", explain, rec.Code, rec.Body)
		}
	}
}

func TestBodyLimitRejectsHugePayload(t *testing.T) {
	s := testServer(t)
	huge := strings.Repeat("x", maxBodyBytes+1024)
	rec, _ := postJSON(t, s.handleQuery, `{"query": `+mustJSON(huge)+`}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("oversized body status = %d", rec.Code)
	}
}

// TestRequestIDInErrorBody checks every error payload carries a
// request ID and the X-Request-Id header is echoed.
func TestRequestIDInErrorBody(t *testing.T) {
	s := testServer(t)
	rec, _ := postJSON(t, s.handleQuery, `{"query": "garbage"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d", rec.Code)
	}
	var body map[string]string
	_ = json.Unmarshal(rec.Body.Bytes(), &body)
	if body["requestId"] == "" {
		t.Error("error body missing requestId")
	}
	if rec.Header().Get("X-Request-Id") != body["requestId"] {
		t.Errorf("header id %q != body id %q", rec.Header().Get("X-Request-Id"), body["requestId"])
	}
	// Shed responses (429) carry one too.
	s.adm = lifecycle.NewController(1, 0)
	release, err := s.adm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	rec2, _ := postJSON(t, s.handleQuery, `{"query": `+mustJSON(demoQuery)+`}`)
	if rec2.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d", rec2.Code)
	}
	_ = json.Unmarshal(rec2.Body.Bytes(), &body)
	if body["requestId"] == "" {
		t.Error("429 body missing requestId")
	}
}

// TestRequestIDsUnique checks the middleware mints distinct IDs.
func TestRequestIDsUnique(t *testing.T) {
	a, b := newRequestID(), newRequestID()
	if a == b {
		t.Fatalf("duplicate request ids: %q", a)
	}
}

// TestHealthEndpoints drives the degradation registry end to end: a
// healthy solve reports ok, an injected store fault flips /healthz to
// degraded with the subsystem named, and a following clean solve
// clears it. /readyz flips to 503 on drain.
func TestHealthEndpoints(t *testing.T) {
	s := testServer(t)
	s.base.SketchPersistDir = t.TempDir()
	get := func(h http.HandlerFunc, path string) (*httptest.ResponseRecorder, map[string]json.RawMessage) {
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		h(rec, req)
		var out map[string]json.RawMessage
		_ = json.Unmarshal(rec.Body.Bytes(), &out)
		return rec, out
	}
	if rec, _ := postJSON(t, s.handleQuery, `{"query": `+mustJSON(demoQuery)+`, "strategy": "sketch-refine"}`); rec.Code != 200 {
		t.Fatalf("seed query: %s", rec.Body)
	}
	rec, out := get(s.handleHealthz, "/healthz")
	if rec.Code != 200 || string(out["degraded"]) != "false" {
		t.Fatalf("healthy healthz = %d %s", rec.Code, rec.Body)
	}

	// Inject a store-load fault: the solve degrades, health flips.
	restore := fault.Enable(fault.NewInjector(1,
		fault.Rule{Site: "sketch.store.load", Kind: fault.KindError}))
	rec2, out2 := postJSON(t, s.handleQuery, `{"query": `+mustJSON(demoQuery)+`, "strategy": "sketch-refine"}`)
	restore()
	if rec2.Code != 200 {
		t.Fatalf("degraded query status %d: %s", rec2.Code, rec2.Body)
	}
	var stats map[string]any
	_ = json.Unmarshal(out2["stats"], &stats)
	if deg, _ := stats["degraded"].(bool); !deg {
		// The tree may have been cached in memory by the seed query; a
		// fresh cache forces the store path.
		t.Logf("stats = %v", stats)
	}
	degNow, _ := s.health.Degraded()
	if degNow {
		rec3, _ := get(s.handleHealthz, "/healthz")
		if !strings.Contains(rec3.Body.String(), `"degraded":true`) {
			t.Errorf("healthz after fault = %s", rec3.Body)
		}
		// A clean solve clears the board.
		if rec4, _ := postJSON(t, s.handleQuery, `{"query": `+mustJSON(demoQuery)+`}`); rec4.Code != 200 {
			t.Fatalf("clean query: %s", rec4.Body)
		}
		if d, reasons := s.health.Degraded(); d {
			t.Errorf("health still degraded after clean solve: %v", reasons)
		}
	}

	// readyz: ready until draining.
	rec5, _ := get(s.handleReadyz, "/readyz")
	if rec5.Code != 200 {
		t.Errorf("readyz = %d", rec5.Code)
	}
	s.adm.BeginDrain()
	rec6, _ := get(s.handleReadyz, "/readyz")
	if rec6.Code != http.StatusServiceUnavailable {
		t.Errorf("draining readyz = %d", rec6.Code)
	}
}

// TestInjectedPanicBecomes500AndDrainsSlot injects a panic at the
// solve site and checks (a) the response is a typed 500 with a request
// ID, and (b) the admission slot was released — the next query runs on
// a 1-slot controller.
func TestInjectedPanicBecomes500AndDrainsSlot(t *testing.T) {
	s := testServer(t)
	s.adm = lifecycle.NewController(1, 0)
	restore := fault.Enable(fault.NewInjector(1,
		fault.Rule{Site: "core.solve", Kind: fault.KindPanic, Limit: 1}))
	rec, _ := postJSON(t, s.handleQuery, `{"query": `+mustJSON(demoQuery)+`}`)
	restore()
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicked solve status = %d: %s", rec.Code, rec.Body)
	}
	var body map[string]string
	_ = json.Unmarshal(rec.Body.Bytes(), &body)
	if body["code"] != "internal" || body["requestId"] == "" {
		t.Errorf("500 body = %v", body)
	}
	// The slot drained: the same 1-slot controller admits the retry.
	rec2, _ := postJSON(t, s.handleQuery, `{"query": `+mustJSON(demoQuery)+`}`)
	if rec2.Code != 200 {
		t.Errorf("post-panic query status = %d: %s", rec2.Code, rec2.Body)
	}
	if st := s.adm.Stats(); st.InFlight != 0 {
		t.Errorf("inFlight = %d after panic, want 0", st.InFlight)
	}
}

// TestHealthyRunReportsNotDegraded pins the acceptance criterion:
// without any injector installed, query stats report degraded=false.
func TestHealthyRunReportsNotDegraded(t *testing.T) {
	s := testServer(t)
	rec, out := postJSON(t, s.handleQuery, `{"query": `+mustJSON(demoQuery)+`, "strategy": "sketch-refine"}`)
	if rec.Code != 200 {
		t.Fatalf("query: %s", rec.Body)
	}
	var stats map[string]any
	_ = json.Unmarshal(out["stats"], &stats)
	deg, ok := stats["degraded"].(bool)
	if !ok || deg {
		t.Errorf("stats.degraded = %v (ok=%v), want false", stats["degraded"], ok)
	}
	if _, present := stats["degradedReason"]; present {
		t.Error("degradedReason present on a healthy run")
	}
}

// TestStatsSketchIsTheSolversRecord: the "stats" object of a sketch
// answer carries the solver's record itself — the very pointer
// Stats.Sketch holds, marshalled by its own struct tags — so every tagged
// field of sketch.Result is a wire key with the record's value, and the
// certificate line is the one the CLI prints.
func TestStatsSketchIsTheSolversRecord(t *testing.T) {
	s := testServer(t)
	rec, out := postJSON(t, s.handleQuery, `{"query": `+mustJSON(demoQuery)+`, "strategy": "sketch-refine"}`)
	if rec.Code != 200 {
		t.Fatalf("query status %d: %s", rec.Code, rec.Body)
	}
	st := s.ses.Stats()
	if st.Sketch == nil {
		t.Fatal("a sketch-refine answer left no Stats.Sketch")
	}
	if js := s.packageJSON(s.ses, s.ses.Current(), st); js.Stats.SketchStats != st.Sketch {
		t.Error("the handler marshals a copy of the sketch record, not the record")
	}
	var wire, record map[string]any
	_ = json.Unmarshal(out["stats"], &wire)
	flat, _ := json.Marshal(st.Sketch)
	_ = json.Unmarshal(flat, &record)
	for _, key := range []string{"partitions", "sketchLevels", "sketchTopVars", "sketchBranches", "sketchAtomRewrites", "sketchCacheHit",
		"sketchTreeLoaded", "sketchTreePatched", "sketchDeltaApplied", "sketchCoalesced", "sketchWorkers"} {
		if _, ok := record[key]; !ok {
			t.Errorf("sketch.Result lost its %q tag", key)
		}
	}
	for key, v := range record {
		if wire[key] != v {
			t.Errorf("stats.%s = %v, the record says %v", key, wire[key], v)
		}
	}
	if want := st.CertifiedLine(s.ses.Current().Objective); want == "" || wire["certifiedText"] != want {
		t.Errorf("stats.certifiedText = %v, want %q", wire["certifiedText"], want)
	}
	for _, key := range []string{"certified", "boundValue", "gap", "gapText", "boundStage", "sketchCacheHits", "sketchCacheMisses", "sketchFPRowsHashed", "memoryEstimate"} {
		if _, ok := wire[key]; !ok {
			t.Errorf("stats.%s is gone from the wire", key)
		}
	}
}

// TestSummaryRunsUnderSessionOptions: /api/summary re-runs the session's
// query under the options the session was opened with. After a forced
// sketch-refine query the summary's run is sketch-refine too, so it is
// served from the tree that query cached.
func TestSummaryRunsUnderSessionOptions(t *testing.T) {
	s := testServer(t)
	if rec, _ := postJSON(t, s.handleQuery, `{"query": `+mustJSON(demoQuery)+`, "strategy": "sketch-refine"}`); rec.Code != 200 {
		t.Fatalf("query: %s", rec.Body)
	}
	before := s.sys.SketchCache().Stats()
	rec := httptest.NewRecorder()
	s.handleSummary(rec, httptest.NewRequest("GET", "/api/summary", nil))
	if rec.Code != 200 {
		t.Fatalf("summary: %d %s", rec.Code, rec.Body)
	}
	if after := s.sys.SketchCache().Stats(); after.Hits <= before.Hits {
		t.Errorf("summary left the tree cache untouched (hits %d -> %d): it ran another plan than the session's", before.Hits, after.Hits)
	}
}

// TestRequestCannotSetServerOptions: the request struct names its four
// fields and embeds nothing, so a key that spells one of the server's own
// options — where it writes trees, its memory budget, its time budget —
// is an unknown field: the request is refused with a 400 naming it, and
// no file is written.
func TestRequestCannotSetServerOptions(t *testing.T) {
	s := testServer(t)
	dir := t.TempDir()
	for _, extra := range []string{`"SketchPersistDir": ` + mustJSON(dir), `"sketchDir": ` + mustJSON(dir),
		`"MemoryBudget": 1`, `"timeout": 1`} {
		rec, out := postJSON(t, s.handleQuery, `{"query": `+mustJSON(demoQuery)+`, "strategy": "sketch-refine", `+extra+`}`)
		var msg string
		_ = json.Unmarshal(out["error"], &msg)
		if name, _, _ := strings.Cut(extra, ":"); rec.Code != http.StatusBadRequest || !strings.Contains(msg, name) {
			t.Errorf("query with %s: %d %s, want a 400 naming %s", extra, rec.Code, rec.Body, name)
		}
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("a request key made the server write %d file(s) under %s", len(files), dir)
	}
}

// TestNewServerWiresFlagsAndRoutes runs the command's whole set-up in
// process: the flags land in the server's options, admission and drain
// window, the table is loaded, and every route answers through the
// middleware with a request ID.
func TestNewServerWiresFlagsAndRoutes(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, ".pbtree-123456789")
	if err := os.WriteFile(orphan, []byte("half a tree"), 0o644); err != nil {
		t.Fatal(err)
	}
	var errOut strings.Builder
	s, srv, drain, err := newServer([]string{"-addr", "127.0.0.1:0", "-n", "60", "-seed", "7", "-sketch-dir", dir,
		"-max-inflight", "1", "-max-queue", "0", "-mem-budget", "1000000000", "-timeout", "5s", "-drain", "3s"}, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Addr != "127.0.0.1:0" || drain != 3*time.Second {
		t.Fatalf("addr %q, drain %s", srv.Addr, drain)
	}
	if s.base.SketchPersistDir != dir || s.base.MemoryBudget != 1e9 || s.base.Timeout != 5*time.Second || s.base.Seed != 1 {
		t.Fatalf("server options %+v", s.base)
	}
	if !strings.Contains(errOut.String(), "(60 recipes)") {
		t.Fatalf("banner %q", errOut.String())
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("startup sweep left the orphan: %v", err)
	}
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Header().Get("X-Request-Id") == "" {
			t.Errorf("%s %s: no X-Request-Id", method, path)
		}
		return rec
	}
	if rec := serve("GET", "/", ""); rec.Code != 200 || !strings.Contains(rec.Body.String(), "PackageBuilder") {
		t.Fatalf("index: %d", rec.Code)
	}
	rec := serve("POST", "/api/query", `{"query": `+mustJSON(demoQuery)+`}`)
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"candidates":`) {
		t.Fatalf("query: %d %s", rec.Code, rec.Body)
	}
	for _, path := range []string{"/api/summary", "/api/suggest?column=fat", "/api/lifecycle", "/healthz", "/readyz"} {
		if rec := serve("GET", path, ""); rec.Code != 200 {
			t.Errorf("GET %s: %d %s", path, rec.Code, rec.Body)
		}
	}
	for _, path := range []string{"/api/replace", "/api/pin"} {
		if rec := serve("POST", path, `{}`); rec.Code == http.StatusNotFound {
			t.Errorf("POST %s is not routed", path)
		}
	}
	// -max-inflight 1 -max-queue 0: with the one slot held, a query sheds.
	release, err := s.adm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec := serve("POST", "/api/query", `{"query": `+mustJSON(demoQuery)+`}`); rec.Code != http.StatusTooManyRequests {
		t.Errorf("query past the admission limits: %d", rec.Code)
	}
	release()
	if rec := serve("POST", "/api/query", `{"query": `+mustJSON(strings.Repeat(" ", maxBodyBytes))+`}`); rec.Code != http.StatusBadRequest {
		t.Errorf("a body past the cap: %d", rec.Code)
	}
}

// TestNewServerRefusesABadCommandLine: an unknown flag, the removed
// -sketch-incr among them, stops the set-up with the usage; -h asks for
// the usage alone.
func TestNewServerRefusesABadCommandLine(t *testing.T) {
	for _, args := range [][]string{{"-nope"}, {"-sketch-incr=false"}, {"-max-queue", "many"}} {
		var errOut strings.Builder
		if _, _, _, err := newServer(args, &errOut); !errors.Is(err, errUsage) {
			t.Fatalf("%v: err %v, want errUsage", args, err)
		}
		if !strings.Contains(errOut.String(), "Usage of pbserver") || !strings.Contains(errOut.String(), "-max-inflight") {
			t.Fatalf("%v: no usage in %q", args, errOut.String())
		}
	}
	if _, _, _, err := newServer([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err %v, want flag.ErrHelp", err)
	}
}

// TestPanickingHandlerIsATyped500: a handler that panics below the
// middleware answers a typed 500 whose body and X-Request-Id header
// carry the same request ID, instead of a dropped connection.
func TestPanickingHandlerIsATyped500(t *testing.T) {
	s := testServer(t)
	var seen string
	h := s.withRequest(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = requestID(r)
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/summary", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body %q: %v", rec.Body, err)
	}
	id := rec.Header().Get("X-Request-Id")
	if id == "" || body["requestId"] != id || seen != id {
		t.Fatalf("header id %q, body id %q, handler's id %q: want one ID", id, body["requestId"], seen)
	}
	if body["code"] != "internal" || !strings.Contains(body["error"], "panic: boom") {
		t.Fatalf("body %v, want code internal naming the panic", body)
	}
}
