package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fuzzRoutes are the paths FuzzServerRequest picks among by index.
var fuzzRoutes = []string{
	"/api/query", "/api/replace", "/api/pin", "/api/suggest?column=fat",
	"/api/summary", "/api/lifecycle", "/healthz", "/readyz", "/",
}

// FuzzServerRequest drives newServer's whole handler chain over a fixed
// 60-recipe table with (route, body) pairs. Every answer is a 200 or a
// typed JSON error carrying code and requestId, no handler panics (the
// middleware would turn one into a 500 naming it), and once a request
// has returned the admission controller holds nothing in flight or
// queued. The seed corpus runs with the tier-1 tests; `go test
// -fuzz FuzzServerRequest ./cmd/pbserver` explores further.
func FuzzServerRequest(f *testing.F) {
	_, srv, _, err := newServer([]string{"-n", "60", "-timeout", "1s"}, io.Discard)
	if err != nil {
		f.Fatal(err)
	}
	route := func(path string) uint8 {
		for i, p := range fuzzRoutes {
			if p == path {
				return uint8(i)
			}
		}
		panic(path)
	}
	query := `{"query": ` + mustJSON(demoQuery) + `}`
	f.Add(route("/api/query"), query)
	f.Add(route("/api/query"), `{"query": `+mustJSON(demoQuery)+`, "sketchIncr": false}`)
	f.Add(route("/api/query"), query+` {"explain": true}`)
	f.Add(route("/api/pin"), `{"rowId": 3}x`)
	f.Add(route("/api/query"), `{"query": `+mustJSON(strings.Repeat("x", maxBodyBytes))+`}`)
	f.Add(route("/api/query"), `{"query": "SELECT PACKAGE(R) FROM recipes R SUCH THAT"}`)
	f.Add(route("/api/query"), `{"query": "garbage", "explain": true}`)
	f.Add(route("/api/pin"), `{"rowId": 99999}`)
	f.Add(route("/api/pin"), `{"rowId": 3, "unpin": true}`)
	f.Add(route("/api/pin"), `{"rowId": 999999, "unpin": true}`)
	f.Add(route("/api/pin"), `[1, 2]`)
	f.Add(route("/api/replace"), ``)
	f.Add(route("/api/summary"), ``)
	f.Add(route("/api/suggest?column=fat"), ``)
	f.Add(route("/api/lifecycle"), ``)
	f.Add(route("/healthz"), ``)
	f.Add(route("/readyz"), ``)
	f.Add(route("/"), `{}`)

	serve := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		return rec
	}
	// The pin seeds need a session to pin into.
	if rec := serve("/api/query", query); rec.Code != http.StatusOK {
		f.Fatalf("session query: %d %s", rec.Code, rec.Body)
	}
	f.Fuzz(func(t *testing.T, r uint8, body string) {
		path := fuzzRoutes[int(r)%len(fuzzRoutes)]
		rec := serve(path, body)
		if rec.Code != http.StatusOK {
			var e map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["code"] == "" || e["requestId"] == "" {
				t.Fatalf("%s %.200q: status %d with body %.300s, want a JSON error carrying code and requestId", path, body, rec.Code, rec.Body)
			}
			if rec.Code == http.StatusInternalServerError || strings.Contains(e["error"], "panic") {
				t.Fatalf("%s %.200q: %d %s", path, body, rec.Code, rec.Body)
			}
		}
		var st struct {
			InFlight *int `json:"inFlight"`
			Queued   *int `json:"queued"`
		}
		lc := serve("/api/lifecycle", "")
		if err := json.Unmarshal(lc.Body.Bytes(), &st); err != nil || st.InFlight == nil || st.Queued == nil {
			t.Fatalf("lifecycle %s: %v", lc.Body, err)
		}
		if *st.InFlight != 0 || *st.Queued != 0 {
			t.Fatalf("%s %.200q left inFlight=%d queued=%d", path, body, *st.InFlight, *st.Queued)
		}
	})
}
