package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"veritas/internal/engine"
)

// reportEndpoints is every route that parses the report-family query
// grammar, store-backed and live.
var reportEndpoints = []string{
	"/v1/report", "/v1/report/cdf", "/v1/report/series", "/v1/report/percentiles",
	"/v1/live/report", "/v1/live/report/cdf", "/v1/live/report/series", "/v1/live/report/percentiles",
}

// FuzzReportQuery drives the /v1 query grammar with arbitrary raw
// queries and If-None-Match validators. Whatever the input, every
// report-family endpoint answers 200, 304, 400 or 404 — anything but a
// 304 with a JSON body — and never panics.
func FuzzReportQuery(f *testing.F) {
	for _, seed := range []string{
		"",
		"scenario=fcc&abr=bba",
		"scenario=",
		"arm=bba-5s&metric=rebuf&estimator=truth",
		"arm=bba-5s&percentiles=50,95,99",
		"arm=nosuch&metric=bogus",
		"%zz&arm=bba-5s;x",
	} {
		f.Add(seed, "")
	}
	f.Add("arm=bba-5s", "*")

	parent := f.TempDir()
	var shards [][]engine.SessionRow
	for i, scen := range []string{"fcc", "lte", "wifi"} {
		shards = append(shards, []engine.SessionRow{testRow(2*i, scen), testRow(2*i+1, scen)})
	}
	writers := shardFixture(f, parent, shards)
	// The store-backed handler serves the first shard's store; the live
	// tier combines all three. Its refresh is throttled so the fuzz loop
	// measures the grammar, not directory listings.
	stored := New(writers[0])
	live := newLive(parent, time.Hour)
	f.Cleanup(func() { live.Close() })

	f.Fuzz(func(t *testing.T, rawQuery, ifNoneMatch string) {
		for _, path := range reportEndpoints {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			req.URL.RawQuery = rawQuery
			if ifNoneMatch != "" {
				req.Header.Set("If-None-Match", ifNoneMatch)
			}
			rec := httptest.NewRecorder()
			var h http.Handler = stored
			if strings.HasPrefix(path, "/v1/live/") {
				h = live
			}
			h.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusNotModified:
				continue
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
			default:
				t.Fatalf("%s?%s: HTTP %d %s", path, rawQuery, rec.Code, rec.Body.Bytes())
			}
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s?%s: HTTP %d with a non-JSON body %q", path, rawQuery, rec.Code, rec.Body.Bytes())
			}
		}
	})
}
