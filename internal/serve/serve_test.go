package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"veritas/internal/engine"
	"veritas/internal/player"
	"veritas/internal/store"
)

// testRow synthesizes a plausible session row without running any
// inference.
func testRow(i int, scenario string) engine.SessionRow {
	m := player.Metrics{AvgSSIM: 0.9 + float64(i)*1e-3, RebufRatio: 0.01 * float64(i%5), AvgBitrateMbps: 2 + float64(i%7), NumChunks: 30}
	return engine.SessionRow{
		Index:     i,
		ID:        fmt.Sprintf("%s-%03d", scenario, i),
		Scenario:  scenario,
		Simulated: true,
		SettingA:  m,
		Arms: []engine.ArmOutcome{{
			Name:     "bba-5s",
			Baseline: m,
			Samples:  []player.Metrics{m, m, m},
			Truth:    m,
			HasTruth: true,
		}},
		Predictions: []float64{1.5, float64(i)},
	}
}

// doGet issues a GET with an optional If-None-Match validator.
func doGet(t *testing.T, h http.Handler, path, etag string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// envelope decodes the uniform error body and fails on any other shape.
func envelope(t *testing.T, body []byte) (message, param string) {
	t.Helper()
	var e struct {
		Error struct {
			Message string `json:"message"`
			Param   string `json:"param"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body is not the JSON envelope: %q (%v)", body, err)
	}
	if e.Error.Message == "" {
		t.Fatalf("error envelope has no message: %q", body)
	}
	return e.Error.Message, e.Error.Param
}

func sessionsIn(t *testing.T, rec *httptest.ResponseRecorder) int {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d %s", rec.Code, rec.Body.Bytes())
	}
	var rep engine.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	return rep.Sessions
}

// TestWatchIntervalThrottlesRefresh pins WithWatchInterval: within one
// interval a handler over a watch store answers from the view its first
// request tailed, however much the writer appends meanwhile.
func TestWatchIntervalThrottlesRefresh(t *testing.T) {
	dir := t.TempDir()
	w, err := store.Create(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 2; i++ {
		if err := w.Append(testRow(i, "fcc")); err != nil {
			t.Fatal(err)
		}
	}
	ws, err := store.OpenWatch(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	h := New(ws, WithWatchInterval(time.Hour))

	first := doGet(t, h, "/v1/report", "")
	etag := first.Header().Get("ETag")
	if n := sessionsIn(t, first); n != 2 {
		t.Fatalf("first report covers %d sessions, want 2", n)
	}
	if err := w.Append(testRow(2, "fcc")); err != nil {
		t.Fatal(err)
	}
	rec := doGet(t, h, "/v1/report", "")
	if got := rec.Header().Get("ETag"); got != etag {
		t.Errorf("ETag moved inside the watch interval: %q -> %q", etag, got)
	}
	if n := sessionsIn(t, rec); n != 2 {
		t.Errorf("throttled report covers %d sessions, want the first view's 2", n)
	}
	// The append is tailable: an unthrottled handler sees it.
	if n := sessionsIn(t, doGet(t, New(ws), "/v1/report", "")); n != 3 {
		t.Errorf("unthrottled report covers %d sessions, want 3", n)
	}
}

// TestLiveRefreshThrottle pins the live tier's rate limit: within one
// interval a shard that appears after the first request stays out of
// the combined view.
func TestLiveRefreshThrottle(t *testing.T) {
	parent := t.TempDir()
	shardFixture(t, parent, [][]engine.SessionRow{{testRow(0, "fcc")}})
	h := newLive(parent, time.Hour)
	defer h.Close()

	first := doGet(t, h, "/v1/live/report", "")
	etag := first.Header().Get("ETag")
	if n := sessionsIn(t, first); n != 1 {
		t.Fatalf("first live report covers %d sessions, want 1", n)
	}
	late, err := store.Create(filepath.Join(parent, "shard-1.store"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	if err := late.Append(testRow(1, "lte")); err != nil {
		t.Fatal(err)
	}
	if err := store.WriteShardMeta(late.Dir(), store.ShardMeta{Index: 1, Count: 2}); err != nil {
		t.Fatal(err)
	}
	rec := doGet(t, h, "/v1/live/report", "")
	if got := rec.Header().Get("ETag"); got != etag {
		t.Errorf("live ETag moved inside the refresh interval: %q -> %q", etag, got)
	}
	if n := sessionsIn(t, rec); n != 1 {
		t.Errorf("throttled live report covers %d sessions, want the first view's 1", n)
	}
	// The late shard is discoverable: an unthrottled live tier sees it.
	fresh := newLive(parent, 0)
	defer fresh.Close()
	if n := sessionsIn(t, doGet(t, fresh, "/v1/live/report", "")); n != 2 {
		t.Errorf("unthrottled live report covers %d sessions, want 2", n)
	}
}
