//lint:file-ignore SA1019 Equivalence tests here call the deprecated
// free-function surface on purpose, to pin it against the Campaign API.

package veritas_test

// Campaign API coverage: option validation, equivalence with the
// deprecated free-function surface (including the store-backed
// cmd/fleet report path, pinned byte-for-byte), resume, streaming
// results with bounded retention, and serving.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"veritas"
)

// quickOptions is a campaign small enough for unit tests but covering
// every scenario and a 2×2 matrix.
func quickOptions() []veritas.CampaignOption {
	return []veritas.CampaignOption{
		veritas.WithSessions(1),
		veritas.WithChunks(25),
		veritas.WithSeed(1),
		veritas.WithSamples(2),
		veritas.WithWorkers(2),
		veritas.WithMatrix([]string{"bba"}, []float64{5, 30}),
	}
}

func TestCampaignOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []veritas.CampaignOption
		want string
	}{
		{"unknown scenario", []veritas.CampaignOption{veritas.WithScenarios("dialup")}, "unknown scenario"},
		{"empty scenarios", []veritas.CampaignOption{veritas.WithScenarios()}, "at least one"},
		{"duplicate scenario", []veritas.CampaignOption{veritas.WithScenarios("lte", "lte")}, "listed twice"},
		{"zero sessions", []veritas.CampaignOption{veritas.WithSessions(0)}, "must be positive"},
		{"negative chunks", []veritas.CampaignOption{veritas.WithChunks(-1)}, "negative"},
		{"zero samples", []veritas.CampaignOption{veritas.WithSamples(0)}, "must be positive"},
		{"negative workers", []veritas.CampaignOption{veritas.WithWorkers(-2)}, "negative"},
		{"bad deployed buffer", []veritas.CampaignOption{veritas.WithDeployedBuffer(0)}, "positive seconds"},
		{"unknown abr", []veritas.CampaignOption{veritas.WithMatrix([]string{"vhs"}, []float64{5})}, `unknown ABR "vhs"`},
		{"duplicate abr", []veritas.CampaignOption{veritas.WithMatrix([]string{"bba", "bba"}, []float64{5})}, "listed twice"},
		{"empty matrix", []veritas.CampaignOption{veritas.WithMatrix(nil, []float64{5})}, "at least one"},
		{"negative matrix buffer", []veritas.CampaignOption{veritas.WithMatrix([]string{"bba"}, []float64{5, -1})}, "positive seconds"},
		{"duplicate matrix buffer", []veritas.CampaignOption{veritas.WithMatrix([]string{"bba"}, []float64{5, 5})}, "listed twice"},
		{"resume without store", []veritas.CampaignOption{veritas.WithResume()}, "WithResume needs WithStore"},
		{"read-only without store", []veritas.CampaignOption{veritas.WithReadOnlyStore()}, "needs WithStore"},
		{"arms and matrix", []veritas.CampaignOption{
			veritas.WithArms(), veritas.WithMatrix([]string{"bba"}, []float64{5}),
		}, "mutually exclusive"},
		{"corpus and scenario mix", []veritas.CampaignOption{
			veritas.WithCorpus(veritas.FleetSpec{Trace: veritas.ConstantTrace(5)}),
			veritas.WithScenarios("lte"),
		}, "WithCorpus replaces"},
		{"empty corpus", []veritas.CampaignOption{veritas.WithCorpus()}, "at least one"},
		{"nil sink", []veritas.CampaignOption{veritas.WithSink(nil)}, "WithSink(nil)"},
		{"empty store dir", []veritas.CampaignOption{veritas.WithStore("")}, "needs a directory"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := veritas.NewCampaign(tc.opts...)
			if err == nil {
				t.Fatal("bad options accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCampaignMatchesDeprecatedSurface pins that the options-based path
// computes exactly what the old free functions do: same corpus, same
// arms, same aggregate report JSON.
func TestCampaignMatchesDeprecatedSurface(t *testing.T) {
	ccfg := veritas.CorpusConfig{SessionsPer: 1, NumChunks: 25, Seed: 1}
	corpus, err := veritas.BuildCorpus(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	arms, err := veritas.FleetMatrix(ccfg, []string{"bba"}, []float64{5, 30})
	if err != nil {
		t.Fatal(err)
	}
	oldRes, err := veritas.RunFleet(context.Background(),
		veritas.FleetConfig{Workers: 2, Samples: 2, Seed: 1}, corpus, arms)
	if err != nil {
		t.Fatal(err)
	}

	c, err := veritas.NewCampaign(quickOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	gotCorpus, err := c.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotCorpus) != len(corpus) {
		t.Fatalf("campaign corpus has %d sessions, old path %d", len(gotCorpus), len(corpus))
	}
	gotArms, err := c.Arms()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotArms) != len(arms) || gotArms[0].Name != arms[0].Name {
		t.Fatalf("campaign arms %v diverge from old path", len(gotArms))
	}
	newRes, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	oldJSON, err := json.Marshal(oldRes.Agg.Report())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Report()
	if err != nil {
		t.Fatal(err)
	}
	newJSON, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oldJSON, newJSON) {
		t.Fatalf("campaign report != RunFleet report\nold %s\nnew %s", oldJSON, newJSON)
	}
	if newRes.Executed != oldRes.Executed {
		t.Errorf("executed %d sessions, old path %d", newRes.Executed, oldRes.Executed)
	}
}

// pr2StoreReport replicates, verbatim, what cmd/fleet printed for a
// -store campaign before the Campaign API existed: the campaign.json
// fingerprint, the streamed store, and the store-backed corpus report.
// The equivalence test holds the new path to these exact bytes.
func pr2StoreReport(t *testing.T, dir string) (meta, report []byte) {
	t.Helper()
	type campaignMeta struct {
		Scenarios   []string
		SessionsPer int
		Chunks      int
		Samples     int
		Seed        int64
		Buffer      float64
		ABRs        []string
		Buffers     []float64
	}
	metaBytes, err := json.MarshalIndent(campaignMeta{
		SessionsPer: 1,
		Chunks:      25,
		Samples:     2,
		Seed:        1,
		Buffer:      5, // cmd/fleet's -buffer flag default
		ABRs:        []string{"bba"},
		Buffers:     []float64{5, 30},
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "campaign.json"), metaBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	ccfg := veritas.CorpusConfig{SessionsPer: 1, NumChunks: 25, Seed: 1}
	corpus, err := veritas.BuildCorpus(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	arms, err := veritas.FleetMatrix(ccfg, []string{"bba"}, []float64{5, 30})
	if err != nil {
		t.Fatal(err)
	}
	st, err := veritas.OpenStore(dir, veritas.FleetStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fcfg := veritas.FleetConfig{Workers: 2, Samples: 2, Seed: 1, Sink: st}
	if _, err := veritas.RunFleet(context.Background(), fcfg, corpus, arms); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	agg, err := st.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "== corpus report: %d sessions stored in %s ==\n", st.Len(), dir)
	if err := agg.Report().WriteAggregate(&out); err != nil {
		t.Fatal(err)
	}
	return metaBytes, out.Bytes()
}

// TestStoreTextReportGolden pins the text rendering of the fixed
// pr2StoreReport corpus to a capture taken from the row-scan renderer
// that preceded Report.WriteAggregate, so the text stays byte-identical
// across reducer changes. The capture is amd64's: other architectures
// may fuse multiply-adds and move the last printed digit.
func TestStoreTextReportGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden captured on amd64")
	}
	_, report := pr2StoreReport(t, t.TempDir())
	_, body, _ := bytes.Cut(report, []byte("\n")) // drop the path-bearing header
	want, err := os.ReadFile(filepath.Join("testdata", "fleet_report.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("text report drifted from testdata/fleet_report.golden\ngot:\n%s\nwant:\n%s", body, want)
	}
}

// TestCampaignRejectsDuplicateSessionIDs: two corpus specs sharing an
// ID used to count twice in an in-RAM report but once in a stored one
// (the store keeps the last write). Both paths must refuse the corpus.
func TestCampaignRejectsDuplicateSessionIDs(t *testing.T) {
	corpus, err := veritas.BuildCorpus(veritas.CorpusConfig{SessionsPer: 1, NumChunks: 25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	specs := corpus[:2]
	specs[0].ID, specs[1].ID = "dup", "dup"
	for _, stored := range []bool{false, true} {
		opts := []veritas.CampaignOption{veritas.WithCorpus(specs...), veritas.WithChunks(25),
			veritas.WithSamples(2), veritas.WithSeed(1), veritas.WithMatrix([]string{"bba"}, []float64{5})}
		if stored {
			opts = append(opts, veritas.WithStore(filepath.Join(t.TempDir(), "dup.store")))
		}
		c, err := veritas.NewCampaign(opts...)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Run(context.Background())
		if err == nil || !strings.Contains(err.Error(), `sessions 0 and 1 share ID "dup"`) {
			t.Fatalf("stored=%v: Run error %v, want a duplicate-ID rejection", stored, err)
		}
	}
}

// deterministicPrefix strips the engine-stats footer (wall-clock
// timings) so store reports can be compared byte-for-byte.
func deterministicPrefix(report []byte) []byte {
	if i := bytes.Index(report, []byte("\n-- engine --\n")); i >= 0 {
		return report[:i]
	}
	return report
}

// TestCampaignStoreOutputMatchesPR2 is the API-redesign equivalence
// gate: a stored campaign run through the new Campaign surface must
// write the exact campaign.json fingerprint and print the exact
// store-backed corpus report that the pre-Campaign cmd/fleet plumbing
// produced — stores written by old binaries stay resumable, scripts
// parsing fleet output keep working.
func TestCampaignStoreOutputMatchesPR2(t *testing.T) {
	oldDir := filepath.Join(t.TempDir(), "old.store")
	if err := os.MkdirAll(oldDir, 0o755); err != nil {
		t.Fatal(err)
	}
	wantMeta, wantReport := pr2StoreReport(t, oldDir)
	// The old header embeds the store path; rewrite it to the new dir
	// for comparison.
	newDir := filepath.Join(t.TempDir(), "new.store")
	wantReport = bytes.Replace(wantReport, []byte(oldDir), []byte(newDir), 1)

	c, err := veritas.NewCampaign(append(quickOptions(), veritas.WithStore(newDir))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	gotMeta, err := os.ReadFile(filepath.Join(newDir, "campaign.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantMeta, gotMeta) {
		t.Errorf("campaign.json diverged from the PR2 fingerprint\nwant %s\ngot  %s", wantMeta, gotMeta)
	}
	var got bytes.Buffer
	if err := c.WriteReport(&got); err != nil {
		t.Fatal(err)
	}
	if want, have := deterministicPrefix(wantReport), deterministicPrefix(got.Bytes()); !bytes.Equal(want, have) {
		t.Errorf("store report diverged from the PR2 output\nwant:\n%s\ngot:\n%s", want, have)
	}
	if !bytes.Contains(got.Bytes(), []byte("-- engine --")) {
		t.Error("campaign report lost the engine-stats footer")
	}

	// And a campaign re-opened over the PR2-written store accepts its
	// fingerprint: old stores resume under the new surface.
	c2, err := veritas.NewCampaign(append(quickOptions(), veritas.WithStore(oldDir), veritas.WithResume())...)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	res, err := c2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 0 {
		t.Errorf("resume over a complete PR2 store executed %d sessions, want 0", res.Executed)
	}
}

func TestCampaignFingerprintMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	c, err := veritas.NewCampaign(append(quickOptions(), veritas.WithStore(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.Close()

	changed := []veritas.CampaignOption{
		veritas.WithSessions(1),
		veritas.WithChunks(50), // different -chunks equivalent
		veritas.WithSeed(1),
		veritas.WithSamples(2),
		veritas.WithMatrix([]string{"bba"}, []float64{5, 30}),
		veritas.WithStore(dir),
	}
	c2, err := veritas.NewCampaign(changed...)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "different settings") {
		t.Fatalf("campaign with changed chunks ran against the old store: err = %v", err)
	}
}

// TestCampaignFingerprintScope pins what the store fingerprint can and
// cannot vouch for: explicit-but-default scenario lists normalize to
// the default fingerprint (they compute the identical campaign), while
// caller-supplied pieces that cannot be serialized — a deployed-ABR
// factory, a custom corpus, explicit arms — suppress the fingerprint
// entirely rather than writing one that would vouch for settings it
// does not capture.
func TestCampaignFingerprintScope(t *testing.T) {
	// Default scenario mix writes "Scenarios": null; an explicit list
	// naming every scenario in default order is the same campaign and
	// must be accepted against that store.
	dir := t.TempDir()
	c, err := veritas.NewCampaign(append(quickOptions(), veritas.WithStore(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.Close()
	explicit, err := veritas.NewCampaign(append(quickOptions(),
		veritas.WithScenarios(veritas.Scenarios()...),
		veritas.WithStore(dir), veritas.WithResume())...)
	if err != nil {
		t.Fatal(err)
	}
	defer explicit.Close()
	res, err := explicit.Run(context.Background())
	if err != nil {
		t.Fatalf("explicit full scenario list refused against default-written store: %v", err)
	}
	if res.Executed != 0 {
		t.Errorf("resume executed %d sessions, want 0", res.Executed)
	}

	// The other direction: a store whose campaign.json spells out the
	// full list (as an old binary run with an explicit -scenarios flag
	// would have written it) must accept both the explicit-list and the
	// default-options campaign.
	explicitDir := t.TempDir()
	ce, err := veritas.NewCampaign(append(quickOptions(),
		veritas.WithScenarios(veritas.Scenarios()...),
		veritas.WithStore(explicitDir))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ce.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ce.Close()
	onDisk, err := os.ReadFile(filepath.Join(explicitDir, "campaign.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(onDisk), `"fcc"`) {
		t.Fatalf("explicit scenario list not written verbatim (PR2 compat):\n%s", onDisk)
	}
	cd, err := veritas.NewCampaign(append(quickOptions(),
		veritas.WithStore(explicitDir), veritas.WithResume())...)
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Close()
	if res, err := cd.Run(context.Background()); err != nil {
		t.Fatalf("default options refused against explicit-list store: %v", err)
	} else if res.Executed != 0 {
		t.Errorf("resume executed %d sessions, want 0", res.Executed)
	}

	// A deployed-ABR factory cannot be fingerprinted: no campaign.json
	// is written, instead of one that would silently vouch for rows
	// computed under a different Setting A.
	abrDir := t.TempDir()
	ca, err := veritas.NewCampaign(append(quickOptions(),
		veritas.WithDeployedABR(veritas.NewBBA),
		veritas.WithStore(abrDir))...)
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	if _, err := ca.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(abrDir, "campaign.json")); !os.IsNotExist(err) {
		t.Errorf("WithDeployedABR campaign wrote campaign.json (stat err = %v); a factory cannot be fingerprinted", err)
	}
}

// TestCampaignAbandonedStreamReleasesCampaign pins that an iterator
// dropped without Close or draining — only its context cancelled, the
// remediation the Results doc prescribes — still releases the campaign
// for later runs and Close.
func TestCampaignAbandonedStreamReleasesCampaign(t *testing.T) {
	c, err := veritas.NewCampaign(quickOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stream := c.Results(ctx)
	if !stream.Next() {
		t.Fatalf("no first row: %v", stream.Err())
	}
	cancel() // abandon: no further Next, no Close

	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := c.Run(context.Background()); err == nil {
			break
		} else if !strings.Contains(err.Error(), "already running") {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign still wedged 10s after the abandoned stream's context was cancelled")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := c.Close(); err != nil {
		t.Errorf("Close after abandoned stream: %v", err)
	}
}

// TestCampaignCloseRefusesWhileRunning pins that Close cannot yank the
// store out from under in-flight workers.
func TestCampaignCloseRefusesWhileRunning(t *testing.T) {
	c, err := veritas.NewCampaign(append(quickOptions(), veritas.WithStore(t.TempDir()))...)
	if err != nil {
		t.Fatal(err)
	}
	stream := c.Results(context.Background())
	if !stream.Next() {
		t.Fatalf("no first row: %v", stream.Err())
	}
	if err := c.Close(); err == nil {
		t.Error("Close succeeded while the campaign was running")
	}
	stream.Close()
	if err := stream.Err(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("Close after draining: %v", err)
	}
}

// TestCampaignResume pins the resume contract through the new surface:
// a campaign finished in two halves aggregates byte-identically to one
// uninterrupted run.
func TestCampaignResume(t *testing.T) {
	uninterrupted := filepath.Join(t.TempDir(), "full.store")
	c, err := veritas.NewCampaign(append(quickOptions(), veritas.WithStore(uninterrupted))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantRep, err := c.Report()
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Simulate a campaign killed halfway: persist only half the corpus
	// via the old plumbing, then hand the store to a resuming Campaign.
	corpus, err := veritas.BuildCorpus(veritas.CorpusConfig{SessionsPer: 1, NumChunks: 25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	arms, err := veritas.FleetMatrix(veritas.CorpusConfig{SessionsPer: 1, NumChunks: 25, Seed: 1},
		[]string{"bba"}, []float64{5, 30})
	if err != nil {
		t.Fatal(err)
	}
	partial := filepath.Join(t.TempDir(), "partial.store")
	st, err := veritas.OpenStore(partial, veritas.FleetStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	skip := make(map[string]bool)
	for _, spec := range corpus[len(corpus)/2:] {
		skip[spec.ID] = true
	}
	if _, err := veritas.RunFleet(context.Background(),
		veritas.FleetConfig{Workers: 2, Samples: 2, Seed: 1, Sink: st, Skip: skip}, corpus, arms); err != nil {
		t.Fatal(err)
	}
	st.Close()

	c2, err := veritas.NewCampaign(append(quickOptions(), veritas.WithStore(partial))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	res, err := c2.Resume(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(corpus) - len(corpus)/2; res.Executed != want {
		t.Errorf("resume executed %d sessions, want %d", res.Executed, want)
	}
	gotRep, err := c2.Report()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(wantRep)
	gotJSON, _ := json.Marshal(gotRep)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("resumed report != uninterrupted report\nwant %s\ngot  %s", wantJSON, gotJSON)
	}
}

// TestCampaignResultsStreams pins the bounded-memory streaming path on
// a 200-session campaign: every row arrives exactly once, and nothing
// per-session — no logs, no posteriors, no result slice — is retained.
func TestCampaignResultsStreams(t *testing.T) {
	const sessions = 200
	specs := make([]veritas.FleetSpec, sessions)
	for i := range specs {
		specs[i] = veritas.FleetSpec{
			ID:           fmt.Sprintf("s-%03d", i),
			Trace:        veritas.ConstantTrace(4 + float64(i%5)),
			MaxChunks:    12,
			SimulateOnly: true,
		}
	}
	c, err := veritas.NewCampaign(veritas.WithCorpus(specs...), veritas.WithWorkers(4), veritas.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	stream := c.Results(context.Background())
	seen := make(map[string]bool, sessions)
	for stream.Next() {
		row := stream.Row()
		if seen[row.ID] {
			t.Errorf("row %s streamed twice", row.ID)
		}
		seen[row.ID] = true
	}
	if err := stream.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != sessions {
		t.Fatalf("streamed %d rows, want %d", len(seen), sessions)
	}
	res := stream.Result()
	if res == nil {
		t.Fatal("no result after draining the stream")
	}
	if len(res.Sessions) != 0 {
		t.Errorf("streaming path retained %d per-session results, want 0", len(res.Sessions))
	}
	if res.Executed != sessions {
		t.Errorf("executed %d, want %d", res.Executed, sessions)
	}
	// The campaign can report (from the aggregator) after streaming.
	if _, err := c.Report(); err != nil {
		t.Fatal(err)
	}
}

func TestCampaignResultsCloseEarly(t *testing.T) {
	c, err := veritas.NewCampaign(quickOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	stream := c.Results(context.Background())
	if !stream.Next() {
		t.Fatalf("no first row: %v", stream.Err())
	}
	stream.Close()
	if err := stream.Err(); err != nil {
		t.Errorf("deliberate Close surfaced error %v", err)
	}
	// The campaign is free again after an abandoned stream.
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestCampaignServe(t *testing.T) {
	dir := t.TempDir()
	c, err := veritas.NewCampaign(append(quickOptions(), veritas.WithStore(dir), veritas.WithReadCache(16))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	h, err := c.Handler()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/report: %d", resp.StatusCode)
	}
	if resp.Header.Get("ETag") == "" {
		t.Error("served report carries no ETag")
	}
	var served veritas.FleetReport
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&served, rep) {
		t.Error("served report != Campaign.Report")
	}

	// A read-only campaign attaches to the same store and refuses to run.
	ro, err := veritas.NewCampaign(veritas.WithStore(dir), veritas.WithReadOnlyStore())
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if _, err := ro.Run(context.Background()); err == nil {
		t.Error("read-only campaign ran")
	}
	roRep, err := ro.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(roRep, rep) {
		t.Error("read-only report != writable report")
	}
}

// TestDefaultingParity is the facade-defaulting table: the old shims
// and the new options must fill identical defaults — video seed 1, 5 s
// buffer, DefaultNetwork — whichever door a query walks in through.
func TestDefaultingParity(t *testing.T) {
	defVideo := veritas.DefaultVideo(1)
	defNet := veritas.DefaultNetwork()

	newArm, err := veritas.NewArm("x", veritas.WhatIf{NewABR: veritas.NewBBA})
	if err != nil {
		t.Fatal(err)
	}
	oldArm, err := veritas.NewFleetArm("x", veritas.WhatIf{NewABR: veritas.NewBBA})
	if err != nil {
		t.Fatal(err)
	}

	c, err := veritas.NewCampaign(veritas.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := c.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	oldCorpus, err := veritas.BuildCorpus(veritas.CorpusConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name      string
		bufferCap float64
		video     *veritas.Video
		net       veritas.NetworkConfig
		netSeeded bool // corpus specs re-seed jitter per session
	}{
		{"NewArm/WhatIf", newArm.Setting.BufferCap, newArm.Setting.Video, newArm.Setting.Net, false},
		{"NewFleetArm/WhatIf", oldArm.Setting.BufferCap, oldArm.Setting.Video, oldArm.Setting.Net, false},
		{"Campaign corpus spec", corpus[0].BufferCap, corpus[0].Video, *corpus[0].Net, true},
		{"BuildCorpus spec", oldCorpus[0].BufferCap, oldCorpus[0].Video, *oldCorpus[0].Net, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.bufferCap != 5 {
				t.Errorf("buffer defaulted to %g, want the paper's 5 s", tc.bufferCap)
			}
			if tc.video == nil {
				t.Fatal("video not defaulted")
			}
			if tc.video.NumChunks() != defVideo.NumChunks() ||
				tc.video.Quality(0).Mbps != defVideo.Quality(0).Mbps {
				t.Errorf("video defaulted to %d chunks / %g Mbps floor, want DefaultVideo(1)'s %d / %g",
					tc.video.NumChunks(), tc.video.Quality(0).Mbps, defVideo.NumChunks(), defVideo.Quality(0).Mbps)
			}
			net := tc.net
			if tc.netSeeded {
				// Corpus specs re-seed per-session jitter; everything
				// else must match the default path.
				net.Seed = defNet.Seed
			}
			if !reflect.DeepEqual(net, defNet) {
				t.Errorf("network defaulted to %+v, want DefaultNetwork %+v", net, defNet)
			}
		})
	}

	// RunSession and a campaign spec with the same explicit inputs and
	// defaulted video/net/buffer must compute identical sessions.
	gt := veritas.ConstantTrace(5)
	sess, err := veritas.RunSession(veritas.SessionConfig{Trace: gt, ABR: veritas.NewMPC(), MaxChunks: 20})
	if err != nil {
		t.Fatal(err)
	}
	cc, err := veritas.NewCampaign(veritas.WithCorpus(veritas.FleetSpec{
		ID: "one", Trace: gt, MaxChunks: 20, SimulateOnly: true,
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions[0].SettingA != sess.Metrics {
		t.Errorf("campaign spec defaults diverge from RunSession defaults:\n%+v\n%+v",
			res.Sessions[0].SettingA, sess.Metrics)
	}
}

// countGoroutines samples the live goroutine count after nudging the
// scheduler, so short-lived exiting goroutines settle first.
func countGoroutines() int {
	runtime.Gosched()
	return runtime.NumGoroutine()
}

// TestCampaignResultsEarlyCancelNoGoroutineLeak is the leak contract
// for the streaming path (which forces DiscardResults under the hood):
// a consumer that reads a little and then cancels — without draining
// or closing — must leave no engine workers, shard feeder, or joiner
// goroutine behind once the cancellation propagates.
func TestCampaignResultsEarlyCancelNoGoroutineLeak(t *testing.T) {
	before := countGoroutines()
	for i := 0; i < 3; i++ {
		c, err := veritas.NewCampaign(quickOptions()...)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		stream := c.Results(ctx)
		if !stream.Next() {
			t.Fatalf("no first row: %v", stream.Err())
		}
		cancel() // early consumer cancel: no drain, no Close
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if countGoroutines() <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked by abandoned result streams: %d before, %d after\n%s",
				before, countGoroutines(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The explicit-Close path must settle identically.
	c, err := veritas.NewCampaign(quickOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	stream := c.Results(context.Background())
	if !stream.Next() {
		t.Fatalf("no first row: %v", stream.Err())
	}
	stream.Close()
	deadline = time.Now().Add(10 * time.Second)
	for countGoroutines() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked by a Closed result stream: %d before, %d after",
				before, countGoroutines())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
