package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"veritas/internal/player"
)

// synthRow builds a deterministic synthetic session row. Every (i, seed)
// pair produces the same row, so tests can regenerate a "newer record"
// for the same ID by varying seed.
func synthRow(i int, seed int64) SessionRow {
	rng := rand.New(rand.NewSource(int64(i)*1664525 + seed))
	met := func() player.Metrics {
		return player.Metrics{
			AvgSSIM:        0.8 + 0.2*rng.Float64(),
			RebufRatio:     0.05 * rng.Float64(),
			AvgBitrateMbps: 1 + 5*rng.Float64(),
		}
	}
	row := SessionRow{
		Index:    i,
		ID:       fmt.Sprintf("sess-%04d", i),
		Scenario: fmt.Sprintf("scenario-%d", i%3),
	}
	for _, name := range []string{"bba", "mpc", "mpc-greedy"} {
		oc := ArmOutcome{Name: name, Baseline: met()}
		for k := 0; k < 3+rng.Intn(3); k++ {
			oc.Samples = append(oc.Samples, met())
		}
		if i%4 != 3 { // some sessions lack the oracle
			oc.Truth = met()
			oc.HasTruth = true
		}
		row.Arms = append(row.Arms, oc)
	}
	if i%2 == 0 {
		for k := 0; k < 1+rng.Intn(4); k++ {
			row.Predictions = append(row.Predictions, rng.Float64())
		}
	}
	return row
}

func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return b
}

// matchesOracle fails the test unless p's report for scenario and its
// series for every arm × estimator × metric (veritas-mid included,
// though the report JSON omits it) equal the row-scan oracle's over
// rows, which must be in corpus order and already scenario-filtered.
func matchesOracle(t *testing.T, p *Partials, scenario string, rows []SessionRow) {
	t.Helper()
	if got, want := reportJSON(t, p.ReportFiltered(scenario, nil)), reportJSON(t, oracleReport(rows)); string(got) != string(want) {
		t.Fatalf("scenario %q report:\npartials: %s\noracle:   %s", scenario, got, want)
	}
	for _, arm := range armNamesOf(rows) {
		for m, met := range reportMetrics {
			for _, est := range Estimators() {
				got, want := p.Series(scenario, arm, est, m), seriesOf(rows, arm, est, met.fn)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("scenario %q series %s/%s/%s: got %v want %v", scenario, arm, met.key, est, got, want)
				}
			}
		}
	}
}

// The acceptance pin at the engine layer: a report built from
// incrementally folded partials is byte-identical to the row-scan
// oracle at every generation, for every scenario filter, under
// out-of-order arrival — over synthetic rows and over real engine rows.
func TestPartialsReportByteIdentical(t *testing.T) {
	p := NewPartials()
	folded := make([]bool, 40)
	// Fold in a scrambled order to exercise the (Index, ID) resort.
	order := rand.New(rand.NewSource(7)).Perm(len(folded))
	for gen, i := range order {
		if !p.FoldRow(synthRow(i, 1), uint64(gen)) {
			t.Fatalf("fold %d rejected", gen)
		}
		folded[i] = true
		for _, scenario := range []string{"", "scenario-0", "scenario-1", "scenario-2"} {
			var rows []SessionRow
			for j, ok := range folded {
				if row := synthRow(j, 1); ok && (scenario == "" || row.Scenario == scenario) {
					rows = append(rows, row)
				}
			}
			matchesOracle(t, p, scenario, rows)
		}
	}
	if p.Sessions() != 40 {
		t.Fatalf("Sessions = %d, want 40", p.Sessions())
	}

	res, err := Run(context.Background(), Config{Workers: 2, Samples: 2, Seed: 1}, testCorpus(t, 1), testArms(30))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]SessionRow, len(res.Sessions))
	for i, s := range res.Sessions {
		rows[i] = s.Row()
	}
	matchesOracle(t, res.Agg, "", rows)
}

// Folding a newer record for the same ID must supersede the older one —
// and produce the exact report of a row scan over only the newest
// records.
func TestPartialsFoldRowSupersedes(t *testing.T) {
	p := NewPartials()
	var newest []SessionRow
	for i := 0; i < 12; i++ {
		p.FoldRow(synthRow(i, 1), uint64(i))
	}
	// Rewrite every third session with different outcomes.
	for i := 0; i < 12; i++ {
		row := synthRow(i, 1)
		if i%3 == 0 {
			row = synthRow(i, 99)
			p.FoldRow(row, uint64(100+i))
		}
		newest = append(newest, row)
	}
	if got, want := reportJSON(t, p.Report()), reportJSON(t, oracleReport(newest)); string(got) != string(want) {
		t.Fatalf("superseded report diverged:\npartials: %s\noracle:   %s", got, want)
	}
	// A stale fold (lower seq) must be rejected and change nothing.
	before := reportJSON(t, p.Report())
	if p.FoldRow(synthRow(0, 1), 0) {
		t.Fatal("stale fold was applied")
	}
	if after := reportJSON(t, p.Report()); string(after) != string(before) {
		t.Fatal("rejected fold still changed the report")
	}
	// An equal-seq fold wins (replay of the same frame is idempotent).
	if !p.FoldRow(synthRow(0, 99), 100) {
		t.Fatal("equal-seq fold rejected")
	}
}

// FoldPartial is unconditional: caller order is precedence, which is
// what snapshot restore and cross-store merges rely on.
func TestPartialsFoldPartialOrderWins(t *testing.T) {
	old := ReducePartial(synthRow(3, 1), 500)
	new_ := ReducePartial(synthRow(3, 2), 1) // lower seq, folded later

	p := NewPartials()
	p.FoldPartial(old)
	p.FoldPartial(new_)

	want := oracleReport([]SessionRow{synthRow(3, 2)})
	if got, exp := reportJSON(t, p.Report()), reportJSON(t, want); string(got) != string(exp) {
		t.Fatalf("FoldPartial order not respected:\ngot:  %s\nwant: %s", got, exp)
	}
}

// Series over folded partials equals the row-scan oracle's series for
// every estimator and metric, and an out-of-range metric index yields nil.
func TestPartialsSeriesMatchesAggregator(t *testing.T) {
	p := NewPartials()
	var rows []SessionRow
	for i := 0; i < 25; i++ {
		row := synthRow(i, 1)
		rows = append(rows, row)
		p.FoldRow(row, uint64(i))
	}
	for m, met := range reportMetrics {
		for _, est := range Estimators() {
			want := seriesOf(rows, "mpc", est, met.fn)
			got := p.Series("", "mpc", est, m)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("series %s/%s: got %v want %v", met.key, est, got, want)
			}
		}
	}
	if s := p.Series("", "mpc", EstBaseline, 17); s != nil {
		t.Fatalf("out-of-range metric index returned %v", s)
	}
}

func TestPartialsSnapshotRoundTrip(t *testing.T) {
	p := NewPartials()
	for i := 0; i < 15; i++ {
		p.FoldRow(synthRow(i, 1), uint64(i))
	}
	snap := p.Snapshot()
	if len(snap) != 15 {
		t.Fatalf("snapshot has %d sessions, want 15", len(snap))
	}
	// Snapshot must survive a JSON round trip (the store persists it).
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back []PartialSession
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	p2 := NewPartials()
	for _, ps := range back {
		p2.FoldPartial(ps)
	}
	if got, want := reportJSON(t, p2.Report()), reportJSON(t, p.Report()); string(got) != string(want) {
		t.Fatalf("restored report diverged:\ngot:  %s\nwant: %s", got, want)
	}
}

func TestPartialsLookups(t *testing.T) {
	p := NewPartials()
	for i := 0; i < 9; i++ {
		p.FoldRow(synthRow(i, 1), uint64(i))
	}
	if !p.HasScenario("scenario-1") || p.HasScenario("nope") {
		t.Fatal("HasScenario wrong")
	}
	union := p.ArmUnion("")
	if !reflect.DeepEqual(union, []string{"bba", "mpc", "mpc-greedy"}) {
		t.Fatalf("ArmUnion = %v", union)
	}
	if got := p.ArmUnion("nope"); len(got) != 0 {
		t.Fatalf("ArmUnion(nope) = %v", got)
	}
}

func TestMetricIndexAndEstimators(t *testing.T) {
	for i, m := range ReportMetrics() {
		if got, ok := MetricIndex(m.Key); !ok || got != i {
			t.Fatalf("MetricIndex(%q) = %d, %v", m.Key, got, ok)
		}
		if got, ok := MetricIndex(m.Label); !ok || got != i {
			t.Fatalf("MetricIndex(%q) = %d, %v", m.Label, got, ok)
		}
	}
	if _, ok := MetricIndex("SSIM"); !ok { // label, exact
		t.Fatal("label lookup failed")
	}
	if _, ok := MetricIndex("vmaf"); ok {
		t.Fatal("unknown metric resolved")
	}
	if est, ok := ParseEstimator("veritas-mid"); !ok || est != EstVeritasMid {
		t.Fatalf("ParseEstimator = %v, %v", est, ok)
	}
	if _, ok := ParseEstimator("psychic"); ok {
		t.Fatal("unknown estimator resolved")
	}
}
