package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileLeavesTenBeyondAtP99Of1000(t *testing.T) {
	var d dist
	for i := 1000; i >= 1; i-- {
		d.add(float64(i))
	}
	p, v, ok := d.tail()
	if !ok || p != 99 || v != 990 {
		t.Fatalf("tail = p%v %v %v; want p99 990", p, v, ok)
	}
	beyond := 0
	for _, x := range d.vals {
		if x > v {
			beyond++
		}
	}
	if beyond != 10 {
		t.Fatalf("%d samples beyond p99, want 10", beyond)
	}
	if m := d.median(); m != 500 {
		t.Fatalf("median = %v, want 500", m)
	}
}

func TestHistPercentileWithinBucketError(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.observe(time.Duration(i) * time.Microsecond)
	}
	for _, p := range []float64{50, 90, 99} {
		exact := time.Duration(p*10) * time.Microsecond
		got := h.pct(p)
		if got > exact || float64(got) < 0.875*float64(exact) {
			t.Errorf("p%v = %v, want within 12.5%% below %v", p, got, exact)
		}
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	start := time.Now().Add(5 * time.Millisecond)
	interval := 5 * time.Millisecond
	stall := 60 * time.Millisecond
	samples := openLoop(start, interval, start.Add(40*time.Millisecond), 1, func(k int) error {
		if k == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if len(samples) != 8 {
		t.Fatalf("%d operations sent, want the 8 due before the end", len(samples))
	}
	for _, s := range samples {
		if want := start.Add(time.Duration(s.k) * interval); !s.due.Equal(want) {
			t.Fatalf("op %d due %v, want %v", s.k, s.due, want)
		}
		if s.k == 0 {
			continue
		}
		// Every later operation waited behind the stall; that wait is
		// part of its latency because timing starts at the due time.
		wait := stall - time.Duration(s.k)*interval
		if s.latency() < wait || s.late() < wait {
			t.Errorf("op %d: latency %v, late %v; want both >= %v", s.k, s.latency(), s.late(), wait)
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 10 * ms},
		// Overlapping children count once; the part past the parent's end
		// does not count.
		{ID: 2, Parent: 1, Name: "a", Start: 1 * ms, End: 3 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 2 * ms, End: 5 * ms},
		{ID: 4, Parent: 1, Name: "c", Start: 8 * ms, End: 12 * ms},
		{ID: 5, Parent: 3, Name: "d", Start: 2 * ms, End: 4 * ms},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 4 * ms, 2: 2 * ms, 3: 1 * ms, 4: 4 * ms, 5: 2 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	if by := selfByName(spans); by["root"] != 4*ms {
		t.Errorf("selfByName[root] = %v, want 4ms", by["root"])
	}
}

func TestClassifyAttributesInnermostLayer(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"math.Max", "veritas/internal/abr.(*MPC).Choose.func1", "veritas/internal/player.Run", "veritas/internal/engine.runOne"}, "abr"},
		{[]string{"veritas/internal/netem.(*Conn).Download", "veritas/internal/player.Run", "veritas/internal/abduction.Replay", "veritas/internal/abduction.(*Abduction).Counterfactual"}, "replay"},
		{[]string{"veritas/internal/hmm.(*Model).Infer", "veritas/internal/abduction.Abduct", "veritas/internal/engine.runOne"}, "abduction"},
		{[]string{"veritas/internal/netem.(*Conn).Download", "veritas/internal/player.Run", "veritas/internal/engine.runOne"}, "player"},
		{[]string{"encoding/json.Marshal", "veritas/internal/store.(*Store).Append", "main.(*timedSink).Put"}, "store"},
		{[]string{"time.Now", "main.(*timedABR).Choose", "veritas/internal/player.Run"}, "abr"},
		{[]string{"runtime.gcBgMarkWorker"}, "other"},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("classify(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// smokeConfig is a run small enough for a unit test.
func smokeConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.seed = 3
	cfg.trace = trace
	cfg.outDir = t.TempDir()
	cfg.setupReps = 1
	cfg.seconds = 0.4
	cfg.sessionsPer = 1
	cfg.chunks = 30
	cfg.iSessions = 1
	cfg.storeRows = 300
	cfg.coldReps = 1
	cfg.readRate = 60
	cfg.writeRate = 30
	return cfg
}

// runSmoke runs a workload, prints its report and decodes the result line.
func runSmoke(t *testing.T, cfg config) (*result, map[string]float64) {
	t.Helper()
	res, err := runWorkload(cfg, workloads[cfg.workload])
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := report(&out, cfg, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	last := lines[len(lines)-1]
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, last)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Fatalf("result %+v; problems %v\n%s", line, res.problems, out.String())
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	if len(line.Metrics) != len(want) {
		t.Fatalf("%d metrics reported, want %d", len(line.Metrics), len(want))
	}
	vals := map[string]float64{}
	for _, m := range want {
		got, ok := line.Metrics[m.name]
		if !ok || got.Unit != m.unit {
			t.Fatalf("metric %s: got %+v (present %v), want unit %s", m.name, got, ok, m.unit)
		}
		if !cfg.trace && got.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
		}
		vals[m.name] = got.Value
	}
	return res, vals
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range []string{"whatif-campaign", "interventional", "live-query"} {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, w, trace)
			_, vals := runSmoke(t, cfg)
			if !trace {
				continue
			}
			switch w {
			case "whatif-campaign":
				if vals["abr.choose_calls"] == 0 || vals["engine.simulate_s"] == 0 || vals["store.appends"] == 0 {
					t.Errorf("%s: ledger missing engine/abr/store: %v", w, vals)
				}
			case "interventional":
				if vals["tcp.estimate_calls"] == 0 || vals["abduction.abduct_ms_p50"] == 0 || vals["abr.choose_calls"] != 0 {
					t.Errorf("%s: want abduction and tcp counted, no ABR: %v", w, vals)
				}
			case "live-query":
				if vals["serve.report_us_p50"] == 0 || vals["store.appends"] == 0 || vals["load.sent"] == 0 {
					t.Errorf("%s: ledger missing serve/store/load: %v", w, vals)
				}
			}
		}
	}
}

// TestABRDelayMovesOnlyTheCampaign injects a delay into every ABR decision
// through the decorator. It must slow the what-if campaign and show up in
// the abr layer there, and leave the interventional workload, which makes
// no ABR decision, within the benchmark's bound.
func TestABRDelayMovesOnlyTheCampaign(t *testing.T) {
	const delay = 30 * time.Microsecond
	whatif := func(d time.Duration) map[string]float64 {
		cfg := smokeConfig(t, "whatif-campaign", true)
		cfg.seconds = 0.6
		cfg.chooseDelay = d
		res, layers := runSmoke(t, cfg)
		for _, m := range res.e2e {
			layers[m.name] = m.value
		}
		return layers
	}
	base, slow := whatif(0), whatif(delay)
	if slow["throughput_per_s"] > 0.8*base["throughput_per_s"] {
		t.Errorf("whatif-campaign sessions/s %v with the ABR delay, %v without: want a clear drop", slow["throughput_per_s"], base["throughput_per_s"])
	}
	abrS := func(l map[string]float64) float64 { return l["abr.simulate_choose_s"] + l["abr.replay_choose_s"] }
	if extra := abrS(slow) - abrS(base); extra < 0.5*slow["abr.choose_calls"]*delay.Seconds() {
		t.Errorf("abr layer gained %vs per campaign from %v calls delayed by %v: the ledger did not show it", extra, slow["abr.choose_calls"], delay)
	}

	// Timing on a shared machine is noisy; the interventional p50 only has
	// to stay within the bound on one of a few attempts.
	const bound = 0.25
	var last string
	for attempt := 0; attempt < 3; attempt++ {
		p50 := func(d time.Duration) float64 {
			cfg := smokeConfig(t, "interventional", false)
			cfg.seconds = 0.8
			cfg.chooseDelay = d
			res, _ := runSmoke(t, cfg)
			for _, m := range res.e2e {
				if m.name == "latency_p50_ms" {
					return m.value
				}
			}
			t.Fatal("no latency_p50_ms")
			return 0
		}
		a, b := p50(0), p50(delay)
		if b <= a*(1+bound) {
			return
		}
		last = "interventional query p50 " + time.Duration(b*1e6).String() + " with the ABR delay vs " + time.Duration(a*1e6).String()
	}
	t.Error(last)
}

func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not runnable", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
