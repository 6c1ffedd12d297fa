package abduction

import (
	"sync"
	"testing"

	"veritas/internal/abr"
	"veritas/internal/netem"
	"veritas/internal/trace"
	"veritas/internal/video"
)

// TestCounterfactualSharedTracesConcurrent calls Counterfactual from 8
// goroutines on one Abduction, so the lazily built Baseline and sample
// traces are raced for (run under -race). Every outcome must equal a
// replay over freshly built traces — what Counterfactual did before the
// traces were shared.
func TestCounterfactualSharedTracesConcurrent(t *testing.T) {
	gt, err := trace.Generate(trace.DefaultFCC(9))
	if err != nil {
		t.Fatal(err)
	}
	log := runSession(t, gt, abr.NewMPC())
	a, err := Abduct(log, Config{NumSamples: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	v := video.MustSynthesize(video.DefaultConfig(1))
	factories := []func() abr.Algorithm{
		func() abr.Algorithm { return abr.NewBBA() },
		func() abr.Algorithm { return abr.NewBOLA() },
		func() abr.Algorithm { return abr.NewMPC() },
		func() abr.Algorithm { return &abr.ThroughputRule{} },
	}
	settings := make([]Setting, 8)
	for i := range settings {
		settings[i] = Setting{
			Video:     v,
			NewABR:    factories[i%len(factories)],
			BufferCap: []float64{5, 30}[i/len(factories)],
			Net:       netem.Config{RTT: 0.080, SlowStartRestart: true, JitterStd: 0.05, Seed: int64(i)},
		}
	}

	got := make([]*CounterfactualOutcome, len(settings))
	errs := make([]error, len(settings))
	var wg sync.WaitGroup
	for i := range settings {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = a.Counterfactual(settings[i])
		}(i)
	}
	wg.Wait()

	for i, s := range settings {
		if errs[i] != nil {
			t.Fatalf("setting %d: %v", i, errs[i])
		}
		base, err := BaselineTrace(log, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := CounterfactualOutcome{}
		if want.Baseline, err = Replay(base, s); err != nil {
			t.Fatal(err)
		}
		for _, tr := range a.SampleTraces() {
			m, err := Replay(tr, s)
			if err != nil {
				t.Fatal(err)
			}
			want.Samples = append(want.Samples, m)
		}
		if got[i].Baseline != want.Baseline {
			t.Errorf("setting %d: Baseline replay %+v, fresh %+v", i, got[i].Baseline, want.Baseline)
		}
		if len(got[i].Samples) != len(want.Samples) {
			t.Fatalf("setting %d: %d sample replays, fresh %d", i, len(got[i].Samples), len(want.Samples))
		}
		for k := range want.Samples {
			if got[i].Samples[k] != want.Samples[k] {
				t.Errorf("setting %d sample %d: %+v, fresh %+v", i, k, got[i].Samples[k], want.Samples[k])
			}
		}
	}
}
