package abduction

import (
	"math"
	"strings"
	"testing"

	"veritas/internal/abr"
	"veritas/internal/hmm"
	"veritas/internal/player"
	"veritas/internal/tcp"
	"veritas/internal/trace"
)

// Degenerate-input coverage for the abduction entry points: empty and
// single-chunk logs must either error cleanly or produce finite
// results — never NaN/Inf escapes from the inference hot path.

func singleChunkLog() *player.SessionLog {
	st := tcp.Fresh(0.080)
	st.CWND = 800
	st.SSThresh = 800
	return &player.SessionLog{
		Records: []player.ChunkRecord{{
			Index:          0,
			SizeBytes:      2e6,
			Start:          0.5,
			End:            3.0,
			TCP:            st,
			ThroughputMbps: 2e6 * 8 / 1e6 / 2.5,
		}},
		BufferCap:    5,
		RTT:          0.080,
		ChunkSeconds: 4,
	}
}

func TestObservationsDegenerateInputs(t *testing.T) {
	good := singleChunkLog()
	cases := []struct {
		name    string
		log     *player.SessionLog
		delta   float64
		wantErr bool
	}{
		{"nil log", nil, 5, true},
		{"empty records", &player.SessionLog{}, 5, true},
		{"zero delta", good, 0, true},
		{"negative delta", good, -1, true},
		{"single chunk", good, 5, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			obs, err := Observations(tc.log, tc.delta)
			if tc.wantErr {
				if err == nil {
					t.Fatal("want error, got nil")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(obs) != len(tc.log.Records) {
				t.Fatalf("%d observations for %d records", len(obs), len(tc.log.Records))
			}
		})
	}
}

func TestAbductDegenerateLogs(t *testing.T) {
	for _, tc := range []struct {
		name string
		log  *player.SessionLog
	}{
		{"nil log", nil},
		{"empty records", &player.SessionLog{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Abduct(tc.log, Config{}); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

// TestAbductSingleChunkLog runs the full pipeline on the smallest legal
// session: one chunk means no transitions, a single-row posterior and a
// zero-length pair table — every edge of the slab arithmetic.
func TestAbductSingleChunkLog(t *testing.T) {
	a, err := Abduct(singleChunkLog(), Config{NumSamples: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.ViterbiPath) != 1 {
		t.Fatalf("Viterbi path length %d, want 1", len(a.ViterbiPath))
	}
	if a.Posterior.Len() != 1 {
		t.Fatalf("posterior covers %d chunks, want 1", a.Posterior.Len())
	}
	if math.IsNaN(a.Posterior.LogLikelihood) {
		t.Error("single-chunk log-likelihood is NaN")
	}
	var sum float64
	for _, v := range a.Posterior.Gamma(0) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("NaN/Inf in single-chunk posterior")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("single-chunk Gamma sums to %v", sum)
	}
	if len(a.SampledPaths) != 3 {
		t.Fatalf("%d sampled paths, want 3", len(a.SampledPaths))
	}
	for _, p := range a.SampledPaths {
		if len(p) != 1 {
			t.Fatal("sampled path length != 1")
		}
	}
	tr := a.MostLikelyTrace()
	if v := tr.At(0); math.IsNaN(v) || v < 0 {
		t.Errorf("most-likely trace value %v", v)
	}
	// The interventional query must stay finite from one chunk of
	// evidence, including with a degenerate (dead-link) TCP state.
	if d := a.PredictDownloadTime(10, singleChunkLog().Records[0].TCP, 1e6); math.IsNaN(d) || d <= 0 {
		t.Errorf("predicted download time %v", d)
	}
	if d := a.PredictDownloadTime(10, tcp.State{}, 0); math.IsNaN(d) || d != 0 {
		t.Errorf("zero-size prediction %v, want 0", d)
	}
}

// TestAbductScratchReuseMatchesFresh abducts two different sessions
// through one shared arena and checks each result is bit-identical to a
// fresh-arena run — the abduction-layer face of the Scratch contract.
func TestAbductScratchReuseMatchesFresh(t *testing.T) {
	gtA, err := trace.Generate(trace.DefaultFCC(3))
	if err != nil {
		t.Fatal(err)
	}
	logA := runSession(t, gtA, abr.NewMPC())
	logB := logA.Prefix(7) // much smaller second session on the dirty arena

	sc := hmm.NewScratch()
	for _, log := range []*player.SessionLog{logA, logB} {
		shared, err := Abduct(log, Config{NumSamples: 2, Seed: 4, Scratch: sc})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Abduct(log, Config{NumSamples: 2, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		if shared.Posterior.LogLikelihood != fresh.Posterior.LogLikelihood {
			t.Error("shared-arena log-likelihood differs from fresh run")
		}
		for i := range fresh.ViterbiPath {
			if shared.ViterbiPath[i] != fresh.ViterbiPath[i] {
				t.Fatalf("Viterbi path differs at chunk %d", i)
			}
		}
		for s := range fresh.SampledPaths {
			for i := range fresh.SampledPaths[s] {
				if shared.SampledPaths[s][i] != fresh.SampledPaths[s][i] {
					t.Fatalf("sample %d differs at chunk %d", s, i)
				}
			}
		}
	}
}

// orderedLog is a three-chunk log in recording order; the cases below
// break it one field at a time.
func orderedLog() *player.SessionLog {
	st := tcp.Fresh(0.080)
	rec := func(i int, start, end float64) player.ChunkRecord {
		return player.ChunkRecord{
			Index: i, SizeBytes: 1e6, Start: start, End: end, TCP: st,
			ThroughputMbps: 1e6 * 8 / 1e6 / (end - start),
		}
	}
	return &player.SessionLog{
		Records:      []player.ChunkRecord{rec(0, 0.5, 1.5), rec(1, 5.2, 6), rec(2, 6.5, 7.5)},
		BufferCap:    5,
		RTT:          0.080,
		ChunkSeconds: 2,
	}
}

// TestBackwardsChunksRejected: a log whose chunks run backwards — a
// download ending before it starts, or a chunk starting before the
// previous one (even within one δ interval, where the start intervals
// still look ordered) — is rejected by every entry point, and the error
// names the offending chunk. So are non-finite times (abduction spun on
// a NaN start's interval gap) and negative ones (the sample traces
// indexed interval -1). Zero-length downloads stay legal.
func TestBackwardsChunksRejected(t *testing.T) {
	cases := []struct {
		name  string
		edit  func(l *player.SessionLog)
		chunk string // substring the error must contain; "" = accepted
	}{
		{"ordered", func(*player.SessionLog) {}, ""},
		{"end before start", func(l *player.SessionLog) { l.Records[1].End = 5 }, "chunk 1"},
		{"start before previous within one interval", func(l *player.SessionLog) { l.Records[2].Start, l.Records[2].End = 5, 5.1 }, "chunk 2"},
		{"start before previous across intervals", func(l *player.SessionLog) { l.Records[2].Start, l.Records[2].End = 1.6, 2 }, "chunk 2"},
		{"NaN start", func(l *player.SessionLog) { l.Records[2].Start = math.NaN() }, "chunk 2"},
		{"infinite end", func(l *player.SessionLog) { l.Records[0].End = math.Inf(1) }, "chunk 0"},
		{"negative start", func(l *player.SessionLog) { l.Records[0].Start, l.Records[0].End = -7, -6 }, "chunk 0"},
		{"zero-length download", func(l *player.SessionLog) {
			r := &l.Records[1]
			r.End, r.SizeBytes, r.ThroughputMbps = r.Start, 0, 0
		}, ""},
		{"same start as previous", func(l *player.SessionLog) { l.Records[2].Start = 5.2 }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := orderedLog()
			tc.edit(log)
			check := func(entry string, err error) {
				t.Helper()
				switch {
				case tc.chunk == "" && err != nil:
					t.Errorf("%s: %v, want accepted", entry, err)
				case tc.chunk != "" && err == nil:
					t.Errorf("%s accepted a log with backwards chunks", entry)
				case tc.chunk != "" && !strings.Contains(err.Error(), tc.chunk):
					t.Errorf("%s: error %q does not name %s", entry, err, tc.chunk)
				}
			}
			_, err := Observations(log, 5)
			check("Observations", err)
			_, err = Abduct(log, Config{NumSamples: 2})
			check("Abduct", err)
			_, err = BaselineTrace(log, 1)
			check("BaselineTrace", err)
		})
	}
}
