// Package veritas is a from-scratch Go reproduction of "Veritas:
// Answering Causal Queries from Video Streaming Traces" (SIGCOMM 2023).
//
// Veritas answers what-if questions about adaptive-bitrate video
// sessions from passively collected logs. The central difficulty is
// that the network's ground-truth bandwidth (GTBW) is a latent,
// confounding time series: the deployed ABR algorithm reacts to it, so
// observed throughput both under-reports it and correlates with the
// algorithm's own decisions. Veritas inverts the observations back into
// a posterior over GTBW trajectories using an Embedded Hidden Markov
// Model whose emissions wrap a domain-specific TCP throughput estimator
// conditioned on the TCP state logged at each chunk start.
//
// The package exposes the full pipeline:
//
//   - Abduct turns a session log into K posterior GTBW traces.
//   - Counterfactual replays a changed design (different ABR, buffer
//     size, or quality ladder) over those traces and reports the range
//     of outcomes.
//   - PredictDownloadTime answers interventional queries about
//     hypothetical next chunks.
//   - Baseline and Oracle provide the comparison estimators the paper
//     evaluates against.
//   - NewCampaign batches all of the above over a corpus of sessions:
//     one options-built Campaign spans the concurrent fleet engine
//     (internal/engine: sharded workers, per-session emission
//     memoization, one incremental report reducer whose results are
//     identical for every worker count) and the persistent corpus store
//     (internal/store), with Run/Resume/Results/Report/Serve tying a
//     campaign's execution, durability, streaming iteration and HTTP
//     serving together. The older free functions (RunFleet,
//     BuildCorpus, FleetMatrix, ...) remain as deprecated shims.
//   - Campaign.Dispatch scales a campaign across worker processes:
//     a supervisor (internal/dispatch) launches one re-exec'd worker
//     per shard (see DispatchWorkerMain), streams their progress,
//     restarts crashed shards with resume into their same store, and
//     folds the shard stores into one corpus whose report is
//     byte-identical to a single-process run.
//
// Everything the pipeline needs is included: a bandwidth-trace
// substrate with an FCC-like generator, a TCP/network emulator standing
// in for the paper's Mahimahi testbed, a synthetic VBR video, a player,
// and the MPC/BBA/BOLA ABR algorithms. The internal/experiments package
// regenerates every figure of the paper's evaluation; see EXPERIMENTS.md.
//
// # Quick start
//
//	gt, _ := veritas.GenerateTrace(veritas.DefaultTraceConfig(1))
//	sess, _ := veritas.RunSession(veritas.SessionConfig{
//		Trace: gt, ABR: veritas.NewMPC(), BufferCap: 5,
//	})
//	abd, _ := veritas.Abduct(sess.Log, veritas.AbductionConfig{})
//	outcome, _ := veritas.Counterfactual(abd, veritas.WhatIf{
//		NewABR:    veritas.NewBBA,
//		BufferCap: 5,
//	})
//	fmt.Println(outcome.SSIMRange())
//
// And at fleet scale:
//
//	c, _ := veritas.NewCampaign(
//		veritas.WithSessions(25),
//		veritas.WithMatrix([]string{"bba", "bola"}, []float64{5, 30}),
//		veritas.WithStore("campaign.store"),
//	)
//	res, _ := c.Run(ctx)
//	rep, _ := c.Report()
//
// All randomness is seeded and every run is reproducible.
package veritas
