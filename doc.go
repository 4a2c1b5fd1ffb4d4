// Package spaceproc reproduces "Pre-Processing Input Data to Augment Fault
// Tolerance in Space Applications" (Nair, Koren, Koren & Krishna, DSN
// 2003): bit-flip-aware preprocessing of raw input data for space science
// applications, evaluated on NASA REE's NGST cosmic-ray-rejection pipeline
// and OTIS thermal imaging spectrometer benchmarks.
//
// The root package is the public facade. It exposes:
//
//   - data containers (Series, Image, Stack, Cube) and the 128x128
//     fragmentation of the paper's Figure 1 architecture;
//   - dataset synthesis standing in for the NGST Mission Simulator and the
//     OTIS field data (Gaussian temporal model, star-field scenes with
//     cosmic rays, Blob/Stripe/Spots radiance cubes);
//   - the two fault models of Section 2.2 (uncorrelated per-bit flips and
//     run-correlated 2-D flips) plus burst faults and the Section 8 memory
//     interleaver;
//   - the four preprocessing algorithms: AlgoNGST (Algorithm 1), median
//     smoothing (Algorithm 2), bitwise majority voting (Algorithm 3), and
//     AlgoOTIS (Section 7.2), for both 16-bit temporal series and float32
//     radiance cubes;
//   - the FITS codec with the header sanity analysis that runs even at
//     null sensitivity;
//   - the downstream applications (cosmic-ray rejection + Rice-compressed
//     downlink; OTIS temperature/emissivity retrieval) and the
//     master/worker pipeline with in-process and TCP transports;
//   - the Application-Level Fault Tolerance (ALFT) executor the paper
//     positions its approach against;
//   - the evaluation metrics (relative error Psi of eqs. 3-4).
//
// # Observability
//
// The pipeline carries an optional, dependency-free telemetry layer
// (internal/telemetry, re-exported here as TelemetryRegistry and friends).
// Attach a registry to a WorkerPool with WithPoolTelemetry to record
// per-tile dispatch/process/retry/blit spans, per-worker latency
// histograms with p50/p95/p99 summaries, and pipeline_* counters;
// AlgoNGST.Instrument and AlgoOTIS.Instrument feed the preprocessing
// correction counters (preprocess_*) into the same registry;
// MissionConfig.Telemetry adds per-baseline stage timings.
// NewTelemetryServer serves any registry's /metrics, /healthz and
// /debug/pprof/ over HTTP, for example next to a WorkerServer's port.
// Workers implement ProcessTile(ctx, tile): context deadlines and
// cancellation propagate through the pool and across the gob transport
// to the serving node. Uninstrumented pipelines pay nothing.
//
// The experiment harness that regenerates every figure in the paper's
// evaluation lives in cmd/experiments; see DESIGN.md for the system
// inventory and EXPERIMENTS.md for measured-vs-paper results.
package spaceproc
