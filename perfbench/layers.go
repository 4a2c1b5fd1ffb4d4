package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"spaceproc/internal/cluster"
	"spaceproc/internal/core"
	"spaceproc/internal/dataset"
	"spaceproc/internal/rice"
	"spaceproc/internal/serve"
	"spaceproc/internal/telemetry"
)

// perLayer lists every per-layer metric of BENCHMARK.json in print order.
// A traced run prints all of them; one whose layer the workload does not
// reach reads 0 with n=0. README.md maps each to the end-to-end metric it
// should move.
var perLayer = []struct{ name, unit string }{
	{"dataset.fragment_ms", "ms"},
	{"cluster.submit_ms", "ms"},
	{"cluster.queue_wait_ms", "ms"},
	{"cluster.dispatch_wait_ms", "ms"},
	{"cluster.tile_ms", "ms"},
	{"cluster.finalize_ms", "ms"},
	{"cluster.busy_ratio", "ratio"},
	{"cluster.tiles_per_op", "count"},
	{"cluster.retries", "count"},
	{"cluster.unattributed_ratio", "ratio"},
	{"core.vote_ms", "ms"},
	{"core.vote_ns_per_sample", "ns"},
	{"core.corrected_px", "count"},
	{"core.guard_rejected", "count"},
	{"core.otis_vote_ms", "ms"},
	{"core.otis_voted", "count"},
	{"crreject.integrate_ms", "ms"},
	{"crreject.steps_per_op", "count"},
	{"otisapp.retrieve_ms", "ms"},
	{"otisapp.temp_error_k", "K"},
	{"rice.encode_ms", "ms"},
	{"rice.encode_f32_ms", "ms"},
	{"rice.ratio", "ratio"},
	{"serve.request_ms", "ms"},
	{"serve.receive_ms", "ms"},
	{"serve.wire_ms", "ms"},
	{"serve.backend_ms", "ms"},
	{"serve.backend_submits", "count"},
	{"serve.batch_wait_ms", "ms"},
	{"serve.batch_size", "count"},
	{"serve.replay_s", "s"},
	{"serve.shed_ratio", "ratio"},
	{"serve.client_retries", "count"},
	{"serve.dedupe_hit_ratio", "ratio"},
	{"store.digest_ms", "ms"},
	{"store.wal_append_ms", "ms"},
	{"store.wal_commit_ms", "ms"},
	{"store.wal_bytes_per_op", "B"},
	{"runtime.gc_per_op", "count"},
	{"runtime.gc_pause_ms_per_op", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// setFunc records one per-layer metric with its sample count.
type setFunc func(name string, v float64, n int)

// probe is a traced boot's instrumentation: the registry the modules
// export their telemetry into, the wrappers' ledger, and the registry
// snapshot taken when the timed window opened.
type probe struct {
	reg    *telemetry.Registry
	led    *ledger
	before telemetry.Snapshot
}

func newProbe() *probe {
	reg := telemetry.NewRegistry()
	return &probe{reg: reg, led: newLedger(reg.Tracer())}
}

// ledger returns the probe's ledger, or nil for an untraced (nil) probe.
func (p *probe) ledger() *ledger {
	if p == nil {
		return nil
	}
	return p.led
}

// openWindow drops what the boots and the warm-up recorded.
func (p *probe) openWindow() {
	p.led.reset()
	p.before = p.reg.Snapshot()
}

// counter is how much a registry counter grew since the window opened.
func (p *probe) counter(name string) float64 {
	return float64(p.reg.Counter(name).Value() - p.before.Counters[name])
}

// p50 is the median of what a registry histogram observed since the
// window opened, with the number of observations.
func (p *probe) p50(name string) (time.Duration, int) {
	s := p.reg.Histogram(name).State()
	was := p.before.HistogramStates[name]
	s.Count -= was.Count
	s.Sum -= was.Sum
	for i := range s.Buckets {
		s.Buckets[i] -= was.Buckets[i]
	}
	return s.Quantile(0.5), int(s.Count)
}

// ledger collects what the timing wrappers and the benchmark's own stage
// clocks see during a traced window. A tile is tied to its op through the
// submission context the pool hands the worker, and a kernel call to its
// tile through the tile's stack, which LocalWorker passes unchanged to the
// preprocessor.
type ledger struct {
	tracer *telemetry.Tracer

	mu sync.Mutex
	// open holds the kernel time of each tile being processed.
	open map[*dataset.Stack]*time.Duration
	// stages holds named per-call durations.
	stages      map[string][]time.Duration
	tiles       int
	busy        time.Duration // summed tile time
	voteTime    time.Duration
	voteSamples int
	ops         int           // submissions that reached the pool
	covered     time.Duration // op time inside submit, a tile or finalize
	opTime      time.Duration
	// outputs holds exact per-input counts by ring index, so their means
	// do not depend on how often each input came round.
	outputs map[int]map[string]float64
}

func newLedger(tracer *telemetry.Tracer) *ledger {
	l := &ledger{tracer: tracer, open: map[*dataset.Stack]*time.Duration{}}
	l.reset()
	return l
}

// reset drops everything recorded so far.
func (l *ledger) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stages = map[string][]time.Duration{}
	l.outputs = map[int]map[string]float64{}
	l.tiles, l.busy, l.voteTime, l.voteSamples = 0, 0, 0, 0
	l.ops, l.covered, l.opTime = 0, 0, 0
}

// stage records one call's duration under name.
func (l *ledger) stage(name string, d time.Duration) {
	l.mu.Lock()
	l.stages[name] = append(l.stages[name], d)
	l.mu.Unlock()
}

// p50 is a stage's median duration with its sample count.
func (l *ledger) p50(name string) (time.Duration, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return median(l.stages[name]), len(l.stages[name])
}

// output records the exact counts of the op that ran input idx.
func (l *ledger) output(idx int, vals map[string]float64) {
	l.mu.Lock()
	l.outputs[idx] = vals
	l.mu.Unlock()
}

// outputMeans reports each recorded count averaged over the inputs.
func (l *ledger) outputMeans(set setFunc) {
	l.mu.Lock()
	defer l.mu.Unlock()
	sums := map[string]float64{}
	for _, vals := range l.outputs {
		for k, v := range vals {
			sums[k] += v
		}
	}
	for k, sum := range sums {
		set(k, sum/float64(len(l.outputs)), len(l.outputs))
	}
}

// opTrace is one pool submission's timeline.
type opTrace struct {
	start, submitted time.Time
	// tiles are the [start, end] of the op's tiles, guarded by the
	// ledger's mutex.
	tiles [][2]time.Time
	span  *telemetry.TraceSpan
}

type opKey struct{}

// startOp opens an op span under whatever trace ctx carries and returns
// the context to submit with, through which the pool's tiles lead back to
// the op.
func (l *ledger) startOp(ctx context.Context, label string) (context.Context, *opTrace) {
	parent, _ := telemetry.TraceFromContext(ctx)
	ot := &opTrace{span: l.tracer.StartSpan(parent, "bench_op", label)}
	ctx = telemetry.ContextWithTrace(ctx, l.tracer, ot.span.Context())
	ot.start = time.Now()
	return context.WithValue(ctx, opKey{}, ot), ot
}

// finishOp closes an op whose result arrived at done and charges its
// stages: the Submit call, finalize (last tile returned to result
// delivered), and the union of those with the tile intervals, whose
// complement in the op's wall time is the unattributed share.
func (l *ledger) finishOp(ot *opTrace, done time.Time) {
	ot.span.End()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops++
	l.stages["cluster.submit"] = append(l.stages["cluster.submit"], ot.submitted.Sub(ot.start))
	l.stages["op"] = append(l.stages["op"], done.Sub(ot.start))
	spans := append([][2]time.Time{{ot.start, ot.submitted}}, ot.tiles...)
	if len(ot.tiles) > 0 {
		last := ot.tiles[0][1]
		for _, t := range ot.tiles[1:] {
			if t[1].After(last) {
				last = t[1]
			}
		}
		l.stages["cluster.finalize"] = append(l.stages["cluster.finalize"], done.Sub(last))
		spans = append(spans, [2]time.Time{last, done})
	}
	l.covered += union(spans)
	l.opTime += done.Sub(ot.start)
}

// union is the total length covered by the intervals.
func union(iv [][2]time.Time) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0].After(cur[1]) {
			total += cur[1].Sub(cur[0])
			cur = x
			continue
		}
		if x[1].After(cur[1]) {
			cur[1] = x[1]
		}
	}
	return total + cur[1].Sub(cur[0])
}

// tile runs process for one tile, charging its time to the tile's op and
// the kernel time vote reports for its stack to the tile.
func (l *ledger) tile(ctx context.Context, s *dataset.Stack, process func()) {
	var vote time.Duration
	l.mu.Lock()
	l.open[s] = &vote
	l.mu.Unlock()
	start := time.Now()
	process()
	end := time.Now()
	d := end.Sub(start)
	l.mu.Lock()
	delete(l.open, s)
	l.tiles++
	l.busy += d
	l.stages["cluster.tile"] = append(l.stages["cluster.tile"], d)
	l.stages["core.vote"] = append(l.stages["core.vote"], vote)
	l.stages["crreject.integrate"] = append(l.stages["crreject.integrate"], d-vote)
	if ot, ok := ctx.Value(opKey{}).(*opTrace); ok {
		l.stages["cluster.queue_wait"] = append(l.stages["cluster.queue_wait"], start.Sub(ot.start))
		ot.tiles = append(ot.tiles, [2]time.Time{start, end})
	}
	l.mu.Unlock()
	l.record(ctx, "bench_tile", start, end)
}

// vote charges one kernel call on s to the tile that owns s.
func (l *ledger) vote(s *dataset.Stack, d time.Duration, samples int) {
	l.mu.Lock()
	if v := l.open[s]; v != nil {
		*v += d
	}
	l.voteTime += d
	l.voteSamples += samples
	l.mu.Unlock()
}

// record adds a finished span under ctx's trace position to the trace.
func (l *ledger) record(ctx context.Context, stage string, start, end time.Time) {
	parent, _ := telemetry.TraceFromContext(ctx)
	l.tracer.Record(telemetry.TraceEvent{
		TraceID: parent.TraceID, SpanID: telemetry.NewSpanID(), ParentID: parent.SpanID,
		Stage: stage, Start: start, Dur: end.Sub(start),
	})
}

// timedWorker is the cluster.Worker a traced pool runs: the LocalWorker it
// wraps, each ProcessTile call timed and charged to the op whose
// submission context the tile carries.
type timedWorker struct {
	inner cluster.Worker
	led   *ledger
}

func (w *timedWorker) ProcessTile(ctx context.Context, t dataset.Tile) (res cluster.TileResult, err error) {
	w.led.tile(ctx, t.Stack, func() { res, err = w.inner.ProcessTile(ctx, t) })
	return res, err
}

// timedKernel is the core.PlanePreprocessor a traced pool hands
// NewLocalWorker: AlgoNGST with each plane-major range pass timed and
// charged to the tile whose stack it repairs.
type timedKernel struct {
	*core.AlgoNGST
	led *ledger
}

var _ core.PlanePreprocessor = (*timedKernel)(nil)

func (k *timedKernel) ProcessStackPlanes(s *dataset.Stack, p0, p1 int, sc *core.VoteScratch, stats *core.VoteStats) {
	start := time.Now()
	k.AlgoNGST.ProcessStackPlanes(s, p0, p1, sc, stats)
	k.led.vote(s, time.Since(start), (p1-p0)*s.Len())
}

// timedBackend is the serve.Backend a traced daemon schedules onto: the
// pool it wraps, each submission timed from the call to its result.
type timedBackend struct {
	pool *cluster.Pool
	led  *ledger
}

var _ serve.Backend = (*timedBackend)(nil)

func (b *timedBackend) Submit(ctx context.Context, s *dataset.Stack) <-chan *cluster.Result {
	ctx, ot := b.led.startOp(ctx, "backend")
	ch := b.pool.Submit(ctx, s)
	ot.submitted = time.Now()
	out := make(chan *cluster.Result, 1)
	go func() {
		res := <-ch
		b.led.finishOp(ot, time.Now())
		out <- res
	}()
	return out
}

// poolLayers reports the cluster, core and crreject layers of a traced
// window over a pool, as the wrappers timed them, with the pool's own
// pipeline_* telemetry.
func poolLayers(p *probe, w *window, workers int, set setFunc) {
	l := p.led
	l.mu.Lock()
	for name, stage := range map[string]string{
		"cluster.submit_ms":     "cluster.submit",
		"cluster.queue_wait_ms": "cluster.queue_wait",
		"cluster.tile_ms":       "cluster.tile",
		"cluster.finalize_ms":   "cluster.finalize",
		"core.vote_ms":          "core.vote",
		"crreject.integrate_ms": "crreject.integrate",
	} {
		set(name, ms(median(l.stages[stage])), len(l.stages[stage]))
	}
	set("cluster.busy_ratio", ratio(l.busy.Seconds(), float64(workers)*w.wall.Seconds()), l.tiles)
	set("cluster.tiles_per_op", ratio(float64(l.tiles), float64(w.attempted)), w.attempted)
	if l.ops > 0 {
		set("cluster.unattributed_ratio", 1-ratio(l.covered.Seconds(), l.opTime.Seconds()), l.ops)
	}
	set("core.vote_ns_per_sample", ratio(float64(l.voteTime), float64(l.voteSamples)), l.voteSamples)
	ops := l.ops
	l.mu.Unlock()
	l.outputMeans(set)
	wait, n := p.p50("pipeline_dispatch_wait")
	set("cluster.dispatch_wait_ms", ms(wait), n)
	set("cluster.retries", p.counter("pipeline_tile_retries_total"), ops)
}

// runtimeLayers reports the Go runtime's GC work per op.
func runtimeLayers(w *window, set setFunc) {
	set("runtime.gc_per_op", ratio(float64(w.gcs), float64(w.attempted)), int(w.gcs))
	set("runtime.gc_pause_ms_per_op", ratio(ms(w.gcPause), float64(w.attempted)), int(w.gcs))
}

// sideCalls is how many times each side call is timed.
const sideCalls = 16

// timeCalls times sideCalls calls of fn, made outside the closed loop on
// the window's inputs, and returns their median.
func timeCalls(fn func(i int) error) (time.Duration, int, error) {
	d := make([]time.Duration, sideCalls)
	for i := range d {
		start := time.Now()
		if err := fn(i); err != nil {
			return 0, 0, err
		}
		d[i] = time.Since(start)
	}
	return median(d), sideCalls, nil
}

// sideLayers times the fragmenting and Rice coding the pool does for each
// baseline, as side calls on the same inputs and reference images.
func sideLayers(in []*baseline, set setFunc) error {
	frag, n, err := timeCalls(func(i int) error {
		_, err := dataset.Fragment(in[i%len(in)].stack, tileSize)
		return err
	})
	if err != nil {
		return err
	}
	set("dataset.fragment_ms", ms(frag), n)
	enc, n, err := timeCalls(func(i int) error {
		if len(rice.Encode(in[i%len(in)].want.Pix)) == 0 {
			return errors.New("rice: empty encoding")
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("rice.encode_ms", ms(enc), n)
	return nil
}

// dirSize is the total size of the files directly inside dir.
func dirSize(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		fi, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}
