// Pool is the long-lived scheduling core of the Figure 1 architecture.
// Where the seed code rebuilt a fan-out per baseline over a frozen worker
// slice, the pool owns worker membership and scheduling for the life of
// the process: workers join and leave at runtime, a consecutive-failure
// circuit breaker quarantines nodes that keep failing (with exponential
// backoff and probe-based half-open recovery), and a bounded shared job
// queue lets many baselines pipeline through one set of slaves with
// backpressure on the submitters.
//
// Health is driven purely by observed results — the pool never pings a
// worker; a quarantined node earns readmission by succeeding on a single
// half-open probe tile. A failure that trips a worker's circuit (or fails
// a probe) while healthy peers remain does not charge the tile's retry
// budget: the tile is drained to the healthy workers instead, so one
// crashed slave cannot burn every tile's budget. When no healthy workers
// remain, failures charge the budget again, which bounds termination.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spaceproc/internal/breaker"
	"spaceproc/internal/dataset"
	"spaceproc/internal/rice"
	"spaceproc/internal/telemetry"
)

// Pool defaults; override with the corresponding PoolOption.
const (
	// DefaultQueueDepth bounds the shared job queue. Submitters block once
	// the queue is full, which is the backpressure that keeps a burst of
	// baselines from ballooning memory.
	DefaultQueueDepth = 256
	// DefaultBreakerThreshold is the consecutive-failure count that trips
	// a worker's circuit.
	DefaultBreakerThreshold = 5
	// DefaultBreakerBackoff is the first quarantine duration; it doubles
	// on every failed probe up to DefaultBreakerBackoffMax.
	DefaultBreakerBackoff    = 25 * time.Millisecond
	DefaultBreakerBackoffMax = 2 * time.Second
)

var errPoolClosed = errors.New("cluster: pool closed")

// WorkerState is a pool worker's circuit-breaker state.
type WorkerState = breaker.State

const (
	// WorkerHealthy workers compete for queued tiles.
	WorkerHealthy = breaker.Healthy
	// WorkerQuarantined workers sit out their backoff after tripping the
	// consecutive-failure breaker.
	WorkerQuarantined = breaker.Quarantined
	// WorkerProbing workers have served their backoff and are half-open:
	// the next tile is a probe whose outcome readmits or re-quarantines.
	WorkerProbing = breaker.Probing
)

// WorkerStatus is one worker's membership and health snapshot.
type WorkerStatus struct {
	// ID is the pool-assigned stable identifier (never reused).
	ID string
	// State is the circuit-breaker state at snapshot time.
	State WorkerState
	// ConsecutiveFailures counts failures since the last success.
	ConsecutiveFailures int
	// Backoff is the worker's current quarantine duration (zero while the
	// circuit has never tripped since the last readmission).
	Backoff time.Duration
}

// poolWorker is one member: the Worker, its runner's stop channel, and its
// breaker state (guarded by the pool mutex).
type poolWorker struct {
	id   string
	seq  int
	w    Worker
	hist *telemetry.Histogram // per-worker process latency; nil without telemetry
	stop chan struct{}
	br   breaker.Breaker
}

// poolJob is one tile of one submission with its retry budget. The tile
// is a window onto the submission's stack: its pixels are gathered only
// when a runner dispatches it, at every attempt.
type poolJob struct {
	sub      *submission
	win      dataset.Tile
	retries  int
	enqueued time.Time // zero unless telemetry is enabled
	// origin is the trace context of the tile's first dispatch, so every
	// requeue, retry and deadline expiry parents under the dispatch that
	// started the tile's story.
	origin telemetry.TraceContext
}

// poolMetrics holds the pool's registry handles, resolved once at
// construction so the per-tile path never touches the registry maps.
type poolMetrics struct {
	runs          *telemetry.Counter
	tiles         *telemetry.Counter
	completed     *telemetry.Counter
	retried       *telemetry.Counter
	failed        *telemetry.Counter
	bytesOut      *telemetry.Counter
	circuitOpened *telemetry.Counter
	circuitClosed *telemetry.Counter
	dispatchWait  *telemetry.Histogram
	tileProcess   *telemetry.Histogram
	run           *telemetry.Histogram
	workers       *telemetry.Gauge
	healthy       *telemetry.Gauge
	quarantined   *telemetry.Gauge
	queueDepth    *telemetry.Gauge
}

// Pool schedules tiles from many concurrent submissions over a mutable set
// of workers. Construct with NewPool, populate with AddWorker, submit
// baselines with Submit, and Close when done.
type Pool struct {
	tileSize         int
	retries          int
	queueCap         int
	breakerThreshold int
	backoffBase      time.Duration
	backoffMax       time.Duration

	// met and tracer are both set exactly when tel is, so a block guarded
	// by either may use the other.
	tel    *telemetry.Registry
	met    *poolMetrics
	tracer *telemetry.Tracer
	log    *slog.Logger

	jobs chan *poolJob
	done chan struct{}

	mu      sync.Mutex
	workers map[string]*poolWorker
	seq     int
	closed  bool
	wg      sync.WaitGroup
}

// PoolOption configures a Pool.
type PoolOption func(*Pool)

// WithPoolTileSize overrides the 128x128 fragment size.
func WithPoolTileSize(n int) PoolOption {
	return func(p *Pool) { p.tileSize = n }
}

// WithPoolRetries sets how many times a tile may be charged for a worker
// failure before its baseline is abandoned. Failures that trip a worker's
// circuit (or fail a half-open probe) while healthy workers remain are not
// charged.
func WithPoolRetries(n int) PoolOption {
	return func(p *Pool) { p.retries = n }
}

// WithQueueDepth bounds the shared job queue; submitters block when it is
// full.
func WithQueueDepth(n int) PoolOption {
	return func(p *Pool) { p.queueCap = n }
}

// WithBreaker tunes the circuit breaker: threshold consecutive failures
// trip a worker, which then sits out base (doubling per failed probe, up
// to max) before a half-open probe.
func WithBreaker(threshold int, base, max time.Duration) PoolOption {
	return func(p *Pool) {
		p.breakerThreshold = threshold
		p.backoffBase = base
		p.backoffMax = max
	}
}

// WithPoolTelemetry wires the pool's instrumentation into reg: the
// pipeline_* counters and stage spans, per-worker process histograms keyed
// by stable worker ID (pipeline_worker_<id>_process), the scheduler gauges
// (pipeline_pool_workers_healthy, pipeline_pool_workers_quarantined,
// pipeline_pool_queue_depth) and circuit transition counters
// (pipeline_pool_circuit_open_total / _close_total), plus distributed
// trace events into the registry's Tracer.
func WithPoolTelemetry(reg *telemetry.Registry) PoolOption {
	return func(p *Pool) { p.tel = reg }
}

// WithPoolLogger routes the pool's fault forensics — WARN on tile retries,
// drains and quarantines, ERROR on permanent tile failure, INFO on
// readmission — into l.
func WithPoolLogger(l *slog.Logger) PoolOption {
	return func(p *Pool) { p.log = l }
}

// NewPool builds an empty pool; add workers with AddWorker.
func NewPool(opts ...PoolOption) (*Pool, error) {
	p := &Pool{
		tileSize:         dataset.TileSize,
		retries:          2,
		queueCap:         DefaultQueueDepth,
		breakerThreshold: DefaultBreakerThreshold,
		backoffBase:      DefaultBreakerBackoff,
		backoffMax:       DefaultBreakerBackoffMax,
		workers:          make(map[string]*poolWorker),
		done:             make(chan struct{}),
	}
	for _, o := range opts {
		o(p)
	}
	if p.tileSize <= 0 {
		return nil, fmt.Errorf("cluster: tile size %d must be positive", p.tileSize)
	}
	if p.retries < 0 {
		return nil, fmt.Errorf("cluster: negative retry budget %d", p.retries)
	}
	if p.queueCap <= 0 {
		return nil, fmt.Errorf("cluster: queue depth %d must be positive", p.queueCap)
	}
	if p.breakerThreshold <= 0 {
		return nil, fmt.Errorf("cluster: breaker threshold %d must be positive", p.breakerThreshold)
	}
	if p.backoffBase <= 0 || p.backoffMax < p.backoffBase {
		return nil, fmt.Errorf("cluster: breaker backoff [%v, %v] must be positive and ordered",
			p.backoffBase, p.backoffMax)
	}
	p.jobs = make(chan *poolJob, p.queueCap)
	if p.tel != nil {
		p.met = &poolMetrics{
			runs:          p.tel.Counter("pipeline_runs_total"),
			tiles:         p.tel.Counter("pipeline_tiles_total"),
			completed:     p.tel.Counter("pipeline_tiles_completed_total"),
			retried:       p.tel.Counter("pipeline_tile_retries_total"),
			failed:        p.tel.Counter("pipeline_tile_failures_total"),
			bytesOut:      p.tel.Counter("pipeline_bytes_compressed_total"),
			circuitOpened: p.tel.Counter("pipeline_pool_circuit_open_total"),
			circuitClosed: p.tel.Counter("pipeline_pool_circuit_close_total"),
			dispatchWait:  p.tel.Histogram("pipeline_dispatch_wait"),
			tileProcess:   p.tel.Histogram("pipeline_tile_process"),
			run:           p.tel.Histogram("pipeline_run"),
			workers:       p.tel.Gauge("pipeline_workers"),
			healthy:       p.tel.Gauge("pipeline_pool_workers_healthy"),
			quarantined:   p.tel.Gauge("pipeline_pool_workers_quarantined"),
			queueDepth:    p.tel.Gauge("pipeline_pool_queue_depth"),
		}
		p.tracer = p.tel.Tracer()
		p.tracer.SetProc("master")
	}
	return p, nil
}

// AddWorker admits w into the pool and returns its stable ID ("w1", "w2",
// ...). IDs are never reused, so telemetry keyed by them survives
// membership churn. Returns "" if the pool is closed.
func (p *Pool) AddWorker(w Worker) string {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ""
	}
	p.seq++
	pw := &poolWorker{
		id:   fmt.Sprintf("w%d", p.seq),
		seq:  p.seq,
		w:    w,
		stop: make(chan struct{}),
	}
	if p.tel != nil {
		pw.hist = p.tel.Histogram("pipeline_worker_" + pw.id + "_process")
	}
	p.workers[pw.id] = pw
	p.updateGaugesLocked()
	p.wg.Add(1)
	p.mu.Unlock()
	go p.runWorker(pw)
	return pw.id
}

// RemoveWorker retires the identified worker. Its in-flight tile (if any)
// completes normally; no new tiles are dispatched to it. Reports whether
// the ID was a member.
func (p *Pool) RemoveWorker(id string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	pw, ok := p.workers[id]
	if !ok {
		return false
	}
	delete(p.workers, id)
	close(pw.stop)
	p.updateGaugesLocked()
	return ok
}

// Workers snapshots membership and health, ordered by admission.
func (p *Pool) Workers() []WorkerStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]WorkerStatus, 0, len(p.workers))
	for _, pw := range p.workers {
		out = append(out, WorkerStatus{
			ID:                  pw.id,
			State:               pw.br.State,
			ConsecutiveFailures: pw.br.Consecutive,
			Backoff:             pw.br.Backoff,
		})
	}
	sort.Slice(out, func(i, j int) bool { return idSeqLess(out[i].ID, out[j].ID) })
	return out
}

// idSeqLess orders "w<seq>" IDs numerically (w2 before w10).
func idSeqLess(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

// Size returns the current worker count.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.workers)
}

// Close shuts the pool down: runners exit after their in-flight tile, a
// Submit still enqueueing stops, and every job still queued fails its
// submission with a pool-closed error, so every Submit delivers its
// Result. Later Submits deliver the pool-closed error at once. Close is
// idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.done)
	p.mu.Unlock()
	p.wg.Wait()
	for {
		select {
		case j := <-p.jobs:
			j.sub.fail(errPoolClosed)
		default:
			return
		}
	}
}

// submission tracks one Submit call: its tiles' completion accounting and
// the spans that bracket the run. Exactly one finalize happens, when the
// pending count hits zero.
type submission struct {
	pool *Pool
	ctx  context.Context
	out  chan *Result

	// src is the caller's stack, borrowed until deliver; grid lays the
	// jobs' windows over it.
	src  *dataset.Stack
	grid dataset.Grid

	runTrace telemetry.TraceContext
	runSpan  *telemetry.TraceSpan

	results  chan TileResult
	failures chan error
	retried  atomic.Int64
	pending  atomic.Int64
}

// Submit checks the stack's geometry and enqueues its tiles onto the
// shared queue, blocking for backpressure when the queue is full, and
// returns a channel that delivers the baseline's Result exactly once. A
// failed run delivers a Result whose Err is set (a malformed stack or one
// the tile size does not divide, both dataset.ErrBadGeometry; joined
// permanent tile failures, ctx cancellation, or pool closure). Many
// submissions may be in flight at once; their tiles interleave over the
// same workers.
//
// Submit borrows s until the Result is delivered: a queued tile is a
// window onto s, which a runner copies out at each attempt, so the caller
// must not write s or its frames before then. The pool never writes s.
func (p *Pool) Submit(ctx context.Context, s *dataset.Stack) <-chan *Result {
	sub := &submission{pool: p, out: make(chan *Result, 1)}
	// Continue the caller's trace (the mission layer mints one per
	// baseline) or open a fresh root when this run is the outermost traced
	// unit. runTrace parents every tile's first dispatch.
	if p.tracer != nil {
		parent, _ := telemetry.TraceFromContext(ctx)
		sub.runSpan = p.tracer.StartSpan(parent, StageRun, "baseline")
		sub.runTrace = sub.runSpan.Context()
		ctx = telemetry.ContextWithTrace(ctx, p.tracer, sub.runTrace)
	}
	sub.ctx = ctx

	fragSpan := p.tracer.StartSpan(sub.runTrace, StageFragment, "baseline")
	grid, err := dataset.NewGrid(s, p.tileSize)
	// End the fragment span before the error check so the failed
	// geometry check itself is visible in the trace.
	fragSpan.End()
	if err != nil {
		sub.deliver(&Result{Err: err})
		return sub.out
	}
	// Enqueue only while the pool is open, and count this Submit in p.wg
	// so Close drains the queue after the last job lands on it: a job
	// enqueued behind Close's drain would never be failed or run.
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		sub.deliver(&Result{Err: errPoolClosed})
		return sub.out
	}
	p.wg.Add(1)
	p.mu.Unlock()
	defer p.wg.Done()

	n := grid.Len()
	sub.src, sub.grid = s, grid
	sub.results = make(chan TileResult, n)
	sub.failures = make(chan error, n)
	sub.pending.Store(int64(n))
	if p.met != nil {
		p.met.runs.Inc()
		p.met.tiles.Add(int64(n))
	}
	for i := 0; i < n; i++ {
		// Check cancellation before the select: with queue space free both
		// cases would be ready and the choice random, and an abandoned
		// submission must stop enqueueing deterministically.
		if ctx.Err() != nil {
			sub.account(n - i)
			return sub.out
		}
		j := &poolJob{sub: sub, win: grid.Window(i), enqueued: p.enqueueTime()}
		select {
		case p.jobs <- j:
			p.noteQueueDepth()
		case <-ctx.Done():
			sub.account(n - i)
			return sub.out
		case <-p.done:
			sub.failN(n-i, errPoolClosed)
			return sub.out
		}
	}
	return sub.out
}

// account retires n tiles from the pending set and finalizes the
// submission when the last one lands. Callers send to results/failures
// before accounting, so finalize observes every outcome.
func (sub *submission) account(n int) {
	if sub.pending.Add(-int64(n)) == 0 {
		go sub.finalize()
	}
}

// fail records a permanent tile failure and retires the tile.
func (sub *submission) fail(err error) {
	sub.failures <- err
	sub.account(1)
}

// failN fails n tiles with the same error.
func (sub *submission) failN(n int, err error) {
	for i := 0; i < n; i++ {
		sub.failures <- err
	}
	sub.account(n)
}

// deliver ends the run span, which also times pipeline_run, and hands the
// result to the caller. It runs exactly once per submission, and the span
// ends before the send so a caller that returns from <-out observes it
// recorded.
func (sub *submission) deliver(res *Result) {
	if m := sub.pool.met; m != nil {
		sub.runSpan.EndTo(m.run)
	}
	sub.out <- res
	close(sub.out)
}

// finalize assembles the submission's outcome: cancellation first, then
// joined permanent failures, then blit + compress of a clean run.
func (sub *submission) finalize() {
	p := sub.pool
	close(sub.results)
	close(sub.failures)
	if err := sub.ctx.Err(); err != nil {
		sub.deliver(&Result{Err: err})
		return
	}
	// Aggregate every permanent tile failure, not just the first: a
	// multi-tile outage reads very differently from a single bad segment.
	var errs []error
	for e := range sub.failures {
		errs = append(errs, e)
	}
	if len(errs) > 0 {
		sub.deliver(&Result{Err: errors.Join(errs...), Retries: int(sub.retried.Load())})
		return
	}
	out := &Result{
		Image:   dataset.NewImage(sub.src.Width(), sub.src.Height()),
		Retries: int(sub.retried.Load()),
	}
	// Merge in tile order, not completion order: VoteStats.Add keeps the
	// last merged tile's WindowCBit, so the baseline's value must not
	// depend on which tile finished last.
	tiles := make([]TileResult, 0, sub.grid.Len())
	for res := range sub.results {
		tiles = append(tiles, res)
	}
	sort.Slice(tiles, func(i, j int) bool { return tiles[i].Index < tiles[j].Index })
	count := 0
	for _, res := range tiles {
		start := time.Now()
		blit(out.Image, res)
		if p.tracer != nil {
			p.tracer.Record(telemetry.TraceEvent{
				TraceID: sub.runTrace.TraceID, SpanID: telemetry.NewSpanID(), ParentID: sub.runTrace.SpanID,
				Stage: StageBlit, Label: fmt.Sprintf("tile_%d", res.Index),
				Start: start, Dur: time.Since(start),
			})
		}
		out.Stats.Add(res.Stats)
		out.PreStats.Add(res.PreStats)
		count++
	}
	if count != sub.grid.Len() {
		sub.deliver(&Result{Err: fmt.Errorf("cluster: reassembled %d of %d tiles", count, sub.grid.Len())})
		return
	}
	compSpan := p.tracer.StartSpan(sub.runTrace, StageCompress, "baseline")
	out.Compressed = rice.Encode(out.Image.Pix)
	compSpan.End()
	if p.met != nil {
		p.met.bytesOut.Add(int64(len(out.Compressed)))
	}
	sub.deliver(out)
}

// runWorker is one member's runner: serve quarantine backoff, then compete
// for queued tiles until removed or the pool closes. Each tile it takes
// is gathered into the runner's warm stack.
func (p *Pool) runWorker(pw *poolWorker) {
	defer p.wg.Done()
	var warm warmStack
	for {
		p.mu.Lock()
		state := pw.br.State
		wait := time.Until(pw.br.ReopenAt)
		p.mu.Unlock()
		if state == WorkerQuarantined {
			if wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-t.C:
				case <-pw.stop:
					t.Stop()
					return
				case <-p.done:
					t.Stop()
					return
				}
			}
			// Backoff served: go half-open. The next tile is the probe.
			p.mu.Lock()
			if pw.br.State == WorkerQuarantined {
				pw.br.State = WorkerProbing
			}
			p.mu.Unlock()
		}
		select {
		case <-pw.stop:
			return
		case <-p.done:
			return
		case j := <-p.jobs:
			p.noteQueueDepth()
			p.processJob(pw, &warm, j)
		}
	}
}

// processJob runs one tile on one worker, recording telemetry and routing
// the outcome: success completes the tile, a worker fault charges (or, on
// a circuit trip with healthy peers, drains without charging) the retry
// budget, and a cancelled submission's tile is retired quietly. The
// worker gets the tile's window gathered into warm, so the caller's stack
// is only read and every attempt starts from its raw bits.
//
// Trace shape per attempt: a dispatch span (queue wait) parented under the
// tile's originating dispatch (or the run root on the first attempt), a
// process span under the dispatch, and — on the error paths — retry or
// deadline events under the same dispatch. The process span's context
// rides the worker ctx, so a remote slave's serve span continues the trace
// across the wire. TIDs are the worker's stable admission sequence.
func (p *Pool) processJob(pw *poolWorker, warm *warmStack, j *poolJob) {
	sub := j.sub
	if sub.ctx.Err() != nil {
		// The submission was abandoned while this tile sat queued; retire
		// it without running (the finalize path reports ctx.Err()).
		sub.account(1)
		return
	}
	ctx := sub.ctx
	var label string
	var start time.Time
	var dispatchTC, procTC telemetry.TraceContext
	if p.tracer != nil {
		label = fmt.Sprintf("tile_%d", j.win.Index)
		parent := j.origin
		if !parent.Valid() {
			parent = sub.runTrace
		}
		dispatchTC = telemetry.TraceContext{TraceID: parent.TraceID, SpanID: telemetry.NewSpanID()}
		wait := time.Since(j.enqueued)
		p.tracer.Record(telemetry.TraceEvent{
			TraceID: dispatchTC.TraceID, SpanID: dispatchTC.SpanID, ParentID: parent.SpanID,
			Stage: StageDispatch, Label: label, TID: int64(pw.seq),
			Start: j.enqueued, Dur: wait,
			Args: map[string]string{"attempt": fmt.Sprint(j.retries)},
		})
		p.met.dispatchWait.Observe(wait)
		if !j.origin.Valid() {
			j.origin = dispatchTC
		}
		procTC = telemetry.TraceContext{TraceID: dispatchTC.TraceID, SpanID: telemetry.NewSpanID()}
		ctx = telemetry.ContextWithTrace(ctx, p.tracer, procTC)
		start = time.Now()
	}
	res, err := pw.w.ProcessTile(ctx, warm.gather(sub.src, j.win, p.tileSize))
	if err == nil {
		err = checkResult(j.win, p.tileSize, res)
	}
	if p.tracer != nil {
		d := time.Since(start)
		p.met.tileProcess.Observe(d)
		pw.hist.Observe(d)
		ev := telemetry.TraceEvent{
			TraceID: dispatchTC.TraceID, SpanID: procTC.SpanID, ParentID: dispatchTC.SpanID,
			Stage: StageProcess, Label: label, TID: int64(pw.seq),
			Start: start, Dur: d,
		}
		if err != nil {
			ev.Args = map[string]string{"error": err.Error()}
		}
		p.tracer.Record(ev)
	}
	if err != nil {
		// A cancelled submission is not a worker fault: retire the tile
		// without touching the breaker or the retry budget.
		if sub.ctx.Err() != nil && errors.Is(err, sub.ctx.Err()) {
			if p.tracer != nil && errors.Is(err, context.DeadlineExceeded) {
				p.tracer.Record(telemetry.TraceEvent{
					TraceID: dispatchTC.TraceID, SpanID: telemetry.NewSpanID(), ParentID: dispatchTC.SpanID,
					Stage: "deadline", Label: label, TID: int64(pw.seq),
					Start: start, Dur: time.Since(start),
				})
			}
			sub.account(1)
			return
		}
		if !p.noteFailure(pw) {
			// The failure tripped this worker's circuit (or failed its
			// half-open probe) while healthy peers remain: drain the tile
			// to them without charging its budget, so one bad worker
			// cannot exhaust every tile's retries.
			if p.log != nil {
				p.log.LogAttrs(ctx, slog.LevelWarn, "tile drained after worker quarantine",
					slog.Int("tile", j.win.Index),
					slog.String("worker", pw.id),
					slog.String("error", err.Error()))
			}
			p.requeue(&poolJob{sub: sub, win: j.win, retries: j.retries, enqueued: p.enqueueTime(), origin: j.origin})
			return
		}
		if j.retries < p.retries {
			if p.tracer != nil {
				p.met.retried.Inc()
				p.tracer.Record(telemetry.TraceEvent{
					TraceID: dispatchTC.TraceID, SpanID: telemetry.NewSpanID(), ParentID: dispatchTC.SpanID,
					Stage: StageRetry, Label: label, TID: int64(pw.seq),
					Start: start, Dur: time.Since(start),
					Args: map[string]string{"attempt": fmt.Sprint(j.retries), "error": err.Error()},
				})
			}
			if p.log != nil {
				p.log.LogAttrs(ctx, slog.LevelWarn, "tile retry",
					slog.Int("tile", j.win.Index),
					slog.Int("attempt", j.retries+1),
					slog.String("worker", pw.id),
					slog.String("error", err.Error()))
			}
			sub.retried.Add(1)
			p.requeue(&poolJob{sub: sub, win: j.win, retries: j.retries + 1, enqueued: p.enqueueTime(), origin: j.origin})
			return
		}
		if p.met != nil {
			p.met.failed.Inc()
		}
		if p.log != nil {
			p.log.LogAttrs(ctx, slog.LevelError, "tile failed permanently",
				slog.Int("tile", j.win.Index),
				slog.Int("attempts", j.retries+1),
				slog.String("worker", pw.id),
				slog.String("error", err.Error()))
		}
		sub.fail(fmt.Errorf("cluster: tile %d failed permanently: %w", j.win.Index, err))
		return
	}
	p.noteSuccess(pw)
	if p.met != nil {
		p.met.completed.Inc()
	}
	sub.results <- res
	sub.account(1)
}

// checkResult rejects an answer that does not fit the window of edge size
// it was dispatched for: another index or origin, no image, or an image
// of another size. finalize blits each result by its own geometry, so a
// misfit would panic the master or be served inside the frame; the pool
// treats it as a worker fault instead.
func checkResult(win dataset.Tile, size int, res TileResult) error {
	switch {
	case res.Index != win.Index || res.X0 != win.X0 || res.Y0 != win.Y0:
		return fmt.Errorf("cluster: worker answered tile %d at (%d,%d) for tile %d at (%d,%d)",
			res.Index, res.X0, res.Y0, win.Index, win.X0, win.Y0)
	case res.Image == nil:
		return fmt.Errorf("cluster: worker returned no image for tile %d", win.Index)
	case res.Image.Width != size || res.Image.Height != size || !res.Image.Fits():
		return fmt.Errorf("cluster: worker returned a %dx%d image with %d pixels for %dx%d tile %d",
			res.Image.Width, res.Image.Height, len(res.Image.Pix), size, size, win.Index)
	}
	return nil
}

// warmStack is a runner's gather target. Each attempt copies its tile's
// window of the caller's stack into it, and the worker repairs that copy
// in place. It grows to the largest tile it has gathered and keeps that
// memory for the runner's life.
type warmStack struct {
	stack  dataset.Stack
	images []dataset.Image
	frames []*dataset.Image
	pix    dataset.Pixels
}

// gather copies window win of src, a tile of edge size, into the warm
// stack and returns the tile to hand the worker. The frame headers are
// rebuilt on every gather, so nothing a worker did to the last tile's
// headers reaches the next.
func (ws *warmStack) gather(src *dataset.Stack, win dataset.Tile, size int) dataset.Tile {
	n, area := src.Len(), size*size
	if len(ws.pix) < n*area {
		ws.pix = make(dataset.Pixels, n*area)
	}
	if len(ws.images) < n {
		ws.images = make([]dataset.Image, n)
		ws.frames = make([]*dataset.Image, n)
	}
	for i := range n {
		ws.images[i] = dataset.Image{Width: size, Height: size, Pix: ws.pix[i*area : (i+1)*area : (i+1)*area]}
		ws.frames[i] = &ws.images[i]
	}
	ws.stack.Frames = ws.frames[:n]
	dataset.CopyWindow(&ws.stack, src, win.X0, win.Y0)
	win.Stack = &ws.stack
	return win
}

// requeue puts a job back on the shared queue without blocking the calling
// runner: when the queue is full, a goroutine waits out the contention (or
// the job's submission dying, or pool shutdown). Blocking the runner here
// would deadlock once every runner held a requeue against a full queue.
func (p *Pool) requeue(j *poolJob) {
	select {
	case p.jobs <- j:
		p.noteQueueDepth()
		return
	default:
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		select {
		case p.jobs <- j:
			p.noteQueueDepth()
		case <-j.sub.ctx.Done():
			j.sub.account(1)
		case <-p.done:
			j.sub.fail(errPoolClosed)
		}
	}()
}

// noteFailure advances pw's breaker after a worker fault and reports
// whether the failure charges the tile's retry budget. A trip or probe
// failure is uncharged while healthy peers remain (the tile drains to
// them); with none left every failure charges, so a fully-broken pool
// still terminates instead of cycling tiles forever.
func (p *Pool) noteFailure(pw *poolWorker) (charge bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	wasProbe := pw.br.State == WorkerProbing
	if !pw.br.Fail(p.breakerThreshold, p.backoffBase, p.backoffMax) {
		return true
	}
	if p.met != nil {
		p.met.circuitOpened.Inc()
	}
	p.updateGaugesLocked()
	if p.log != nil {
		p.log.LogAttrs(context.Background(), slog.LevelWarn, "worker quarantined",
			slog.String("worker", pw.id),
			slog.Int("consecutive_failures", pw.br.Consecutive),
			slog.Duration("backoff", pw.br.Backoff),
			slog.Bool("probe", wasProbe))
	}
	return p.healthyLocked() == 0
}

// noteSuccess resets pw's breaker; a half-open probe success readmits the
// worker.
func (p *Pool) noteSuccess(pw *poolWorker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !pw.br.Succeed() {
		return
	}
	if p.met != nil {
		p.met.circuitClosed.Inc()
	}
	p.updateGaugesLocked()
	if p.log != nil {
		p.log.LogAttrs(context.Background(), slog.LevelInfo, "worker readmitted after successful probe",
			slog.String("worker", pw.id))
	}
}

func (p *Pool) healthyLocked() int {
	n := 0
	for _, pw := range p.workers {
		if pw.br.State == WorkerHealthy {
			n++
		}
	}
	return n
}

// updateGaugesLocked refreshes the membership gauges; probing workers
// count as quarantined until a probe succeeds.
func (p *Pool) updateGaugesLocked() {
	if p.met == nil {
		return
	}
	healthy := p.healthyLocked()
	p.met.workers.Set(float64(len(p.workers)))
	p.met.healthy.Set(float64(healthy))
	p.met.quarantined.Set(float64(len(p.workers) - healthy))
}

func (p *Pool) noteQueueDepth() {
	if p.met != nil {
		p.met.queueDepth.Set(float64(len(p.jobs)))
	}
}

func (p *Pool) enqueueTime() time.Time {
	if p.met == nil {
		return time.Time{}
	}
	return time.Now()
}
