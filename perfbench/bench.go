package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// bench is one workload: its generated inputs and, once boot has run, the
// system under test built over them.
type bench interface {
	// samplesPerOp is the input samples one op consumes: pixels times
	// readouts, or pixels times bands.
	samplesPerOp() int
	// clients is the number of closed-loop clients.
	clients() int
	// psi is the eqs. 3-4 relative error of the reference outputs against
	// the pipeline run on the fault-free inputs, averaged over the n
	// generated inputs.
	psi() (v float64, n int)
	// boot builds the system from its public constructors and runs one
	// op, returning the time from the first constructor call to that op's
	// verified result and whether the result matched its reference. A
	// traced boot wraps the layers in the timing wrappers of layers.go.
	boot(traced bool) (time.Duration, bool, error)
	// op runs client c's seq-th op, returning its latency and whether its
	// output matched the reference bit for bit.
	op(c, seq int) (time.Duration, bool)
	// probe returns the last traced boot's instrumentation.
	probe() *probe
	// layers reports a traced window's per-layer metrics.
	layers(w *window, set setFunc) error
	// shutdown stops what boot built and waits for it; it is idempotent.
	shutdown()
}

const (
	// setupRuns fresh constructions are timed in every run and setup_s is
	// their median: a single construction is too short to repeat within
	// the metric's bound.
	setupRuns = 5
	// warmup runs the closed loop untimed before the window, so pooled
	// scratch buffers and the heap reach their steady state.
	warmup = time.Second
)

// measured is what one measure call saw.
type measured struct {
	setups  []time.Duration
	win     *window
	correct bool
}

// measure boots the system setups times, keeping the last one, warms it
// up and times a closed loop of length d. A traced measure hands set the
// window's per-layer metrics.
func measure(b bench, d time.Duration, traced bool, setups int, set setFunc) (*measured, error) {
	defer b.shutdown()
	m := &measured{correct: true}
	for i := 0; i < setups; i++ {
		b.shutdown()
		// Each construction starts from a collected heap, so the previous
		// one's garbage is not collected on this one's clock.
		runtime.GC()
		s, ok, err := b.boot(traced)
		if err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		m.setups = append(m.setups, s)
		m.correct = m.correct && ok
	}
	if w := closedLoop(b.clients(), warmup, b.op); w.failed > 0 {
		m.correct = false
	}
	if traced {
		b.probe().openWindow()
	}
	runtime.GC()
	m.win = closedLoop(b.clients(), d, b.op)
	m.correct = m.correct && m.win.failed == 0
	if traced {
		if err := b.layers(m.win, set); err != nil {
			return nil, err
		}
		runtimeLayers(m.win, set)
	}
	return m, nil
}

// runBench runs one invocation: an end-to-end measure, or for a traced run
// an untraced and a traced measure of half the window each, whose
// throughputs give trace.overhead_ratio.
func runBench(b bench, cfg runConfig) (*report, error) {
	if !cfg.trace {
		m, err := measure(b, cfg.window, false, setupRuns, nil)
		if err != nil {
			return nil, err
		}
		return endToEnd(b, m), nil
	}
	base, err := measure(b, cfg.window/2, false, 1, nil)
	if err != nil {
		return nil, err
	}
	vals := map[string]metric{}
	set := func(name string, v float64, n int) { vals[name] = metric{name: name, value: v, n: n} }
	tr, err := measure(b, cfg.window/2, true, setupRuns, set)
	if err != nil {
		return nil, err
	}
	spo := b.samplesPerOp()
	set("trace.overhead_ratio", ratio(tr.win.msamplesPerS(spo), base.win.msamplesPerS(spo)), len(tr.win.lat))
	r := &report{
		correct:   base.correct && tr.correct,
		attempted: tr.win.attempted,
		failed:    tr.win.failed,
		tracer:    b.probe().reg.Tracer(),
	}
	for _, l := range perLayer {
		v := vals[l.name]
		r.add(l.name, l.unit, v.value, v.n)
		delete(vals, l.name)
	}
	if len(vals) > 0 {
		var names []string
		for name := range vals {
			names = append(names, name)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("per-layer metrics missing from the perLayer list: %s", strings.Join(names, ", "))
	}
	return r, nil
}

// endToEnd reports the end-to-end metrics of an untraced measure.
func endToEnd(b bench, m *measured) *report {
	w := m.win
	spo := b.samplesPerOp()
	r := &report{correct: m.correct, attempted: w.attempted, failed: w.failed}
	// Failed ops are counted in attempted and failed rather than as a
	// metric, because every JSON metric must be one that is never zero.
	r.notes = append(r.notes, fmt.Sprintf("fail_ratio %.6f (%d of %d ops failed)",
		ratio(float64(w.failed), float64(w.attempted)), w.failed, w.attempted))
	r.add("setup_s", "s", median(m.setups).Seconds(), len(m.setups))
	r.add("p50_ms", "ms", ms(quantile(w.lat, 0.5)), len(w.lat))
	r.add("p90_ms", "ms", ms(quantile(w.lat, 0.9)), len(w.lat))
	r.add("msamples_per_s", "Msamples/s", w.msamplesPerS(spo), len(w.lat))
	r.add("cpu_ns_per_sample", "ns", ratio(float64(w.cpu), float64(w.attempted*spo)), w.attempted)
	r.add("alloc_mb_per_op", "MB", ratio(float64(w.allocBytes)/(1<<20), float64(w.attempted)), w.attempted)
	psi, n := b.psi()
	r.add("psi", "ratio", psi, n)
	return r
}
