package main

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"sync"
	"time"

	"spaceproc/internal/core"
	"spaceproc/internal/dataset"
	"spaceproc/internal/fault"
	"spaceproc/internal/metrics"
	"spaceproc/internal/otisapp"
	"spaceproc/internal/physics"
	"spaceproc/internal/rice"
	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
	"spaceproc/internal/telemetry"
)

// otis-cube runs 256x256 Stripe cubes of 8 bands from a ring of three.
const (
	otisSize  = 256
	otisBands = 8
	otisRing  = 3
)

// cube is one generated, fault-injected radiance cube and its reference
// output.
type cube struct {
	data *dataset.Cube
	// truth is the scene's ground-truth temperature map.
	truth     []float64
	wantTemps []float64
	wantEmis  []float32
	wantC     []byte
	// psi is the reference emissivity cube's error against the pipeline
	// run on the cube before fault injection.
	psi float64
}

// otisBench is otis-cube: one goroutine in a closed loop running AlgoOTIS
// (spatial, Lambda = 80), the otisapp retrieval and RiceEncodeFloat32 on
// each cube. The OTIS kernel runs here and nowhere else, so an NGST kernel
// change should leave this workload unchanged.
type otisBench struct {
	inputs      []*cube
	wavelengths []float64
	algo        *core.AlgoOTIS
	retr        *otisapp.Retriever
	sc          *core.CubeScratch
	work        *dataset.Cube
	p           *probe
}

func newOTISBench(cfg runConfig) (bench, error) {
	wl := physics.ThermalBands(otisBands)
	// The reference runs the scalar kernel: the differential oracle the
	// plane-major kernel is fuzzed against.
	ocfg := core.DefaultOTISConfig(wl)
	ocfg.ScalarOnly = true
	oracle, err := core.NewAlgoOTIS(ocfg)
	if err != nil {
		return nil, err
	}
	retr, err := otisapp.New(otisapp.DefaultConfig(wl))
	if err != nil {
		return nil, err
	}
	in := make([]*cube, otisRing)
	errs := make([]error, otisRing)
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i := range in {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			in[i], errs[i] = genCube(cfg.seed, i, oracle, retr)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return &otisBench{inputs: in, wavelengths: wl}, nil
}

func genCube(seed uint64, i int, oracle *core.AlgoOTIS, retr *otisapp.Retriever) (*cube, error) {
	cfg := synth.DefaultOTISConfig(synth.Stripe)
	cfg.Width, cfg.Height, cfg.Bands = otisSize, otisSize, otisBands
	scene, err := synth.NewOTISScene(cfg, rng.NewStream(seed, uint64(2*i)))
	if err != nil {
		return nil, err
	}
	faulty := scene.Cube.Clone()
	fault.Uncorrelated{Gamma0: gamma0}.InjectCube(faulty, rng.NewStream(seed, uint64(2*i+1)))
	out, comp, err := cubeReference(oracle, retr, faulty)
	if err != nil {
		return nil, err
	}
	clean, _, err := cubeReference(oracle, retr, scene.Cube)
	if err != nil {
		return nil, err
	}
	return &cube{
		data:      faulty,
		truth:     scene.Temps,
		wantTemps: out.Temps,
		wantEmis:  out.Emissivity.Data,
		wantC:     comp,
		psi:       metrics.RelativeError32(out.Emissivity.Data, clean.Emissivity.Data),
	}, nil
}

// cubeReference runs one cube through preprocessing, retrieval and Rice
// coding of the emissivity cube.
func cubeReference(algo *core.AlgoOTIS, retr *otisapp.Retriever, c *dataset.Cube) (*otisapp.Output, []byte, error) {
	local := c.Clone()
	algo.ProcessCube(local)
	out, err := retr.Process(local)
	if err != nil {
		return nil, nil, err
	}
	return out, rice.EncodeFloat32(out.Emissivity.Data), nil
}

// matches reports whether an op's output equals the cube's reference.
func (c *cube) matches(out *otisapp.Output, comp []byte) bool {
	if len(out.Temps) != len(c.wantTemps) || len(out.Emissivity.Data) != len(c.wantEmis) {
		return false
	}
	for i, t := range out.Temps {
		if math.Float64bits(t) != math.Float64bits(c.wantTemps[i]) {
			return false
		}
	}
	for i, e := range out.Emissivity.Data {
		if math.Float32bits(e) != math.Float32bits(c.wantEmis[i]) {
			return false
		}
	}
	return bytes.Equal(comp, c.wantC)
}

func (b *otisBench) samplesPerOp() int { return otisSize * otisSize * otisBands }
func (b *otisBench) clients() int      { return 1 }
func (b *otisBench) probe() *probe     { return b.p }

func (b *otisBench) psi() (float64, int) {
	var sum float64
	for _, c := range b.inputs {
		sum += c.psi
	}
	return sum / float64(len(b.inputs)), len(b.inputs)
}

func (b *otisBench) boot(traced bool) (time.Duration, bool, error) {
	b.p = nil
	if traced {
		b.p = newProbe()
	}
	start := time.Now()
	algo, err := core.NewAlgoOTIS(core.DefaultOTISConfig(b.wavelengths))
	if err != nil {
		return 0, false, err
	}
	retr, err := otisapp.New(otisapp.DefaultConfig(b.wavelengths))
	if err != nil {
		return 0, false, err
	}
	b.algo, b.retr, b.sc = algo, retr, core.NewCubeScratch()
	b.work = dataset.NewCube(otisSize, otisSize, otisBands)
	_, ok := b.op(0, 0)
	return time.Since(start), ok, nil
}

// op runs one cube. Copying the faulty input into the work cube re-arms
// the generator's input, so it stays outside the op's latency.
func (b *otisBench) op(_, seq int) (time.Duration, bool) {
	idx := seq % len(b.inputs)
	in := b.inputs[idx]
	copy(b.work.Data, in.data.Data)
	var stats core.CubeStats
	t0 := time.Now()
	b.algo.ProcessCubeScratch(b.work, b.sc, &stats)
	t1 := time.Now()
	out, err := b.retr.Process(b.work)
	t2 := time.Now()
	if err != nil {
		return t2.Sub(t0), false
	}
	comp := rice.EncodeFloat32(out.Emissivity.Data)
	t3 := time.Now()
	ok := in.matches(out, comp)
	if led := b.p.ledger(); led != nil {
		led.cubeOp(t0, t1, t2, t3)
		if ok {
			led.output(idx, map[string]float64{
				"core.otis_voted":      float64(stats.Voted),
				"otisapp.temp_error_k": otisapp.TempError(out.Temps, in.truth),
				"rice.ratio":           ratio(float64(4*len(out.Emissivity.Data)), float64(len(comp))),
			})
		}
	}
	return t3.Sub(t0), ok
}

// cubeOp records one cube op's three stages and their spans.
func (l *ledger) cubeOp(t0, t1, t2, t3 time.Time) {
	l.stage("core.otis_vote", t1.Sub(t0))
	l.stage("otisapp.retrieve", t2.Sub(t1))
	l.stage("rice.encode_f32", t3.Sub(t2))
	root := telemetry.TraceContext{TraceID: telemetry.NewTraceID(), SpanID: telemetry.NewSpanID()}
	l.tracer.Record(telemetry.TraceEvent{
		TraceID: root.TraceID, SpanID: root.SpanID, Stage: "bench_op", Label: "cube",
		Start: t0, Dur: t3.Sub(t0),
	})
	for _, s := range []struct {
		stage      string
		start, end time.Time
	}{{"otis_vote", t0, t1}, {"retrieve", t1, t2}, {"encode_f32", t2, t3}} {
		l.tracer.Record(telemetry.TraceEvent{
			TraceID: root.TraceID, SpanID: telemetry.NewSpanID(), ParentID: root.SpanID,
			Stage: s.stage, Start: s.start, Dur: s.end.Sub(s.start),
		})
	}
}

func (b *otisBench) layers(_ *window, set setFunc) error {
	l := b.p.led
	for name, stage := range map[string]string{
		"core.otis_vote_ms":   "core.otis_vote",
		"otisapp.retrieve_ms": "otisapp.retrieve",
		"rice.encode_f32_ms":  "rice.encode_f32",
	} {
		d, n := l.p50(stage)
		set(name, ms(d), n)
	}
	l.outputMeans(set)
	return nil
}

// shutdown has nothing to stop: the OTIS chain runs on the caller's
// goroutine.
func (b *otisBench) shutdown() {}
