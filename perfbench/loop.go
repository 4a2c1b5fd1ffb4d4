package main

import (
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// window is what one timed closed loop measured.
type window struct {
	// lat holds the latencies of the ops whose output matched, ascending.
	lat               []time.Duration
	attempted, failed int
	wall              time.Duration
	// cpu is the process's user plus system time over the window.
	cpu        time.Duration
	allocBytes uint64
	gcs        uint32
	gcPause    time.Duration
}

// closedLoop runs clients goroutines, each issuing op back to back until d
// has passed since the window opened: a client sends its next op only once
// the previous one returned, as the mission loop waits for each baseline
// and each serve client connection is synchronous. op(c, seq) runs client
// c's seq-th op and reports its latency and whether its output matched.
func closedLoop(clients int, d time.Duration, op func(c, seq int) (time.Duration, bool)) *window {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	lats := make([][]time.Duration, clients)
	fails := make([]int, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := 0; time.Now().Before(deadline); seq++ {
				lat, ok := op(c, seq)
				if !ok {
					fails[c]++
					continue
				}
				lats[c] = append(lats[c], lat)
			}
		}(c)
	}
	wg.Wait()
	w := &window{wall: time.Since(start), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&after)
	w.allocBytes = after.TotalAlloc - before.TotalAlloc
	w.gcs = after.NumGC - before.NumGC
	w.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	for c := range lats {
		w.lat = append(w.lat, lats[c]...)
		w.failed += fails[c]
	}
	w.attempted = len(w.lat) + w.failed
	slices.Sort(w.lat)
	return w
}

// msamplesPerS is the input samples of the ops that completed correctly,
// in millions per second of window.
func (w *window) msamplesPerS(samplesPerOp int) float64 {
	return ratio(float64(len(w.lat)*samplesPerOp), w.wall.Seconds()) / 1e6
}

// cpuTime is the process's user plus system CPU time so far. Getrusage on
// the calling process cannot fail on Linux; a zero would read as an absent
// measurement.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile interpolates the q-quantile of ascending durations; 0 when
// there are none.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + time.Duration((pos-float64(i))*float64(sorted[i+1]-sorted[i]))
}

// median is the interpolated median of durations in any order.
func median(d []time.Duration) time.Duration {
	s := slices.Clone(d)
	slices.Sort(s)
	return quantile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
