package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"spaceproc/internal/telemetry"
)

// metric is one reported value with the number of samples behind it.
type metric struct {
	name, unit string
	value      float64
	n          int
}

// report is one run's result.
type report struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	// notes are printed above the metrics.
	notes []string
	// tracer holds a traced run's spans for the Chrome trace file.
	tracer *telemetry.Tracer
}

func (r *report) add(name, unit string, v float64, n int) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, n: n})
}

// value returns the named metric's value.
func (r *report) value(name string) (float64, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

// write prints the notes, one line per metric with its unit and sample
// count, and the JSON result as the last line.
func (r *report) write(w io.Writer) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	byName := make(map[string]jsonMetric, len(r.metrics))
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		fmt.Fprintf(w, "%-28s %14.6g %-10s n=%d\n", m.name, m.value, m.unit, m.n)
		byName[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, byName})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
