package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"time"
)

// Text-exposition parsing. ParseText is the inverse of Snapshot.WriteText:
// it rebuilds a Snapshot — counters, gauges, span counts and mergeable
// histogram states — from a scraped /metrics page. It is the one parser
// every scraper in the tree shares: the fleet router's prober reads each
// member's page through it, keeps the page for /fleet/metrics and
// /fleet/healthz, and takes the spillover depth off it.
//
// The parser is deliberately forgiving: malformed lines are skipped, not
// fatal, because a scrape races the server's own writes and a consumer
// wants whatever parsed rather than nothing. Only the underlying read
// error is returned, alongside everything parsed before the fault, so a
// truncated body still yields its prefix.

// Merge folds o into s: counters, gauges and span counts sum, histogram
// states merge bucket by bucket, and uptime keeps the maximum (the
// longest-lived node). Summing gauges is the useful fleet semantic for
// the levels exposed here (inflight requests, queue depths, worker
// counts); a consumer wanting per-node values reads them pre-merge.
// Merging into the zero Snapshot allocates its maps, and o is never
// written.
func (s *Snapshot) Merge(o Snapshot) {
	if o.Uptime > s.Uptime {
		s.Uptime = o.Uptime
	}
	s.Counters = sumInto(s.Counters, o.Counters)
	s.Gauges = sumInto(s.Gauges, o.Gauges)
	s.SpanCounts = sumInto(s.SpanCounts, o.SpanCounts)
	if s.HistogramStates == nil {
		s.HistogramStates = make(map[string]HistogramState, len(o.HistogramStates))
	}
	for name, st := range o.HistogramStates {
		cur := s.HistogramStates[name]
		cur.Merge(st)
		s.HistogramStates[name] = cur
	}
}

// sumInto adds src's values into dst, allocating dst when it is nil.
func sumInto[V int64 | float64](dst, src map[string]V) map[string]V {
	if dst == nil {
		dst = make(map[string]V, len(src))
	}
	for name, v := range src {
		dst[name] += v
	}
	return dst
}

// ParseText parses a text exposition. Malformed lines are skipped; the
// returned error is non-nil only for a read fault, and the snapshot
// holds everything parsed up to it.
func ParseText(r io.Reader) (Snapshot, error) {
	s := Snapshot{
		Counters:        map[string]int64{},
		Gauges:          map[string]float64{},
		HistogramStates: map[string]HistogramState{},
		SpanCounts:      map[string]int64{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		parseLine(&s, sc.Text())
	}
	return s, sc.Err()
}

// parseLine folds one exposition line into s, silently skipping anything
// it cannot make sense of.
func parseLine(s *Snapshot, line string) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return
	}
	switch fields[0] {
	case "uptime":
		if d, err := time.ParseDuration(fields[1]); err == nil {
			s.Uptime = d
		}
	case "counter":
		if len(fields) != 3 {
			return
		}
		if v, err := strconv.ParseInt(fields[2], 10, 64); err == nil {
			s.Counters[fields[1]] = v
		}
	case "gauge":
		if len(fields) != 3 {
			return
		}
		if v, err := strconv.ParseFloat(fields[2], 64); err == nil {
			s.Gauges[fields[1]] = v
		}
	case "spans":
		if len(fields) != 3 {
			return
		}
		if v, err := strconv.ParseInt(fields[2], 10, 64); err == nil {
			s.SpanCounts[fields[1]] = v
		}
	case "histogram":
		if st, ok := parseHistogram(fields[2:]); ok {
			s.HistogramStates[fields[1]] = st
		}
	}
}

// parseHistogram reconstructs a HistogramState from the k=v fields of one
// histogram line. Pages from current servers carry the exact machine
// fields (sum, min_ns, max_ns, buckets); pages from older servers only
// carry the digest, in which case the state is approximated by placing
// every observation at the mean — counts and sums stay exact, quantiles
// degrade to the mean, and merging still adds up. Machine fields whose
// buckets do not sum to count are corrupt and get the digest treatment
// too, so every parsed state keeps the invariant Merge relies on.
func parseHistogram(fields []string) (HistogramState, bool) {
	kv := map[string]string{}
	for _, f := range fields {
		i := strings.IndexByte(f, '=')
		if i <= 0 {
			return HistogramState{}, false
		}
		kv[f[:i]] = f[i+1:]
	}
	count, err := strconv.ParseInt(kv["count"], 10, 64)
	if err != nil || count < 0 {
		return HistogramState{}, false
	}
	if count == 0 {
		return HistogramState{}, true
	}
	st := HistogramState{Count: count}
	if sumS, ok := kv["sum"]; ok {
		sum, err1 := strconv.ParseInt(sumS, 10, 64)
		mn, err2 := strconv.ParseInt(kv["min_ns"], 10, 64)
		mx, err3 := strconv.ParseInt(kv["max_ns"], 10, 64)
		buckets, err4 := DecodeBuckets(kv["buckets"])
		if err1 == nil && err2 == nil && err3 == nil && err4 == nil && bucketSum(buckets) == count {
			st.Sum, st.Min, st.Max = sum, time.Duration(mn), time.Duration(mx)
			st.Buckets = buckets
			return st, true
		}
	}
	// Digest-only fallback: exact count, sum from the mean, all mass in
	// the mean's bucket.
	mean, err := time.ParseDuration(kv["mean"])
	if err != nil {
		return HistogramState{}, false
	}
	st.Sum = int64(mean) * count
	st.Min, st.Max = mean, mean
	if mn, err := time.ParseDuration(kv["min"]); err == nil {
		st.Min = mn
	}
	if mx, err := time.ParseDuration(kv["max"]); err == nil {
		st.Max = mx
	}
	st.Buckets[bucketIndex(int64(mean))] = count
	return st, true
}

// DecodeBuckets parses the "i:n,i:n" bucket encoding emitted by
// WriteText. An empty string decodes to all-zero buckets; a negative
// count is an error.
func DecodeBuckets(s string) ([histBuckets]int64, error) {
	var buckets [histBuckets]int64
	if s == "" {
		return buckets, nil
	}
	for _, pair := range strings.Split(s, ",") {
		i := strings.IndexByte(pair, ':')
		if i <= 0 {
			return buckets, fmt.Errorf("telemetry: bad bucket pair %q", pair)
		}
		idx, err := strconv.Atoi(pair[:i])
		if err != nil || idx < 0 || idx >= histBuckets {
			return buckets, fmt.Errorf("telemetry: bad bucket index %q", pair)
		}
		n, err := strconv.ParseInt(pair[i+1:], 10, 64)
		if err != nil || n < 0 {
			return buckets, fmt.Errorf("telemetry: bad bucket count %q", pair)
		}
		buckets[idx] = n
	}
	return buckets, nil
}

// bucketSum totals non-negative bucket counts, or returns -1 when the
// total overflows, so corrupt counts cannot wrap round to a match.
func bucketSum(buckets [histBuckets]int64) int64 {
	var sum int64
	for _, n := range buckets {
		if n > math.MaxInt64-sum {
			return -1
		}
		sum += n
	}
	return sum
}

// bucketIndex is the bucket an ns duration falls into (see Observe).
func bucketIndex(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	return bits.Len64(uint64(ns))
}
