package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strings"
	"sync"
	"time"
)

// WriteText writes the snapshot in an expvar-style line-oriented text
// format: one `kind name field=value...` line per metric, stable order.
// Histogram lines carry both the human-readable quantile digest and the
// exact machine fields (sum, min_ns, max_ns, and the non-zero bucket
// counts) that make the page mergeable across nodes via ParseText. A
// parsed or merged Snapshot renders the same way, so a merged page is
// itself scrapeable by the next tier up.
func (s Snapshot) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "uptime %s\n", fmtDur(s.Uptime))
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "counter %s %d\n", name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&b, "gauge %s %g\n", name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.HistogramStates) {
		writeHistogramLine(&b, name, s.HistogramStates[name])
	}
	for _, stage := range sortedKeys(s.SpanCounts) {
		fmt.Fprintf(&b, "spans %s %d\n", stage, s.SpanCounts[stage])
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogramLine renders one histogram exposition line. The summary
// fields are for humans; sum/min_ns/max_ns/buckets are exact and let a
// scraper reconstruct a mergeable HistogramState.
func writeHistogramLine(b *strings.Builder, name string, st HistogramState) {
	h := st.Summary()
	fmt.Fprintf(b, "histogram %s count=%d min=%s mean=%s p50=%s p95=%s p99=%s max=%s",
		name, h.Count, fmtDur(h.Min), fmtDur(h.Mean),
		fmtDur(h.P50), fmtDur(h.P95), fmtDur(h.P99), fmtDur(h.Max))
	if st.Count > 0 {
		fmt.Fprintf(b, " sum=%d min_ns=%d max_ns=%d buckets=%s",
			st.Sum, int64(st.Min), int64(st.Max), encodeBuckets(st.Buckets))
	}
	b.WriteByte('\n')
}

// encodeBuckets renders the non-zero buckets as index:count pairs
// ("22:3,23:1"); DecodeBuckets inverts it.
func encodeBuckets(buckets [histBuckets]int64) string {
	var b strings.Builder
	for i, n := range buckets {
		if n == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d:%d", i, n)
	}
	return b.String()
}

// Render returns a human-oriented summary table of the snapshot, the form
// the cmd binaries print after a run.
func (s Snapshot) Render() string {
	var b strings.Builder
	b.WriteString("telemetry summary\n")
	if len(s.Counters) > 0 {
		b.WriteString("  counters:\n")
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(&b, "    %-44s %d\n", name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("  gauges:\n")
		for _, name := range sortedKeys(s.Gauges) {
			fmt.Fprintf(&b, "    %-44s %g\n", name, s.Gauges[name])
		}
	}
	if len(s.HistogramStates) > 0 {
		b.WriteString("  latencies:\n")
		for _, name := range sortedKeys(s.HistogramStates) {
			h := s.HistogramStates[name].Summary()
			fmt.Fprintf(&b, "    %-44s n=%-6d p50=%-9s p95=%-9s p99=%-9s max=%s\n",
				name, h.Count, fmtDur(h.P50), fmtDur(h.P95), fmtDur(h.P99), fmtDur(h.Max))
		}
	}
	if len(s.SpanCounts) > 0 {
		b.WriteString("  spans:\n")
		for _, stage := range sortedKeys(s.SpanCounts) {
			fmt.Fprintf(&b, "    %-44s %d\n", stage, s.SpanCounts[stage])
		}
	}
	return b.String()
}

// Version reports the build's version string from the embedded build
// info: the module version when set, the VCS revision (suffixed "-dirty"
// for modified trees) otherwise, "devel" when neither is stamped.
var Version = sync.OnceValue(func() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	if v := info.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	var rev string
	dirty := false
	for _, kv := range info.Settings {
		switch kv.Key {
		case "vcs.revision":
			rev = kv.Value
		case "vcs.modified":
			dirty = kv.Value == "true"
		}
	}
	if rev == "" {
		return "devel"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
})

// Handler returns an http.Handler serving the registry's metrics, a
// liveness probe, the trace buffer, and the net/http/pprof profiling
// surface:
//
//	/metrics       text exposition of a fresh Snapshot
//	/healthz       {"status":"ok","uptime":"...","version":"..."}
//	/debug/trace   Chrome trace-event JSON of the tracer's buffer
//	/debug/pprof/  index, cmdline, profile, symbol, trace, heap, ...
func Handler(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		reg.Snapshot().WriteText(w)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.Tracer().WriteChrome(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{
			"status":  "ok",
			"uptime":  reg.Uptime().String(),
			"version": Version(),
		})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is the observability sidecar: an HTTP listener dedicated to the
// Handler surface, meant to run next to a worker or master process.
type Server struct {
	mu     sync.Mutex
	ln     net.Listener
	srv    *http.Server
	mux    *http.ServeMux
	closed bool
}

// NewServer starts serving the registry on addr (e.g. "127.0.0.1:0") and
// returns once the listener is bound; Addr reports the bound address.
func NewServer(reg *Registry, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	mux := Handler(reg)
	s := &Server{ln: ln, mux: mux, srv: &http.Server{Handler: mux}}
	go s.srv.Serve(ln)
	return s, nil
}

// Handle mounts an additional handler on the sidecar's mux — the hook
// daemons use for /debug/slowest and routers for the /fleet surface.
// Registering a pattern twice panics (http.ServeMux semantics), so mount
// extras right after NewServer.
func (s *Server) Handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown closes the sidecar's listener and waits for in-flight scrapes
// to finish, bounded by ctx. It is what signal handlers should call so
// the /metrics socket is released before the process exits.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.srv.Shutdown(ctx)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Close shuts the sidecar down, waiting briefly for in-flight requests.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}
