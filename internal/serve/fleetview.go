package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"spaceproc/internal/telemetry"
)

// The fleet view. The prober keeps each member's last /metrics page next
// to its breaker, so the router serves the fleet's telemetry from what
// it already holds: /fleet/metrics (per-member pages plus a merged page
// whose histograms are bucket-merged, so fleet p99 comes from combined
// buckets rather than averaged per-member quantiles) and /fleet/healthz
// (a JSON roll-up). A member is up exactly when its breaker is Healthy,
// the same verdict routing acts on, and serving either view sends no
// request to any member.

// members reads every member's status once, in address order.
func (f *Fleet) members() []NodeStatus {
	status := f.Status()
	nodes := make([]NodeStatus, 0, len(status))
	for _, st := range status {
		nodes = append(nodes, st)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Addr < nodes[j].Addr })
	return nodes
}

// MetricsHandler serves /fleet/metrics: a "# node <addr> up|down" line
// per member, followed by its page when it is up and the prober holds
// one, then a "# fleet merged" section over the pages of the members
// that are up.
func (f *Fleet) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var merged telemetry.Snapshot
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, n := range f.members() {
			switch {
			case n.State != NodeHealthy:
				fmt.Fprintf(w, "# node %s down: %s\n", n.Addr, n.Err)
			case n.Page == nil:
				fmt.Fprintf(w, "# node %s up\n", n.Addr)
			default:
				fmt.Fprintf(w, "# node %s up scraped=%s\n", n.Addr, n.Scraped.UTC().Format(time.RFC3339))
				n.Page.WriteText(w)
				merged.Merge(*n.Page)
			}
		}
		fmt.Fprintf(w, "# fleet merged\n")
		merged.WriteText(w)
	})
}

// HealthHandler serves /fleet/healthz: JSON with each member's up/down
// and an overall status — "ok" when every member is up, "degraded" when
// some are, and HTTP 503 with status "down" when none is.
func (f *Fleet) HealthHandler() http.Handler {
	type nodeHealth struct {
		Name    string `json:"name"`
		Up      bool   `json:"up"`
		Err     string `json:"error,omitempty"`
		Scraped string `json:"scraped,omitempty"`
	}
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		nodes := f.members()
		up := 0
		out := make([]nodeHealth, 0, len(nodes))
		for _, n := range nodes {
			h := nodeHealth{Name: n.Addr, Up: n.State == NodeHealthy}
			if h.Up {
				up++
			} else {
				h.Err = n.Err
			}
			if n.Page != nil {
				h.Scraped = n.Scraped.UTC().Format(time.RFC3339)
			}
			out = append(out, h)
		}
		status, code := "ok", http.StatusOK
		switch {
		case up == 0:
			status, code = "down", http.StatusServiceUnavailable
		case up < len(nodes):
			status = "degraded"
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(map[string]any{
			"status": status,
			"up":     up,
			"total":  len(nodes),
			"nodes":  out,
		})
	})
}
