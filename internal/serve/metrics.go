// The /v1/metrics page: daemon-level series rendered by hand plus the
// merged job-stats snapshots bridged through stats.WritePrometheus. The
// whole page is pure observation — every series is read from counters the
// daemon already maintains, and scraping mutates nothing that could reach
// an artifact.

package serve

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"bordercontrol/internal/stats"
)

// writeMetrics renders the full exposition page. Daemon series carry the
// bc_daemon_ prefix; job-stats series (the stats.Merge of every completed
// job's snapshot) carry bc_job_.
func (s *Server) writeMetrics(w io.Writer) {
	h := s.health()
	entries, hits, misses := s.cache.counters()
	subs, published, dropped := s.fh.counters()
	s.mu.Lock()
	jobSnap := s.jobStats
	jobSnaps := s.jobSnaps
	s.mu.Unlock()

	fmt.Fprintf(w, "# TYPE bc_daemon_info gauge\nbc_daemon_info{version=%s} 1\n", promLabel(s.version))
	writeProm(w, "bc_daemon_uptime_seconds", "gauge", h.UptimeSeconds)
	writeProm(w, "bc_daemon_queue_depth", "gauge", float64(h.QueueDepth))
	writeProm(w, "bc_daemon_queue_capacity", "gauge", float64(h.QueueCapacity))
	fmt.Fprintf(w, "# TYPE bc_daemon_jobs gauge\n")
	for _, st := range States {
		fmt.Fprintf(w, "bc_daemon_jobs{state=%q} %d\n", st, h.Jobs[st])
	}
	writeProm(w, "bc_daemon_cache_entries", "gauge", float64(entries))
	writeProm(w, "bc_daemon_cache_hits_total", "counter", float64(hits))
	writeProm(w, "bc_daemon_cache_misses_total", "counter", float64(misses))
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	writeProm(w, "bc_daemon_cache_hit_ratio", "gauge", ratio)
	writeProm(w, "bc_daemon_watch_subscribers", "gauge", float64(subs))
	writeProm(w, "bc_daemon_watch_events_total", "counter", float64(published))
	writeProm(w, "bc_daemon_watch_dropped_total", "counter", float64(dropped))
	writeProm(w, "bc_daemon_job_snapshots_total", "counter", float64(jobSnaps))
	_ = stats.WritePrometheus(w, "bc_job_", jobSnap)
}

func writeProm(w io.Writer, name, typ string, v float64) {
	fmt.Fprintf(w, "# TYPE %s %s\n%s %s\n", name, typ, name, strconv.FormatFloat(v, 'g', -1, 64))
}

// promLabel quotes a label value with the exposition escapes (backslash,
// double quote, newline).
func promLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return `"` + r.Replace(v) + `"`
}

// Metrics is a parsed exposition page: sample lines keyed exactly as
// written ("name" or `name{label="v"}`) mapping to their values.
type Metrics map[string]float64

// ParseMetrics parses Prometheus text exposition (the subset /v1/metrics
// emits: comments, blank lines, and `name[{labels}] value` samples). It
// fails on any malformed sample line, so a passing parse doubles as a
// format check in tests and smoke scripts.
func ParseMetrics(text string) (Metrics, error) {
	m := make(Metrics)
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value is the last space-separated field; the key is everything
		// before it (label values in this exposition never contain spaces,
		// and version strings are hex or "dev").
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("serve: metrics line %d: no value in %q", ln+1, line)
		}
		key, raw := strings.TrimSpace(line[:i]), line[i+1:]
		if err := checkSeriesKey(key); err != nil {
			return nil, fmt.Errorf("serve: metrics line %d: %w", ln+1, err)
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("serve: metrics line %d: bad value %q", ln+1, raw)
		}
		if _, dup := m[key]; dup {
			return nil, fmt.Errorf("serve: metrics line %d: duplicate series %q", ln+1, key)
		}
		m[key] = v
	}
	return m, nil
}

// checkSeriesKey validates "name" or "name{...}" with a legal metric name.
func checkSeriesKey(key string) error {
	name := key
	if i := strings.IndexByte(key, '{'); i >= 0 {
		if !strings.HasSuffix(key, "}") {
			return fmt.Errorf("unterminated labels in %q", key)
		}
		name = key[:i]
	}
	if name == "" {
		return fmt.Errorf("empty metric name in %q", key)
	}
	for i, r := range name {
		legal := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9' && i > 0)
		if !legal {
			return fmt.Errorf("illegal metric name %q", name)
		}
	}
	return nil
}

// Has reports whether the page carries the named series family: an exact
// key, any labelled variant, or (for histograms) a derived _bucket/_sum/
// _count series.
func (m Metrics) Has(family string) bool {
	if _, ok := m[family]; ok {
		return true
	}
	for key := range m {
		if strings.HasPrefix(key, family+"{") {
			return true
		}
		for _, suffix := range []string{"_bucket{", "_bucket", "_sum", "_count"} {
			if key == family+suffix || strings.HasPrefix(key, family+suffix) {
				return true
			}
		}
	}
	return false
}
