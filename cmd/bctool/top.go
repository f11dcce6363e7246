// `bctool top`: a live terminal dashboard over a running experiment
// service, fed by the /v1/watch firehose (per-job activity), /v1/healthz
// (queue/uptime gauges) and /v1/metrics (cache and watch series). Pure
// observation — it only issues GETs.

package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"bordercontrol/internal/serve"
)

// topCmd renders the dashboard until interrupted. With -once it prints a
// single frame and exits; with -raw it dumps the metrics page, and
// -require additionally asserts that named series exist and the page
// parses — the smoke test's "metrics exist and parse" check.
func topCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8373", "service base URL")
	wait := fs.Duration("wait", 10*time.Second, "how long to wait for the service to answer /v1/healthz")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	once := fs.Bool("once", false, "print one frame and exit")
	raw := fs.Bool("raw", false, "dump the raw /v1/metrics page and exit")
	require := fs.String("require", "", "comma-separated metric families that must exist on /v1/metrics (implies -raw; exits non-zero when missing)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("top: unexpected argument %q", fs.Arg(0))
	}
	c := &serve.Client{Base: *addr}
	if err := c.WaitReady(ctx, *wait); err != nil {
		return err
	}

	if *raw || *require != "" {
		text, err := c.MetricsText(ctx)
		if err != nil {
			return err
		}
		fmt.Print(text)
		if *require == "" {
			return nil
		}
		m, err := serve.ParseMetrics(text)
		if err != nil {
			return fmt.Errorf("top: /v1/metrics does not parse: %w", err)
		}
		var missing []string
		for _, fam := range splitList(*require) {
			if !m.Has(fam) {
				missing = append(missing, fam)
			}
		}
		if len(missing) > 0 {
			return fmt.Errorf("top: /v1/metrics lacks required series: %s", strings.Join(missing, ", "))
		}
		fmt.Fprintf(os.Stderr, "top: %d series parsed, all required families present\n", len(m))
		return nil
	}

	// Live mode: a background firehose tail keeps per-job last-activity
	// lines fresh between frames; the frame loop polls health + jobs +
	// metrics at -interval.
	var mu sync.Mutex
	lastMsg := map[string]string{}
	var cursor uint64
	var drops uint64
	watchCtx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	go func() {
		for watchCtx.Err() == nil {
			_ = c.Watch(watchCtx, cursor, func(we serve.WatchEvent) {
				mu.Lock()
				cursor = we.Cursor
				if we.Type == "drop" {
					drops++
				} else {
					lastMsg[we.Job] = we.Msg
				}
				mu.Unlock()
			})
			select {
			case <-watchCtx.Done():
			case <-time.After(500 * time.Millisecond):
			}
		}
	}()

	frame := func(clear bool) error {
		h, err := c.Health(ctx)
		if err != nil {
			return err
		}
		jobs, err := c.Jobs(ctx)
		if err != nil {
			return err
		}
		text, err := c.MetricsText(ctx)
		if err != nil {
			return err
		}
		m, err := serve.ParseMetrics(text)
		if err != nil {
			return err
		}
		mu.Lock()
		msgs := make(map[string]string, len(lastMsg))
		for k, v := range lastMsg {
			msgs[k] = v
		}
		nDrops := drops
		mu.Unlock()

		var b strings.Builder
		if clear {
			b.WriteString("\x1b[H\x1b[2J")
		}
		fmt.Fprintf(&b, "bctool top — %s  (version %s, up %s)\n",
			*addr, h.Version, (time.Duration(h.UptimeSeconds * float64(time.Second))).Round(time.Second))
		fmt.Fprintf(&b, "queue %d/%d   cache %d entries (hit ratio %.2f)   watch %g subs",
			h.QueueDepth, h.QueueCapacity, h.CacheEntries,
			m["bc_daemon_cache_hit_ratio"],
			m["bc_daemon_watch_subscribers"])
		if nDrops > 0 {
			fmt.Fprintf(&b, " (%d drop markers seen)", nDrops)
		}
		b.WriteString("\n")
		fmt.Fprintf(&b, "jobs  ")
		for _, st := range serve.States {
			fmt.Fprintf(&b, "%s=%d  ", st, h.Jobs[st])
		}
		b.WriteString("\n\n")
		fmt.Fprintf(&b, "%-8s %-10s %-10s %7s  %s\n", "JOB", "TYPE", "STATE", "EVENTS", "LAST ACTIVITY")
		for _, j := range jobs {
			msg := msgs[j.ID]
			if len(msg) > 60 {
				msg = msg[:57] + "..."
			}
			marker := ""
			if j.Cached {
				marker = " (cached)"
			}
			fmt.Fprintf(&b, "%-8s %-10s %-10s %7d  %s%s\n", j.ID, j.Type, j.State, j.Events, msg, marker)
		}
		if len(jobs) == 0 {
			b.WriteString("(no jobs submitted yet)\n")
		}
		fmt.Print(b.String())
		return nil
	}

	if *once {
		return frame(false)
	}
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		if err := frame(true); err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			fmt.Println()
			return ctx.Err()
		case <-tick.C:
		}
	}
}
