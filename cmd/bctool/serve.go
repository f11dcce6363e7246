// The experiment-service commands: `bctool serve` runs the HTTP daemon and
// `bctool submit` is its client.

package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"bordercontrol/internal/serve"
)

// buildLogger turns a -log-level value into the daemon's slog.Logger on
// stderr, or nil (discard) for "off".
func buildLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	case "off":
		return nil, nil
	default:
		return nil, fmt.Errorf("serve: unknown -log-level %q (debug, info, warn, error, off)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

// serveCmd runs the experiment service until the context is cancelled
// (SIGINT/SIGTERM), then shuts down gracefully: the HTTP listener drains,
// the running job is cancelled cooperatively, queued jobs are marked
// cancelled.
func serveCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8373", "listen address")
	jobs := fs.Int("jobs", 0, "host parallelism within a job (0 = all cores); artifacts are byte-identical at any setting")
	queue := fs.Int("queue", 0, "job queue depth (0 = default 32); beyond it submissions get 503")
	cacheSize := fs.Int("cache-size", 0, "artifact cache entries (0 = default 128, negative disables)")
	watchBuf := fs.Int("watch-buffer", 0, "/v1/watch event ring size (0 = default 1024); slow subscribers past it see drop markers")
	logLevel := fs.String("log-level", "info", "structured log level on stderr: debug, info, warn, error, off")
	quiet := fs.Bool("quiet", false, "shorthand for -log-level off")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *quiet {
		*logLevel = "off"
	}
	logger, err := buildLogger(*logLevel)
	if err != nil {
		return err
	}
	srv := serve.New(serve.Options{
		QueueDepth:  *queue,
		Jobs:        *jobs,
		CacheSize:   *cacheSize,
		WatchBuffer: *watchBuf,
		Logger:      logger,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv.Start(ctx)
	hs := &http.Server{Handler: srv.Handler()}
	if logger != nil {
		logger.Info("listening", "url", fmt.Sprintf("http://%s", ln.Addr()))
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		srv.Stop()
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(shutCtx)
		srv.Stop()
		return ctx.Err()
	}
}

// submitCmd sends one job to a running service, streams its progress to
// stderr and prints the artifact to stdout — so `bctool submit ... sweep
// -csv` pipes exactly like `bctool sweep -csv` does locally.
func submitCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8373", "service base URL")
	wait := fs.Duration("wait", 10*time.Second, "how long to wait for the service to answer /v1/healthz")
	quiet := fs.Bool("quiet", false, "suppress progress lines on stderr (the cache-hit note still prints)")
	ping := fs.Bool("ping", false, "print the service's health document (uptime, queue, jobs by state, version) and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ping {
		if fs.NArg() > 0 {
			return fmt.Errorf("submit -ping: unexpected argument %q", fs.Arg(0))
		}
		c := &serve.Client{Base: *addr}
		if err := c.WaitReady(ctx, *wait); err != nil {
			return err
		}
		h, err := c.Health(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("service   %s\n", *addr)
		fmt.Printf("version   %s\n", h.Version)
		fmt.Printf("uptime    %s\n", (time.Duration(h.UptimeSeconds * float64(time.Second))).Round(time.Millisecond))
		fmt.Printf("queue     %d/%d\n", h.QueueDepth, h.QueueCapacity)
		fmt.Printf("cache     %d entries\n", h.CacheEntries)
		for _, st := range serve.States {
			fmt.Printf("jobs.%-10s %d\n", st, h.Jobs[st])
		}
		return nil
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("submit: missing job type (run, sweep, adversary, fleet)")
	}
	req, err := buildRequest(fs.Arg(0), fs.Args()[1:])
	if err != nil {
		return err
	}

	c := &serve.Client{Base: *addr}
	if err := c.WaitReady(ctx, *wait); err != nil {
		return err
	}
	st, err := c.Submit(ctx, req)
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "submit: job %s accepted\n", st.ID)
	}
	final, err := c.Stream(ctx, st.ID, func(e serve.Event) {
		// The cache-hit note prints even under -quiet: whether a result was
		// recomputed is something scripts (and the smoke test) key on.
		if !*quiet || e.Type == "cache" {
			fmt.Fprintf(os.Stderr, "submit: %s\n", e.Msg)
		}
	})
	if err != nil {
		if ctx.Err() != nil {
			return context.Canceled
		}
		return err
	}
	if final.Cached && !*quiet {
		fmt.Fprintf(os.Stderr, "submit: job %s served from cache\n", final.ID)
	}
	art, artErr := c.Artifact(ctx, final.ID)
	if artErr == nil {
		fmt.Print(art)
	}
	if final.State != serve.StateDone {
		return fmt.Errorf("submit: job %s %s: %s", final.ID, final.State, final.Error)
	}
	return artErr
}

// buildRequest parses the per-type flags into a serve.Request. The flags
// mirror the local commands (`bctool run`, `bctool sweep`, ...), so a
// submission reads the same as the run it replaces.
func buildRequest(typ string, args []string) (serve.Request, error) {
	fs := flag.NewFlagSet("submit "+typ, flag.ContinueOnError)
	switch typ {
	case "run":
		workload := fs.String("workload", "pathfinder", "workload name")
		mode := fs.String("mode", "bc-bcc", "safety mode")
		class := fs.String("class", "high", "GPU class")
		border := fs.String("border", "", "border design for the BC modes")
		scale := fs.Int("scale", 0, "workload scale override")
		shards := fs.Int("shards", 0, "sharded-engine workers (0 = direct engine)")
		downgrades := fs.Float64("downgrades", 0, "permission downgrades per simulated second")
		if err := fs.Parse(args); err != nil {
			return serve.Request{}, err
		}
		return serve.Request{Type: "run", Run: &serve.RunSpec{
			Workload: *workload, Mode: *mode, Class: *class, Border: *border,
			Scale: *scale, Shards: *shards, DowngradesPerSec: *downgrades,
		}}, checkNoArgs(fs)
	case "sweep":
		traffic := fs.String("traffic", "all", "comma-separated synthetic shapes, or 'all'")
		seeds := fs.Int("seeds", 1, "seeds per shape")
		modes := fs.String("modes", "all", "comma-separated modes, or 'all'")
		borders := fs.String("borders", "all", "comma-separated border designs, or 'all'")
		classes := fs.String("classes", "both", "GPU classes: high, moderate, or both")
		shards := fs.Int("shards", 0, "sharded-engine workers per cell")
		csv := fs.Bool("csv", false, "emit CSV instead of a text table")
		if err := fs.Parse(args); err != nil {
			return serve.Request{}, err
		}
		spec := &serve.SweepSpec{
			Seeds: *seeds, Classes: *classes, Shards: *shards,
			CSV: *csv,
		}
		if *classes == "both" {
			spec.Classes = ""
		}
		if *traffic != "all" {
			spec.Traffic = splitList(*traffic)
		}
		if *modes != "all" {
			spec.Modes = splitList(*modes)
		}
		if *borders != "all" {
			spec.Borders = splitList(*borders)
		}
		return serve.Request{Type: "sweep", Sweep: spec}, checkNoArgs(fs)
	case "adversary":
		seed := fs.Int64("seed", 0, "campaign seed (0 = default)")
		campaigns := fs.Int("campaigns", 0, "campaigns per attack (0 = default)")
		attacks := fs.String("attacks", "", "comma-separated attack names (empty = all)")
		border := fs.String("border", "", "border design")
		if err := fs.Parse(args); err != nil {
			return serve.Request{}, err
		}
		return serve.Request{Type: "adversary", Adversary: &serve.AdversarySpec{
			Seed: *seed, Campaigns: *campaigns, Attacks: splitList(*attacks), Border: *border,
		}}, checkNoArgs(fs)
	case "fleet":
		tenants := fs.Int("tenants", 0, "tenant count (0 = default)")
		mode := fs.String("mode", "", "safety mode (empty = fleet default)")
		class := fs.String("class", "", "GPU class (empty = fleet default)")
		workload := fs.String("workload", "", "workload name (empty = pathfinder)")
		churn := fs.Int64("churn-ps", 0, "downgrade interval in simulated ps (-1 = off)")
		spread := fs.Int64("spread-ps", 0, "launch spread in simulated ps (-1 = off)")
		lookahead := fs.Int64("lookahead-ps", 0, "conservative lookahead in simulated ps")
		seed := fs.Int64("seed", 0, "fleet seed (0 = default)")
		shards := fs.Int("shards", 0, "engine shards (0 = default)")
		scale := fs.Int("scale", 0, "workload scale override")
		if err := fs.Parse(args); err != nil {
			return serve.Request{}, err
		}
		return serve.Request{Type: "fleet", Fleet: &serve.FleetSpec{
			Tenants: *tenants, Mode: *mode, Class: *class, Workload: *workload,
			ChurnPs: *churn, SpreadPs: *spread, LookaheadPs: *lookahead,
			Seed: *seed, Shards: *shards, Scale: *scale,
		}}, checkNoArgs(fs)
	default:
		return serve.Request{}, fmt.Errorf("submit: unknown job type %q (run, sweep, adversary, fleet)", typ)
	}
}

func checkNoArgs(fs *flag.FlagSet) error {
	if fs.NArg() > 0 {
		return fmt.Errorf("%s: unexpected argument %q", fs.Name(), fs.Arg(0))
	}
	return nil
}
