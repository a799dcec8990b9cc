// Command serverd hosts the simulator as a long-running what-if
// service: the internal/server HTTP/JSON API over the declarative
// internal/spec Query, with request coalescing, an LRU result cache,
// a warm world pool (resident simulated worlds reused across queries
// that share a shape), bounded worker pools and Prometheus-style
// metrics.
//
// Usage:
//
//	go run ./cmd/serverd -addr :8080
//	curl -s localhost:8080/v1/run -d '{"machine":"laptop",
//	  "topology":{"nodes":4,"ppn":4},"collective":"allgather",
//	  "sizes":[1024]}'
//
// Every flag -some-name also reads an environment-variable default,
// REPRO_SOME_NAME (see API.md), so the container image configures the
// daemon without wrapping the command line. See API.md for every
// endpoint, the full Query schema and more examples. Shutdown is
// graceful: on SIGINT/SIGTERM the listener closes, in-flight requests
// get -drain to finish (then their worlds are aborted) and the warm
// world pool is retired, which leaves no simulator goroutine; the
// "stopped" log line reports the goroutine count.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/spec"
)

// options is serverd's parsed configuration: the service's Config plus
// what only the daemon itself reads.
type options struct {
	server.Config
	addr, pprof string
	drain       time.Duration
}

// parse reads serverd's flags over the environment. Every flag -name
// takes its default from REPRO_NAME (upper case, '-' as '_') when
// lookupEnv has it: the flag beats the variable, the variable beats the
// built-in default, and a malformed variable is an error naming it, not
// a silent fallback. The logger writes to logOut.
func parse(args []string, lookupEnv func(string) (string, bool), logOut io.Writer) (options, error) {
	var o options
	c := &o.Config
	fs := flag.NewFlagSet("serverd", flag.ContinueOnError)
	fs.SetOutput(logOut)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&c.Workers, "workers", 0, "max concurrent point queries (0 = GOMAXPROCS)")
	fs.IntVar(&c.SweepWorkers, "sweep-workers", 0, "max concurrent sweep queries (0 = workers/4)")
	fs.IntVar(&c.CacheEntries, "cache", 0, "result cache capacity (0 = default 4096)")
	fs.IntVar(&c.MaxRanks, "max-ranks", 0, "admission cap on a query's world size (0 = default 2^20)")
	fs.IntVar(&c.MaxGoroutineRanks, "max-goroutine-ranks", 0, "tighter world-size cap for goroutine-engine queries (0 = default 2^16)")
	fs.Int64Var(&c.MaxWork, "max-work", 0, "admission cap on ranks x sizes x iters per query (0 = default 2^28)")
	fs.IntVar(&c.WorldPoolRanks, "pool-ranks", 0, "warm world pool rank budget (0 = default 2^20, negative disables pooling)")
	fs.DurationVar(&c.WorldPoolIdle, "pool-idle", 0, "close pooled worlds idle this long (0 = default 60s)")
	fs.IntVar(&c.GroupParallelism, "group-parallel", 0, "max concurrent ladder groups per query (0 = default 4)")
	fs.StringVar(&c.TuneStorePath, "tune-store", "", "path of the persisted measured-policy tuning store (empty = in-memory only)")
	fs.Float64Var(&c.TenantQPS, "tenant-qps", 0, "per-tenant rate limit on query endpoints, requests/s by X-Tenant header (0 = unlimited)")
	fs.IntVar(&c.TenantBurst, "tenant-burst", 0, "per-tenant burst capacity (0 = 2x tenant-qps)")
	fs.DurationVar(&c.Timeout, "timeout", 60*time.Second, "per-request execution budget")
	fs.DurationVar(&o.drain, "drain", 10*time.Second, "graceful-shutdown budget for in-flight requests")
	fs.StringVar(&o.pprof, "pprof", "", "serve net/http/pprof on this extra loopback address (e.g. 127.0.0.1:6060; empty = off)")
	var level slog.Level
	fs.TextVar(&level, "log-level", slog.LevelInfo, "log level: debug, info, warn or error")

	var envErr error
	fs.VisitAll(func(f *flag.Flag) {
		key := "REPRO_" + strings.ToUpper(strings.ReplaceAll(f.Name, "-", "_"))
		if v, ok := lookupEnv(key); ok && envErr == nil {
			if err := f.Value.Set(v); err != nil {
				envErr = fmt.Errorf("%s=%q: %w", key, v, err)
			}
		}
	})
	if envErr != nil {
		return o, envErr
	}
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	c.Logger = slog.New(slog.NewTextHandler(logOut, &slog.HandlerOptions{Level: level}))
	return o, nil
}

// pprofMux serves net/http/pprof. It is deliberately a handler of its
// own, never mounted on the service's: -pprof puts it on a separate
// listener, so bound to loopback the debug surface stays host-local
// even when -addr is public.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	spec.InstallEnvTuning()
	o, err := parse(os.Args[1:], os.LookupEnv, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "serverd:", err)
		os.Exit(2)
	}
	logger := o.Logger
	slog.SetDefault(logger)

	svc := server.New(o.Config)
	httpSrv := &http.Server{
		Addr:              o.addr,
		Handler:           svc,
		ReadHeaderTimeout: 10 * time.Second,
	}

	var pprofSrv *http.Server
	if o.pprof != "" {
		pprofSrv = &http.Server{Addr: o.pprof, Handler: pprofMux(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("pprof listening", "addr", o.pprof)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("serverd listening", "addr", o.addr, "timeout", o.Timeout)

	select {
	case err := <-errCh:
		logger.Error("listener failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("shutting down", "drain", o.drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown", "err", err)
	}
	if pprofSrv != nil {
		pprofSrv.Close()
	}
	// Abort anything the drain window did not flush and retire the
	// warm world pool; the goroutine count left over is logged so a
	// leak shows (CI's serverd-smoke checks it).
	svc.Close()
	logger.Info("stopped", "goroutines", runtime.NumGoroutine())
}
