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
// Every flag also reads an environment-variable default (REPRO_ADDR,
// REPRO_WORKERS, ... — see API.md), so the container image configures
// the daemon without wrapping the command line. See API.md for every
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
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/spec"
)

// envString, envInt, envInt64 and envDuration resolve a flag's default
// from the environment (the container-config path): the variable wins
// over the built-in default, the flag wins over both. A malformed
// variable is a startup error, not a silent fallback.
func envString(key, def string) string {
	if v, ok := os.LookupEnv(key); ok {
		return v
	}
	return def
}

func envInt(key string, def int) int {
	v, ok := os.LookupEnv(key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		fatal(fmt.Errorf("%s=%q: %w", key, v, err))
	}
	return n
}

func envInt64(key string, def int64) int64 {
	v, ok := os.LookupEnv(key)
	if !ok {
		return def
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		fatal(fmt.Errorf("%s=%q: %w", key, v, err))
	}
	return n
}

func envFloat(key string, def float64) float64 {
	v, ok := os.LookupEnv(key)
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		fatal(fmt.Errorf("%s=%q: %w", key, v, err))
	}
	return f
}

func envDuration(key string, def time.Duration) time.Duration {
	v, ok := os.LookupEnv(key)
	if !ok {
		return def
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		fatal(fmt.Errorf("%s=%q: %w", key, v, err))
	}
	return d
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "serverd:", err)
	os.Exit(2)
}

func main() {
	spec.InstallEnvTuning()
	addr := flag.String("addr", envString("REPRO_ADDR", ":8080"), "listen address")
	workers := flag.Int("workers", envInt("REPRO_WORKERS", 0), "max concurrent point queries (0 = GOMAXPROCS)")
	sweepWorkers := flag.Int("sweep-workers", envInt("REPRO_SWEEP_WORKERS", 0), "max concurrent sweep queries (0 = workers/4)")
	cacheEntries := flag.Int("cache", envInt("REPRO_CACHE", 0), "result cache capacity (0 = default 4096)")
	maxRanks := flag.Int("max-ranks", envInt("REPRO_MAX_RANKS", 0), "admission cap on a query's world size (0 = default 2^20)")
	maxGoroutineRanks := flag.Int("max-goroutine-ranks", envInt("REPRO_MAX_GOROUTINE_RANKS", 0), "tighter world-size cap for goroutine-engine queries (0 = default 2^16)")
	maxWork := flag.Int64("max-work", envInt64("REPRO_MAX_WORK", 0), "admission cap on ranks x sizes x iters per query (0 = default 2^28)")
	poolRanks := flag.Int("pool-ranks", envInt("REPRO_POOL_RANKS", 0), "warm world pool rank budget (0 = default 2^20, negative disables pooling)")
	poolIdle := flag.Duration("pool-idle", envDuration("REPRO_POOL_IDLE", 0), "close pooled worlds idle this long (0 = default 60s)")
	groupParallel := flag.Int("group-parallel", envInt("REPRO_GROUP_PARALLEL", 0), "max concurrent ladder groups per query (0 = default 4)")
	tuneStore := flag.String("tune-store", envString("REPRO_TUNE_STORE", ""), "path of the persisted measured-policy tuning store (empty = in-memory only)")
	tenantQPS := flag.Float64("tenant-qps", envFloat("REPRO_TENANT_QPS", 0), "per-tenant rate limit on query endpoints, requests/s by X-Tenant header (0 = unlimited)")
	tenantBurst := flag.Int("tenant-burst", envInt("REPRO_TENANT_BURST", 0), "per-tenant burst capacity (0 = 2x tenant-qps)")
	timeout := flag.Duration("timeout", envDuration("REPRO_TIMEOUT", 60*time.Second), "per-request execution budget")
	drain := flag.Duration("drain", envDuration("REPRO_DRAIN", 10*time.Second), "graceful-shutdown budget for in-flight requests")
	pprofAddr := flag.String("pprof", envString("REPRO_PPROF", ""), "serve net/http/pprof on this extra loopback address (e.g. 127.0.0.1:6060; empty = off)")
	logLevel := flag.String("log-level", envString("REPRO_LOG_LEVEL", "info"), "log level: debug, info, warn or error")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fatal(err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	svc := server.New(server.Config{
		Workers:           *workers,
		SweepWorkers:      *sweepWorkers,
		CacheEntries:      *cacheEntries,
		MaxRanks:          *maxRanks,
		MaxGoroutineRanks: *maxGoroutineRanks,
		MaxWork:           *maxWork,
		WorldPoolRanks:    *poolRanks,
		WorldPoolIdle:     *poolIdle,
		GroupParallelism:  *groupParallel,
		TuneStorePath:     *tuneStore,
		TenantQPS:         *tenantQPS,
		TenantBurst:       *tenantBurst,
		Timeout:           *timeout,
		Logger:            logger,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Profiling is opt-in and deliberately on its own listener, so the
	// service port never exposes pprof: bind -pprof to loopback and
	// the debug surface stays host-local even when -addr is public.
	var pprofSrv *http.Server
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv = &http.Server{Addr: *pprofAddr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("serverd listening", "addr", *addr, "timeout", *timeout)

	select {
	case err := <-errCh:
		logger.Error("listener failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("shutting down", "drain", *drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
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
