package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/server"
)

// setting is one flag's row: its environment variable, its built-in
// default, two other spellings, and where parse puts it, all printed
// with fmt.Sprint.
type setting struct {
	flag, env string
	def, a, b string
	get       func(o options) any
	typed     bool // not a string: some values fail to parse
}

var settings = []setting{
	{"addr", "REPRO_ADDR", ":8080", ":9090", "127.0.0.1:7070", func(o options) any { return o.addr }, false},
	{"workers", "REPRO_WORKERS", "0", "3", "5", func(o options) any { return o.Workers }, true},
	{"sweep-workers", "REPRO_SWEEP_WORKERS", "0", "1", "2", func(o options) any { return o.SweepWorkers }, true},
	{"cache", "REPRO_CACHE", "0", "64", "128", func(o options) any { return o.CacheEntries }, true},
	{"max-ranks", "REPRO_MAX_RANKS", "0", "4096", "8192", func(o options) any { return o.MaxRanks }, true},
	{"max-goroutine-ranks", "REPRO_MAX_GOROUTINE_RANKS", "0", "256", "512", func(o options) any { return o.MaxGoroutineRanks }, true},
	{"max-work", "REPRO_MAX_WORK", "0", "1099511627776", "7", func(o options) any { return o.MaxWork }, true},
	{"pool-ranks", "REPRO_POOL_RANKS", "0", "-1", "1024", func(o options) any { return o.WorldPoolRanks }, true},
	{"pool-idle", "REPRO_POOL_IDLE", "0s", "1m30s", "2m30s", func(o options) any { return o.WorldPoolIdle }, true},
	{"group-parallel", "REPRO_GROUP_PARALLEL", "0", "1", "8", func(o options) any { return o.GroupParallelism }, true},
	{"tune-store", "REPRO_TUNE_STORE", "", "a.tune", "b.tune", func(o options) any { return o.TuneStorePath }, false},
	{"tenant-qps", "REPRO_TENANT_QPS", "0", "2.5", "7.5", func(o options) any { return o.TenantQPS }, true},
	{"tenant-burst", "REPRO_TENANT_BURST", "0", "4", "9", func(o options) any { return o.TenantBurst }, true},
	{"timeout", "REPRO_TIMEOUT", "1m0s", "5s", "2m30s", func(o options) any { return o.Timeout }, true},
	{"drain", "REPRO_DRAIN", "10s", "1s", "30s", func(o options) any { return o.drain }, true},
	{"pprof", "REPRO_PPROF", "", "127.0.0.1:6060", "127.0.0.1:6061", func(o options) any { return o.pprof }, false},
	{"log-level", "REPRO_LOG_LEVEL", "INFO", "WARN", "ERROR", func(o options) any { return minLevel(o.Logger) }, true},
}

// minLevel is the least severe level the logger writes.
func minLevel(l *slog.Logger) slog.Level {
	for _, lv := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn} {
		if l.Enabled(context.Background(), lv) {
			return lv
		}
	}
	return slog.LevelError
}

func env(kv map[string]string) func(string) (string, bool) {
	return func(k string) (string, bool) { v, ok := kv[k]; return v, ok }
}

// TestSettingsCoverEveryFlag: the table above names every flag serverd
// defines, so the tests below leave none out.
func TestSettingsCoverEveryFlag(t *testing.T) {
	var help bytes.Buffer
	if _, err := parse([]string{"-h"}, env(nil), &help); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v", err)
	}
	var defined, listed []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(help.String(), -1) {
		defined = append(defined, m[1])
	}
	for _, s := range settings {
		listed = append(listed, s.flag)
	}
	slices.Sort(defined)
	slices.Sort(listed)
	if !slices.Equal(defined, listed) {
		t.Errorf("flags defined %v, table covers %v", defined, listed)
	}
}

// TestFlagBeatsEnvBeatsDefault: every flag reaches its field; its
// REPRO_ variable replaces the built-in default, and the flag on the
// command line replaces both.
func TestFlagBeatsEnvBeatsDefault(t *testing.T) {
	for _, s := range settings {
		for _, c := range []struct {
			name string
			env  map[string]string
			args []string
			want string
		}{
			{"default", nil, nil, s.def},
			{"env", map[string]string{s.env: s.a}, nil, s.a},
			{"flag", nil, []string{"-" + s.flag, s.b}, s.b},
			{"flag over env", map[string]string{s.env: s.a}, []string{"-" + s.flag + "=" + s.b}, s.b},
		} {
			o, err := parse(c.args, env(c.env), io.Discard)
			if err != nil {
				t.Errorf("%s, %s: %v", s.flag, c.name, err)
				continue
			}
			if got := fmt.Sprint(s.get(o)); got != c.want {
				t.Errorf("%s, %s: got %q, want %q", s.flag, c.name, got, c.want)
			}
		}
	}
}

// TestMalformedEnvIsAnError: a variable its flag cannot parse is an
// error naming the variable, never a silent fallback to the default.
func TestMalformedEnvIsAnError(t *testing.T) {
	for _, s := range settings {
		if !s.typed {
			continue
		}
		_, err := parse(nil, env(map[string]string{s.env: "twelve"}), io.Discard)
		if err == nil || !strings.Contains(err.Error(), s.env) {
			t.Errorf("%s=twelve: err = %v, want one naming %s", s.env, err, s.env)
		}
	}
}

// TestMainExitsTwoOnBadEnv runs main in a child process: a malformed
// variable stops the daemon before it listens, with exit status 2.
func TestMainExitsTwoOnBadEnv(t *testing.T) {
	if os.Getenv("SERVERD_TEST_MAIN") == "1" {
		os.Args = []string{"serverd"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestMainExitsTwoOnBadEnv$")
	cmd.Env = append(os.Environ(), "SERVERD_TEST_MAIN=1", "REPRO_WORKERS=0x1g")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit: %v, want status 2; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), `serverd: REPRO_WORKERS="0x1g"`) {
		t.Errorf("stderr does not name the variable:\n%s", stderr.String())
	}
}

// TestPprofOnlyOnItsOwnMux: the service handler has no /debug/pprof/
// route; the handler -pprof serves does.
func TestPprofOnlyOnItsOwnMux(t *testing.T) {
	svc := server.New(server.Config{})
	defer svc.Close()
	for _, c := range []struct {
		name string
		h    http.Handler
		want int
	}{
		{"service", svc, http.StatusNotFound},
		{"pprof", pprofMux(), http.StatusOK},
	} {
		rec := httptest.NewRecorder()
		c.h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
		if rec.Code != c.want {
			t.Errorf("%s handler: GET /debug/pprof/ = %d, want %d", c.name, rec.Code, c.want)
		}
	}
}
