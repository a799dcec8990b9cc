package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"

	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/spec"
)

const machine = "hazelhen-cray"

// respWriter is the minimal http.ResponseWriter the daemon workloads
// hand to Server.ServeHTTP on the measuring goroutine. It is reset, not
// reallocated, between requests.
type respWriter struct {
	header http.Header
	code   int
	body   []byte
}

func newRespWriter() *respWriter {
	return &respWriter{header: http.Header{}, code: http.StatusOK, body: make([]byte, 0, 4096)}
}

func (w *respWriter) Header() http.Header  { return w.header }
func (w *respWriter) WriteHeader(code int) { w.code = code }
func (w *respWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

func (w *respWriter) reset() {
	clear(w.header)
	w.code = http.StatusOK
	w.body = w.body[:0]
}

// cache is the X-Cache header of the last response.
func (w *respWriter) cache() string { return w.header.Get("X-Cache") }

// request is a POST /v1/run built once during set-up and replayed by
// rewinding its body, so sending it allocates nothing.
type request struct {
	raw  []byte
	body bytes.Reader
	r    *http.Request
}

func newRequest(raw []byte) (*request, error) {
	q := &request{raw: raw}
	r, err := http.NewRequest(http.MethodPost, "/v1/run", io.NopCloser(&q.body))
	if err != nil {
		return nil, err
	}
	q.r = r
	return q, nil
}

// serve sends the request through the daemon's handler into w.
func (q *request) serve(srv *server.Server, w *respWriter) {
	q.body.Reset(q.raw)
	w.reset()
	srv.ServeHTTP(w, q.r)
}

func newDaemon() *server.Server {
	return server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
}

func closeDaemon(srv *server.Server) {
	srv.Close()
	mpi.DrainIdleWorkers()
}

// encodeResult encodes a result the way the daemon's handler does.
func encodeResult(buf *bytes.Buffer, res *spec.Result) error {
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// replayStages times, next to a handler call, the public functions the
// handler ran on the same bytes, as replayed children of the handler's
// span: strict decode plus canonicalisation, fingerprint, and encoding
// of the result it answered with.
func replayStages(tr *tracer, handler int, raw []byte, res *spec.Result, buf *bytes.Buffer) (*spec.Query, error) {
	s := tr.beginReplay("spec.parse", handler)
	q, err := spec.Parse(raw)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.beginReplay("spec.fingerprint", handler)
	_, err = q.Fingerprint()
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.beginReplay("server.encode", handler)
	err = encodeResult(buf, res)
	tr.end(s)
	return q, err
}

// The serve-warm hot set: eight collectives x four shapes x two
// ladders = 64 queries, every ladder two sizes long so every response
// costs the same to encode. Barrier, the ninth collective a query can
// name, is left out: its ladder canonicalises to one point, which would
// put a second, cheaper population among the ops.
var (
	hotCollectives = []string{"allgather", "allgatherv", "allreduce", "reduce", "bcast", "alltoall", "gather", "scan"}
	hotShapes      = [][2]int{{4, 8}, {8, 4}, {16, 2}, {2, 12}}
	hotLadders     = [][2]int{{64, 4096}, {512, 32768}}
)

// hotQuery is the request body of one hot-set query.
func hotQuery(collective string, shape, ladder [2]int) []byte {
	return fmt.Appendf(nil, `{"machine":%q,"topology":{"nodes":%d,"ppn":%d},"collective":%q,"sizes":[%d,%d]}`,
		machine, shape[0], shape[1], collective, ladder[0], ladder[1])
}

// serveWarm is the serve-warm workload: see BENCHMARK.json for why.
type serveWarm struct {
	env   *env
	srv   *server.Server
	w     *respWriter
	reqs  []*request
	first [][]byte       // the miss response of each hot query
	res   []*spec.Result // first, decoded (traced runs replay its encoding)
	good  []bool         // the first response matched its pins
	order []int          // seeded cycle through the hot set
	buf   bytes.Buffer
}

func newServeWarm(e *env) (instance, error) {
	s := &serveWarm{env: e, srv: newDaemon(), w: newRespWriter()}
	for _, ladder := range hotLadders {
		for _, shape := range hotShapes {
			for _, c := range hotCollectives {
				raw := hotQuery(c, shape, ladder)
				rq, err := newRequest(raw)
				if err != nil {
					return nil, err
				}
				rq.serve(s.srv, s.w)
				if s.w.code != http.StatusOK || s.w.cache() != "miss" {
					s.close()
					return nil, fmt.Errorf("cache fill %s: status %d, X-Cache %q: %s", raw, s.w.code, s.w.cache(), s.w.body)
				}
				res := new(spec.Result)
				if err := json.Unmarshal(s.w.body, res); err != nil {
					s.close()
					return nil, fmt.Errorf("cache fill %s: %w", raw, err)
				}
				good := true
				for _, p := range res.Points {
					key := fmt.Sprintf("serve-warm/%s/%dx%d/%d", c, shape[0], shape[1], p.Bytes)
					good = e.pin(key, p.VirtualPs) && good
				}
				s.reqs = append(s.reqs, rq)
				s.first = append(s.first, bytes.Clone(s.w.body))
				s.res = append(s.res, res)
				s.good = append(s.good, good)
			}
		}
	}
	s.order = rand.New(rand.NewSource(e.seed)).Perm(len(s.reqs))
	return s, nil
}

func (s *serveWarm) op(i int) bool {
	tr := s.env.tr
	k := s.order[i%len(s.order)]
	root := tr.begin("harness.op", -1)
	h := tr.begin("server.handler", root)
	s.reqs[k].serve(s.srv, s.w)
	tr.end(h)
	tr.end(root)
	if tr != nil {
		if _, err := replayStages(tr, h, s.reqs[k].raw, s.res[k], &s.buf); err != nil {
			s.env.note("serve-warm replay: %v", err)
			return false
		}
	}
	return s.good[k] && s.w.code == http.StatusOK && s.w.cache() == "hit" && bytes.Equal(s.w.body, s.first[k])
}

func (s *serveWarm) verify(int, int) int { return 0 }
func (s *serveWarm) close()              { closeDaemon(s.srv) }

func (s *serveWarm) counters() map[string]float64 {
	hits, misses, _ := s.srv.Stats()
	return map[string]float64{"cache_hit_ratio": float64(hits) / float64(hits+misses)}
}

// coldShape is one of the three pool-resident shapes of serve-cold. All
// run on the event engine. Sizes are drawn from [lo, hi], a range the
// set-up asserts lies inside one selection regime and which stays under
// the eager limit, so every query of a shape does the same work.
type coldShape struct {
	collective string
	nodes, ppn int
	fold       string
	lo, hi     int
}

var coldShapes = []coldShape{
	{"allgather", 1024, 64, "auto", 64, 4096}, // 65,536 ranks, folded to one node's worth
	{"bcast", 128, 8, "off", 8, 4096},
	{"allreduce", 64, 24, "off", 8, 4096},
}

func (c coldShape) query(size int) []byte {
	return fmt.Appendf(nil, `{"machine":%q,"topology":{"nodes":%d,"ppn":%d},"collective":%q,"sizes":[%d],"engine":"event","fold":%q}`,
		machine, c.nodes, c.ppn, c.collective, size, c.fold)
}

// refereeEvery is the share of timed serve-cold ops re-run on fresh
// per-point worlds after the loop: 1 in 16.
const refereeEvery = 16

// serveCold is the serve-cold workload: see BENCHMARK.json for why.
type serveCold struct {
	env  *env
	srv  *server.Server
	ws   []*respWriter // one per shape, so a traced op can replay after its last request
	reqs []*request    // three per op, in op order

	// bodies keeps the responses of the ops the referee will re-run,
	// in an arena sized during set-up.
	arena []byte
	ends  []int

	// Traced runs replay the execution next to the handler: exec is
	// the daemon's environment rebuilt here, worlds one warm world per
	// shape for the engine's share of it.
	exec   *spec.Exec
	worlds []*mpi.World
	buf    bytes.Buffer
}

func newServeCold(e *env) (instance, error) {
	s := &serveCold{env: e, srv: newDaemon()}
	rng := rand.New(rand.NewSource(e.seed))
	sizes := make([][]int, len(coldShapes))
	for j, c := range coldShapes {
		if e.ops > c.hi-c.lo+1 {
			return nil, fmt.Errorf("serve-cold: %d ops need more distinct sizes than [%d, %d] holds", e.ops, c.lo, c.hi)
		}
		// Without replacement: a repeated size would be a cache hit.
		sizes[j] = rng.Perm(c.hi - c.lo + 1)[:e.ops]
		for i := range sizes[j] {
			sizes[j][i] += c.lo
		}
		if err := oneRegime(c, sizes[j]); err != nil {
			return nil, err
		}
	}
	for i := 0; i < e.ops; i++ {
		for j, c := range coldShapes {
			rq, err := newRequest(c.query(sizes[j][i]))
			if err != nil {
				return nil, err
			}
			s.reqs = append(s.reqs, rq)
		}
	}
	sampled := e.ops/refereeEvery + 1
	s.arena = make([]byte, 0, sampled*len(coldShapes)*1024)
	s.ends = make([]int, 0, sampled*len(coldShapes))

	// One fixed query per shape fills the world pool and is checked
	// against golden.json; the seeded sizes never repeat it.
	for _, c := range coldShapes {
		rq, err := newRequest(c.query(c.hi + 8))
		if err != nil {
			return nil, err
		}
		w := newRespWriter()
		s.ws = append(s.ws, w)
		rq.serve(s.srv, w)
		res := new(spec.Result)
		if w.code != http.StatusOK {
			s.close()
			return nil, fmt.Errorf("serve-cold pool fill %s: status %d: %s", rq.raw, w.code, w.body)
		}
		if err := json.Unmarshal(w.body, res); err != nil {
			s.close()
			return nil, fmt.Errorf("serve-cold pool fill %s: %w", rq.raw, err)
		}
		if !e.pin("serve-cold/"+c.collective, res.Points[0].VirtualPs) {
			s.close()
			return nil, fmt.Errorf("serve-cold pool fill %s: virtual time is not the pinned one", rq.raw)
		}
		if e.tr != nil {
			w, err := replayWorld(rq.raw, res.Points[0].FoldUnit)
			if err != nil {
				s.close()
				return nil, err
			}
			s.worlds = append(s.worlds, w)
		}
	}
	if e.tr != nil {
		s.exec = &spec.Exec{Pool: spec.NewWorldPool(spec.PoolConfig{}), Parallelism: 4}
	}
	return s, nil
}

// oneRegime asserts with spec.Price that the selection engine picks one
// algorithm for every size drawn.
func oneRegime(c coldShape, sizes []int) error {
	q := &spec.Query{
		Machine: machine, Topology: spec.Topology{Nodes: c.nodes, PPN: c.ppn},
		Collective: c.collective, Sizes: sizes, Engine: "event", Fold: c.fold,
	}
	rep, err := spec.Price(q)
	if err != nil {
		return fmt.Errorf("serve-cold: pricing %s: %w", c.collective, err)
	}
	for _, p := range rep.Points {
		if p.Chosen != rep.Points[0].Chosen {
			return fmt.Errorf("serve-cold: %s sizes straddle two selection regimes: %s at %d B, %s at %d B",
				c.collective, rep.Points[0].Chosen, rep.Points[0].Bytes, p.Chosen, p.Bytes)
		}
	}
	return nil
}

// replayWorld builds the world the daemon's pool holds for a query.
func replayWorld(raw []byte, foldUnit int) (*mpi.World, error) {
	q, err := spec.Parse(raw)
	if err != nil {
		return nil, err
	}
	model, err := q.Model()
	if err != nil {
		return nil, err
	}
	topo, err := q.Topology.Build()
	if err != nil {
		return nil, err
	}
	tun, err := q.Tuning.Coll()
	if err != nil {
		return nil, err
	}
	return mpi.NewWorldConfig(model, topo, mpi.Config{Engine: sim.EngineEvent, FoldUnit: foldUnit, CollConfig: tun})
}

// collBody is what spec runs on every rank for one size-only point of
// the three serve-cold collectives, with a span around rank 0's call.
func collBody(tr *tracer, parent int, collective string, b int) func(p *mpi.Proc) error {
	return func(p *mpi.Proc) error {
		tr := tr.onRank0(p)
		s := tr.begin("coll."+collective, parent)
		defer tr.end(s)
		c := p.CommWorld()
		switch collective {
		case "allgather":
			h, err := coll.NewHier(c)
			if err != nil {
				return err
			}
			return h.Allgather(mpi.Sized(b), mpi.Sized(b*p.Size()), b)
		case "bcast":
			return coll.Bcast(c, mpi.Sized(b), 0)
		default:
			n := max(b/8, 1)
			return coll.Allreduce(c, mpi.Sized(n*8), mpi.Sized(n*8), n, mpi.Float64, mpi.OpSum)
		}
	}
}

func (s *serveCold) op(i int) bool {
	tr := s.env.tr
	root := tr.begin("harness.op", -1)
	ok := true
	keep := i%refereeEvery == 0
	var handlers [3]int
	for j, w := range s.ws {
		rq := s.reqs[i*len(coldShapes)+j]
		handlers[j] = tr.begin("server.handler", root)
		rq.serve(s.srv, w)
		tr.end(handlers[j])
		if w.code != http.StatusOK || w.cache() != "miss" {
			s.env.note("serve-cold %s: status %d, X-Cache %q", rq.raw, w.code, w.cache())
			ok = false
		}
		if keep {
			s.arena = append(s.arena, w.body...)
			s.ends = append(s.ends, len(s.arena))
		}
	}
	tr.end(root)
	for j := 0; tr != nil && ok && j < len(s.ws); j++ {
		ok = s.replay(handlers[j], j, s.reqs[i*len(coldShapes)+j].raw)
	}
	return ok
}

// replay attributes one miss: the handler's stages, then the execution
// (spec.exec, on a pool of its own), then inside that the engine's
// share (mpi.run on a warm world, with the collective call inside it).
// The execution's subtree is fitted to what the handler had left after
// its stages (tracer.fit), which leaves the handler no self time beyond
// them: what the daemon adds to a miss besides decode, fingerprint and
// encode is microseconds, far below what a difference of two 20 ms
// timings resolves (server.miss_overhead_us reports that difference as
// measured, with its quartiles).
func (s *serveCold) replay(handler, shape int, raw []byte) bool {
	tr := s.env.tr
	res := new(spec.Result)
	if err := json.Unmarshal(s.ws[shape].body, res); err != nil {
		s.env.note("serve-cold replay: %v", err)
		return false
	}
	stages := len(tr.spans)
	q, err := replayStages(tr, handler, raw, res, &s.buf)
	if err != nil {
		s.env.note("serve-cold replay: %v", err)
		return false
	}
	left := tr.spans[handler].ns()
	for _, stage := range tr.spans[stages:] {
		left -= stage.ns()
	}
	x := tr.beginReplay("spec.exec", handler)
	again, err := s.exec.RunContext(context.Background(), q)
	tr.end(x)
	if err != nil || again.Points[0].VirtualPs != res.Points[0].VirtualPs {
		s.env.note("serve-cold replay of %s: %v", raw, err)
		return false
	}
	w := s.worlds[shape]
	w.ResetClocks()
	r := tr.beginReplay("mpi.run", x)
	err = w.Run(collBody(tr, r, coldShapes[shape].collective, q.Sizes[0]))
	tr.end(r)
	if err != nil || int64(w.MaxClock()) != res.Points[0].VirtualPs {
		s.env.note("serve-cold engine replay of %s: %d ps, %v", raw, w.MaxClock(), err)
		return false
	}
	tr.fit(x, left/tr.spans[x].ns())
	return true
}

// verify is the referee: the kept ops are re-run on fresh per-point
// worlds, outside the daemon and its pool, and compared on virtual_ps.
func (s *serveCold) verify(first, n int) int {
	referee := &spec.Exec{PerPointWorlds: true}
	failed, kept := 0, 0
	for i := 0; i < first+n; i++ {
		if i%refereeEvery != 0 {
			continue
		}
		bad := false
		for j := range coldShapes {
			start := 0
			if kept > 0 {
				start = s.ends[kept-1]
			}
			body := s.arena[start:s.ends[kept]]
			kept++
			if i < first || bad {
				continue // warm-up ops are kept but not counted
			}
			raw := s.reqs[i*len(coldShapes)+j].raw
			var got spec.Result
			q, err := spec.Parse(raw)
			if err == nil {
				err = json.Unmarshal(body, &got)
			}
			var want *spec.Result
			if err == nil {
				want, err = referee.RunContext(context.Background(), q)
			}
			if err != nil || len(got.Points) != 1 || got.Points[0].VirtualPs != want.Points[0].VirtualPs {
				s.env.note("serve-cold referee %s: daemon %+v, referee %+v, %v", raw, got.Points, want, err)
				bad = true
			}
		}
		if bad {
			failed++
		}
	}
	return failed
}

func (s *serveCold) counters() map[string]float64 {
	return map[string]float64{"pool_hit_ratio": s.srv.PoolStats().HitRatio()}
}

func (s *serveCold) close() {
	for _, w := range s.worlds {
		w.Close()
	}
	if s.exec != nil {
		s.exec.Pool.Close()
	}
	closeDaemon(s.srv)
}
