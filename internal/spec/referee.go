package spec

import (
	"context"
	"errors"
	"fmt"
)

// Path is one way of executing a Query: an engine and an execution
// environment. Referee runs the same query down several paths and
// demands one timeline.
type Path struct {
	// Name labels the path in a divergence error.
	Name string
	// Engine overrides the query's engine on this path; empty keeps it.
	Engine string
	// Exec is the execution environment; nil is the zero Exec.
	Exec *Exec
	// Edit, when set, rewrites this path's private copy of the query
	// before it runs. Referees leave it nil — every path runs the same
	// query; negative tests use it to provoke a divergence.
	Edit func(*Query)
}

// ErrDiverged marks a disagreement between two executions that must
// share one virtual timeline.
var ErrDiverged = errors.New("virtual timelines diverged")

// Referee runs q on the reference path and on every challenger and
// returns the reference Result, or an ErrDiverged error naming the
// first challenger, ladder size and the two virtual times that
// disagree (see Agree). Each path runs its own copy of q, which is
// only canonicalized. Two paths that share a WorldPool and an engine
// must produce at least one pool hit between them: without one the
// verdict says nothing about warm worlds.
func Referee(ctx context.Context, q *Query, ref Path, challengers ...Path) (*Result, error) {
	canon, err := q.CanonicalJSON()
	if err != nil {
		return nil, err
	}
	type poolUse struct {
		pool   *WorldPool
		engine string
	}
	uses := map[poolUse]int{}            // pooled paths per (pool, engine)
	hitsBefore := map[*WorldPool]int64{} // pool hit count ahead of its first path
	var want *Result
	for i, p := range append([]Path{ref}, challengers...) {
		pq, err := Parse(canon)
		if err != nil {
			return nil, err
		}
		if p.Engine != "" {
			pq.Engine = p.Engine
		}
		if p.Edit != nil {
			p.Edit(pq)
		}
		e := p.Exec
		if e == nil {
			e = &Exec{}
		}
		pooled := e.Pool != nil && !e.PerPointWorlds
		if _, seen := hitsBefore[e.Pool]; pooled && !seen {
			hitsBefore[e.Pool] = e.Pool.Stats().Hits
		}
		got, err := e.RunContext(ctx, pq)
		if err != nil {
			return nil, fmt.Errorf("path %s: %w", p.Name, err)
		}
		if pooled {
			uses[poolUse{e.Pool, got.Engine}]++
		}
		if i == 0 {
			want = got
		} else if err := Agree(p.Name, got, want); err != nil {
			return nil, fmt.Errorf("%w (reference path %s)", err, ref.Name)
		}
	}
	for u, n := range uses {
		if n > 1 && u.pool.Stats().Hits == hitsBefore[u.pool] {
			return nil, fmt.Errorf("spec: referee: %d %s-engine paths share a world pool but none hit it — nothing ran on a warm world", n, u.engine)
		}
	}
	return want, nil
}

// Agree reports whether got reproduces want's virtual timeline: the
// same ladder, and at every size the same virtual picoseconds — plus
// the same fold unit when both ran on the same engine (fold "auto"
// legitimately folds on the event engine only). A mismatch is an
// ErrDiverged error naming name, the ladder size, got and want.
func Agree(name string, got, want *Result) error {
	if len(got.Points) != len(want.Points) {
		return fmt.Errorf("spec: %w: path %s returned %d points, want %d",
			ErrDiverged, name, len(got.Points), len(want.Points))
	}
	for i, w := range want.Points {
		g := got.Points[i]
		if g.Bytes != w.Bytes || g.VirtualPs != w.VirtualPs {
			return fmt.Errorf("spec: %w: path %s at %d B: got %d ps, want %d ps (at %d B)",
				ErrDiverged, name, g.Bytes, g.VirtualPs, w.VirtualPs, w.Bytes)
		}
		if got.Engine == want.Engine && g.FoldUnit != w.FoldUnit {
			return fmt.Errorf("spec: %w: path %s at %d B: got fold unit %d, want %d",
				ErrDiverged, name, g.Bytes, g.FoldUnit, w.FoldUnit)
		}
	}
	return nil
}
