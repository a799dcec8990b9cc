package spec_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/spec"
)

// refereeAllPaths runs q through spec.Referee on both engines, each
// per-point, warm, and pooled twice (the second pooled run lands on the
// world the first left behind), and returns the reference Result.
func refereeAllPaths(t *testing.T, q *spec.Query) *spec.Result {
	t.Helper()
	pool := spec.NewWorldPool(spec.PoolConfig{MaxIdle: -1})
	defer pool.Close()
	var paths []spec.Path
	for _, engine := range []string{"goroutine", "event"} {
		pooled := &spec.Exec{Pool: pool}
		paths = append(paths,
			spec.Path{Name: engine + "-perpoint", Engine: engine, Exec: &spec.Exec{PerPointWorlds: true}},
			spec.Path{Name: engine + "-warm", Engine: engine},
			spec.Path{Name: engine + "-pooled", Engine: engine, Exec: pooled},
			spec.Path{Name: engine + "-pooled-again", Engine: engine, Exec: pooled})
	}
	res, err := spec.Referee(context.Background(), q, paths[0], paths[1:]...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFig9PointThroughReferee: Fig. 9's Cray 64x24 point at 512
// elements, both sides of the paper's comparison, is one Query each and
// lands on cmd/experiments' report.golden figures (4,337.01 us pure,
// 884.88 us hybrid) on every engine and world-reuse path.
func TestFig9PointThroughReferee(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale runs in -short mode")
	}
	for _, c := range []struct {
		tuning string
		want   string
	}{
		{`{}`, "4337.01"},
		{`{"force":{"allgather":"hybrid"}}`, "884.88"},
	} {
		q, err := spec.Parse([]byte(`{"machine":"hazelhen-cray","topology":{"nodes":64,"ppn":24},
			"collective":"allgather","sizes":[4096],"iters":5,"tuning":` + c.tuning + `}`))
		if err != nil {
			t.Fatal(err)
		}
		res := refereeAllPaths(t, q)
		if got := fmt.Sprintf("%.2f", res.Points[0].VirtualUsPerOp); got != c.want {
			t.Errorf("tuning %s: %s us per op, report.golden has %s", c.tuning, got, c.want)
		}
	}
}

// TestIrregularHybridThroughReferee: an irregular node_sizes machine
// (Fig. 10's shape, scaled down) runs both sides on every path, and
// the hybrid side is the faster one, as in the figure.
func TestIrregularHybridThroughReferee(t *testing.T) {
	var us [2]float64
	for i, tuning := range []string{`{"force":{"allgather":"hybrid"}}`, `{}`} {
		q, err := spec.Parse([]byte(`{"machine":"hazelhen-cray","topology":{"node_sizes":[6,6,6,4]},
			"collective":"allgather","sizes":[8,8192],"iters":2,"tuning":` + tuning + `}`))
		if err != nil {
			t.Fatal(err)
		}
		res := refereeAllPaths(t, q)
		if res.Topology != "4 nodes [6 6 6 4]" || res.Ranks != 22 {
			t.Errorf("ran on %s (%d ranks), want 4 nodes [6 6 6 4] (22 ranks)", res.Topology, res.Ranks)
		}
		us[i] = res.Points[1].VirtualUsPerOp
	}
	if us[0] >= us[1] {
		t.Errorf("hybrid %.2f us not below pure %.2f us on the irregular machine", us[0], us[1])
	}
}

// TestHybridRunsUnfolded: fold "auto" folds the pure allgather on the
// event engine, but no fold helper covers the hybrid scheme, so its
// points run unfolded; an explicit unit is rejected outright.
func TestHybridRunsUnfolded(t *testing.T) {
	const base = `{"machine":"laptop","topology":{"nodes":4,"ppn":4},"collective":"allgather","sizes":[64,4096],"engine":"event"`
	for _, c := range []struct {
		tuning string
		folded bool
	}{{`{}`, true}, {`{"force":{"allgather":"hybrid"}}`, false}} {
		q, err := spec.Parse([]byte(base + `,"tuning":` + c.tuning + `}`))
		if err != nil {
			t.Fatal(err)
		}
		res, err := spec.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Points {
			if (p.FoldUnit > 0) != c.folded {
				t.Errorf("tuning %s at %d B: fold unit %d, want folded=%v", c.tuning, p.Bytes, p.FoldUnit, c.folded)
			}
		}
	}
	_, err := spec.Parse([]byte(base + `,"fold":"4","tuning":{"force":{"allgather":"hybrid"}}}`))
	if err == nil || !strings.Contains(err.Error(), "allgather=hybrid") {
		t.Errorf("explicit fold with the hybrid allgather: got %v, want a rejection naming allgather=hybrid", err)
	}
}

// TestSharedLevelReachesHybrid: sharedlevel= moves the hybrid window,
// so it moves the hybrid answer; a level the topology lacks fails the
// run.
func TestSharedLevelReachesHybrid(t *testing.T) {
	const base = `{"machine":"hazelhen-cray","topology":{"per_leaf":4,"levels":[{"name":"socket","arity":2},{"name":"node","arity":2}]},
		"collective":"allgather","sizes":[4096],"tuning":{"force":{"allgather":"hybrid"}`
	run := func(extra string) (int64, error) {
		q, err := spec.Parse([]byte(base + extra + `}}`))
		if err != nil {
			return 0, err
		}
		res, err := spec.Run(q)
		if err != nil {
			return 0, err
		}
		return res.Points[0].VirtualPs, nil
	}
	node, err := run(``)
	if err != nil {
		t.Fatal(err)
	}
	socket, err := run(`,"shared_level":"socket"`)
	if err != nil {
		t.Fatal(err)
	}
	if node == socket {
		t.Errorf("shared_level socket left the hybrid answer at %d ps", node)
	}
	if _, err := run(`,"shared_level":"numa"`); err == nil || !strings.Contains(err.Error(), `no level "numa"`) {
		t.Errorf("shared_level numa on a socket/node machine: got %v", err)
	}
}

// TestNodeSizesCanonicalForm: a uniform node_sizes list is the stack
// form under another spelling and fingerprints like nodes/ppn; an
// irregular one keeps its list and fingerprints apart.
func TestNodeSizesCanonicalForm(t *testing.T) {
	fp := func(topo string) string {
		t.Helper()
		q, err := spec.Parse([]byte(`{"machine":"laptop","topology":` + topo + `,"collective":"bcast","sizes":[8]}`))
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		f, err := q.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	if a, b := fp(`{"nodes":3,"ppn":4}`), fp(`{"node_sizes":[4,4,4]}`); a != b {
		t.Errorf("uniform node_sizes fingerprints %s, nodes/ppn %s", b, a)
	}
	if a, b := fp(`{"nodes":3,"ppn":4}`), fp(`{"node_sizes":[4,4,3]}`); a == b {
		t.Error("an irregular node_sizes shares the uniform fingerprint")
	}
	q, err := spec.Parse([]byte(`{"machine":"laptop","topology":{"node_sizes":[4,4,3]},"collective":"bcast","sizes":[8]}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Topology; len(got.NodeSizes) != 3 || got.PerLeaf != 0 || got.Levels != nil {
		t.Errorf("irregular list canonicalized to %+v", got)
	}
	if r := q.Topology.Ranks(); r != 11 {
		t.Errorf("Ranks() = %d, want 11", r)
	}
}

// TestNodeSizesAndHybridRejections: what the new spellings must not
// accept.
func TestNodeSizesAndHybridRejections(t *testing.T) {
	const q = `{"machine":"laptop","topology":%s,"collective":"%s","sizes":[8],"tuning":%s}`
	for name, body := range map[string]string{
		"empty node_sizes":       fmt.Sprintf(q, `{"node_sizes":[]}`, "bcast", `{}`),
		"zero node":              fmt.Sprintf(q, `{"node_sizes":[4,0,4]}`, "bcast", `{}`),
		"negative node":          fmt.Sprintf(q, `{"node_sizes":[4,-4]}`, "bcast", `{}`),
		"overflowing node_sizes": fmt.Sprintf(q, `{"node_sizes":[134217727,1,1]}`, "bcast", `{}`),
		"wrapping node_sizes":    fmt.Sprintf(q, `{"node_sizes":[9223372036854775807,9223372036854775807,4]}`, "bcast", `{}`),
		"node_sizes and nodes":   fmt.Sprintf(q, `{"nodes":2,"ppn":2,"node_sizes":[2,2]}`, "bcast", `{}`),
		"node_sizes and levels":  fmt.Sprintf(q, `{"per_leaf":2,"levels":[{"name":"node","arity":2}],"node_sizes":[2,2]}`, "bcast", `{}`),
		"hybrid allreduce":       fmt.Sprintf(q, `{"nodes":2,"ppn":2}`, "allreduce", `{"force":{"allreduce":"hybrid"}}`),
		"hybrid with a fold":     strings.Replace(fmt.Sprintf(q, `{"nodes":2,"ppn":2}`, "allgather", `{"force":{"allgather":"hybrid"}}`), `"sizes"`, `"fold":"2","sizes"`, 1),
	} {
		if _, err := spec.Parse([]byte(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := spec.ParseTuning("bcast=hybrid"); err == nil {
		t.Error("ParseTuning accepted bcast=hybrid")
	}
}

// TestPriceReportsHybrid: pricing a hybrid query names the scheme as
// the pick; the coll candidates are still listed.
func TestPriceReportsHybrid(t *testing.T) {
	q, err := spec.Parse([]byte(`{"machine":"hazelhen-cray","topology":{"node_sizes":[24,24,16]},
		"collective":"allgather","sizes":[64,4096],"tuning":{"force":{"allgather":"hybrid"}}}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := spec.Price(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range rep.Points {
		if pt.Chosen != "hybrid" || len(pt.Candidates) == 0 {
			t.Errorf("point %+v: want chosen hybrid beside the coll candidates", pt)
		}
	}
}
