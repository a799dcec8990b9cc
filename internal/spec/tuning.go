package spec

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/coll"
)

// Tuning is the declarative form of the collective selection engine's
// configuration (internal/coll Tuning): the policy, per-collective
// algorithm overrides, and the hybrid shared-window level. The zero
// value means "all defaults"; Canonicalize resolves it to the explicit
// canonical form (policy "table").
type Tuning struct {
	// Policy is "table" (profile cutoff tables, the default), "cost"
	// (LogGP minimizer over every applicable candidate), or "measured"
	// (winners cached in the tuning store, cost fallback while a
	// point's measurement is pending — see TUNING.md).
	Policy string `json:"policy,omitempty"`
	// Force pins collectives to named algorithms, e.g.
	// {"allreduce": "rabenseifner"}. Keys are collective names, values
	// registered algorithm names.
	Force map[string]string `json:"force,omitempty"`
	// SharedLevel names the topology level hosting the hybrid shared
	// window: "node" (default when empty) or a level inside the node.
	SharedLevel string `json:"shared_level,omitempty"`
}

// ParseTuning parses the textual tuning grammar of comma-separated
// key=value pairs: "policy" takes "table", "cost" or "measured";
// "sharedlevel" takes a topology level name; a collective name
// (allgather, allreduce, bcast, ...) takes the algorithm to force, e.g.
//
//	policy=cost,allreduce=rabenseifner,barrier=central
//
// Each key appears at most once and every value is non-empty: the
// grammar is what Tuning.Spec renders, so parse -> render -> parse is
// the identity on canonical values. cmd/perf's -tuning flag is its
// one textual input; a Query carries the same tuning as a JSON object,
// where an empty policy means "table".
func ParseTuning(s string) (Tuning, error) {
	var t Tuning
	s = strings.TrimSpace(s)
	if s == "" {
		return t, t.Canonicalize()
	}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return t, fmt.Errorf("spec: tuning entry %q is not key=value", part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if _, forced := t.Force[key]; forced || key == "policy" && t.Policy != "" || key == "sharedlevel" && t.SharedLevel != "" {
			return t, fmt.Errorf("spec: tuning key %q given twice", key)
		}
		switch key {
		case "policy":
			if val == "" {
				return t, fmt.Errorf("spec: policy needs a value (table, cost or measured)")
			}
			t.Policy = val
		case "sharedlevel":
			if val == "" {
				return t, fmt.Errorf("spec: sharedlevel needs a level name")
			}
			t.SharedLevel = val
		default:
			if t.Force == nil {
				t.Force = map[string]string{}
			}
			t.Force[key] = val
		}
	}
	if err := t.Canonicalize(); err != nil {
		return t, err
	}
	return t, nil
}

// Canonicalize validates the tuning and rewrites it into the canonical
// form: an explicit policy ("" becomes "table"), validated collective
// and algorithm names, and a nil Force map when empty. It is
// idempotent.
func (t *Tuning) Canonicalize() error {
	switch t.Policy {
	case "":
		t.Policy = "table"
	case "table", "cost", "measured":
	default:
		return fmt.Errorf("spec: unknown policy %q (want table, cost or measured)", t.Policy)
	}
	if len(t.Force) == 0 {
		t.Force = nil
	}
	for name, algo := range t.Force {
		cl, err := coll.ParseCollective(name)
		if err != nil {
			return fmt.Errorf("spec: tuning force: %w", err)
		}
		if !coll.Registered(cl, algo) {
			return fmt.Errorf("spec: no algorithm %q registered for %s", algo, cl)
		}
	}
	// SharedLevel existence is validated against the topology when a
	// hybrid context is built (a tuning exists before any world does).
	return nil
}

// Spec renders the tuning in the textual grammar, canonically: policy
// first, forced collectives in name order, sharedlevel last.
// ParseTuning(t.Spec()) reproduces t for any canonicalized t.
func (t Tuning) Spec() string {
	policy := t.Policy
	if policy == "" {
		policy = "table"
	}
	parts := []string{"policy=" + policy}
	names := make([]string, 0, len(t.Force))
	for name := range t.Force {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		parts = append(parts, name+"="+t.Force[name])
	}
	if t.SharedLevel != "" {
		parts = append(parts, "sharedlevel="+t.SharedLevel)
	}
	return strings.Join(parts, ",")
}

// Coll converts the declarative tuning into the selection engine's
// runtime configuration. The tuning must canonicalize cleanly.
func (t Tuning) Coll() (coll.Tuning, error) {
	if err := t.Canonicalize(); err != nil {
		return coll.Tuning{}, err
	}
	var ct coll.Tuning
	switch t.Policy {
	case "cost":
		ct.Policy = coll.PolicyCost
	case "measured":
		ct.Policy = coll.PolicyMeasured
	}
	ct.SharedLevel = t.SharedLevel
	for name, algo := range t.Force {
		cl, err := coll.ParseCollective(name)
		if err != nil {
			return coll.Tuning{}, err
		}
		if ct.Force == nil {
			ct.Force = map[coll.Collective]string{}
		}
		ct.Force[cl] = algo
	}
	return ct, nil
}
