package spec

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
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

// EnvVar is the environment variable the process-default tuning is
// read from — kept as a compatibility shim: InstallEnvTuning parses
// it, installs the result via coll.SetDefaultTuning, and logs its
// spec-form equivalent.
const EnvVar = "REPRO_COLL_TUNING"

// ParseTuning parses the textual tuning grammar of comma-separated
// key=value pairs: "policy" takes "table", "cost" or "measured";
// "sharedlevel"
// takes a topology level name; a collective name (allgather,
// allreduce, bcast, ...) takes the algorithm to force, e.g.
//
//	policy=cost,allreduce=rabenseifner,barrier=central
//
// The same syntax is accepted by the REPRO_COLL_TUNING environment
// variable and cmd/perf's -tuning flag. The grammar lived in
// internal/coll before the Spec API redesign; it round-trips through
// Tuning.Spec (parse -> Tuning -> render -> parse is the identity on
// canonical values).
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
		switch key {
		case "policy":
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

// InstallEnvTuning applies the REPRO_COLL_TUNING compatibility shim;
// commands call it first thing in main. A set, well-formed value
// becomes the process-default coll tuning, and its spec-form
// equivalent (textual and JSON) is logged so users can migrate to the
// Spec API. A malformed value is logged and ignored rather than
// failing every collective in the job. The default reaches only worlds
// built without a tuning: a Query's worlds carry the query's own.
func InstallEnvTuning() {
	s := os.Getenv(EnvVar)
	if s == "" {
		return
	}
	t, err := ParseTuning(s)
	if err != nil {
		slog.Warn("ignoring "+EnvVar, "error", err)
		return
	}
	ct, err := t.Coll()
	if err != nil {
		slog.Warn("ignoring "+EnvVar, "error", err)
		return
	}
	coll.SetDefaultTuning(ct)
	js, _ := json.Marshal(t)
	slog.Info(EnvVar+" installed as the process-default tuning",
		"spec", t.Spec(), "spec_json", string(js))
}
