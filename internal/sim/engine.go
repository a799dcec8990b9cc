package sim

import "fmt"

// Engine selects the execution backend a simulated world runs its ranks
// on. Both backends produce bit-identical virtual times: the clock
// semantics live entirely in the message/coordination records, and any
// valid execution order yields the same timestamps. What differs is the
// host-side cost profile.
type Engine int

const (
	// EngineGoroutine is the parallel backend: each Run spawns one
	// goroutine per rank, gone when the Run returns. It exploits host
	// cores but pays per-rank stacks and scheduler traffic.
	EngineGoroutine Engine = iota
	// EngineEvent is the discrete-event backend: a cooperative
	// single-threaded scheduler that runs exactly one ready rank at a
	// time, handing control off through an event (ready) queue instead
	// of parking ranks on the host scheduler. It trades parallelism for
	// determinism of execution order, zero lock contention, and — when
	// combined with rank-symmetry folding — per-rank state proportional
	// to the number of *distinct* rank behaviors rather than the rank
	// count, which is what makes million-rank worlds affordable.
	EngineEvent
)

// String names the engine as accepted by ParseEngine.
func (e Engine) String() string {
	switch e {
	case EngineGoroutine:
		return "goroutine"
	case EngineEvent:
		return "event"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// ParseEngine is the inverse of String.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "goroutine":
		return EngineGoroutine, nil
	case "event":
		return EngineEvent, nil
	}
	return 0, fmt.Errorf("sim: unknown engine %q (want goroutine or event)", s)
}
