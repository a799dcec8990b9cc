package main

import (
	"fmt"

	"repro/internal/hybrid"
)

// parseSyncMode maps the -sync flag to a hybrid synchronization flavor.
func parseSyncMode(s string) (hybrid.SyncMode, error) {
	switch s {
	case "barrier", "":
		return hybrid.SyncBarrier, nil
	case "p2p":
		return hybrid.SyncP2P, nil
	case "sharedflags", "flags":
		return hybrid.SyncSharedFlags, nil
	default:
		return 0, fmt.Errorf("unknown sync flavor %q (want barrier, p2p, sharedflags)", s)
	}
}
