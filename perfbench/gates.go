package main

import (
	"fmt"

	"pprl/internal/incremental"
	"pprl/internal/match"
)

// checkLink is the correctness gate of one three-party session: every
// reported match is a true match (precision 1.0 under maximize-precision),
// no pair is reported twice, and the SMC step never overspends its
// allowance — and spends all of it whenever blocking left more unknown
// pairs than it allows. It returns the number of true matches found.
func checkLink(matches []match.Pair, truth map[match.Pair]bool, invocations, allowance, unknown int64) (int, error) {
	seen := make(map[match.Pair]bool, len(matches))
	for _, p := range matches {
		if !truth[p] {
			return 0, fmt.Errorf("reported match (%d,%d) is not a true match", p.I, p.J)
		}
		if seen[p] {
			return 0, fmt.Errorf("match (%d,%d) reported twice", p.I, p.J)
		}
		seen[p] = true
	}
	if invocations > allowance {
		return 0, fmt.Errorf("%d SMC invocations exceed the allowance of %d", invocations, allowance)
	}
	if unknown > allowance && invocations != allowance {
		return 0, fmt.Errorf("%d SMC invocations with %d unknown pairs left; want the full allowance %d", invocations, unknown, allowance)
	}
	return len(seen), nil
}

// checkIngest is the correctness gate of one live-ingest pass: the union
// of every emitted delta equals the exact match set of the final
// relations, no pair is emitted twice, and every appended batch was
// applied.
func checkIngest(deltas []incremental.Delta, truth map[match.Pair]bool, applied, appended int) error {
	if applied != appended {
		return fmt.Errorf("%d batches applied, %d appended", applied, appended)
	}
	seen := make(map[match.Pair]bool, len(deltas))
	for _, d := range deltas {
		p := match.Pair{I: d.I, J: d.J}
		if seen[p] {
			return fmt.Errorf("delta (%d,%d) emitted twice", d.I, d.J)
		}
		seen[p] = true
		if !truth[p] {
			return fmt.Errorf("delta (%d,%d) of batch %d is not a true match", d.I, d.J, d.Batch)
		}
	}
	if len(seen) != len(truth) {
		return fmt.Errorf("deltas cover %d of %d true matches", len(seen), len(truth))
	}
	return nil
}
