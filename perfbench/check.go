package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"rapid/internal/metrics"
)

// referenceJSON holds the recorded summary fingerprints of seed 0, per
// workload in scenario order (regenerate with -reference).
//
//go:embed reference.json
var referenceJSON []byte

// reference returns the recorded fingerprints of a workload's seed-0
// scenarios.
func reference(name string) ([]string, error) {
	var ref map[string][]string
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("perfbench: reference.json: %w", err)
	}
	fps, ok := ref[name]
	if !ok {
		return nil, fmt.Errorf("perfbench: reference.json has no %q entry", name)
	}
	return fps, nil
}

// fingerprint is a digest of every field of a summary: equal
// fingerprints mean byte-identical summaries.
func fingerprint(s metrics.Summary) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%+v", s)))
	return hex.EncodeToString(h[:8])
}

// invariant reports a violated summary invariant ("" when all hold):
// something was delivered, nothing beyond what was generated, and the
// channel never carried more than the opportunities offered.
func invariant(s metrics.Summary) string {
	switch {
	case s.Delivered <= 0:
		return "nothing delivered"
	case s.Delivered > s.Generated:
		return fmt.Sprintf("delivered %d > generated %d", s.Delivered, s.Generated)
	case s.DataBytes+s.MetaBytes > s.OpportunityBytes:
		return fmt.Sprintf("data+meta %d B > opportunity %d B", s.DataBytes+s.MetaBytes, s.OpportunityBytes)
	}
	return ""
}

// checker is the correctness gate every pass goes through. Each
// scenario run of a pass is one attempt; it fails when it panicked,
// broke an invariant, differs from the same scenario in the seed's
// first pass, or (seed 0) differs from the recorded reference.
type checker struct {
	ref       []string
	first     []string
	attempted int
	failed    int
	problems  []string
}

func newChecker(name string, seed int) (*checker, error) {
	c := &checker{}
	if seed == 0 {
		ref, err := reference(name)
		if err != nil {
			return nil, err
		}
		c.ref = ref
	}
	return c, nil
}

// pass checks one pass's outcome. extra, when non-nil, adds a
// pass-specific check of scenario i.
func (c *checker) pass(label string, out outcome, extra func(i int) string) {
	fps := make([]string, len(out.sums))
	for i, s := range out.sums {
		c.attempted++
		fps[i] = fingerprint(s)
		problem := out.panics[i]
		if problem != "" {
			problem = "panic: " + problem
		}
		if problem == "" {
			problem = invariant(s)
		}
		if problem == "" && c.ref != nil && (i >= len(c.ref) || fps[i] != c.ref[i]) {
			problem = "summary differs from the recorded reference"
		}
		if problem == "" && c.first != nil && fps[i] != c.first[i] {
			problem = "summary differs from the first pass"
		}
		if problem == "" && extra != nil {
			problem = extra(i)
		}
		if problem != "" {
			c.failed++
			c.problems = append(c.problems, fmt.Sprintf("%s: scenario %d: %s", label, i, problem))
		}
	}
	if c.first == nil {
		c.first = fps
	}
}
