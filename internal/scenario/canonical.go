package scenario

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Render returns the canonical JSON rendering of the spec: normalized
// (zero fields replaced by their effective defaults, trace inlined over
// its file reference) and deterministically formatted. Rendering is a
// fixed point — parsing a rendering and rendering again reproduces it
// byte-for-byte — so a committed spec file in canonical form diffs
// cleanly against any re-export. No command re-exports a spec yet;
// FuzzSpecParse and TestCanonicalFixedPoint hold every valid spec to
// that fixed point.
func (s *Spec) Render() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(s.Normalize(), "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return append(data, '\n'), nil
}

// CanonicalString renders the spec as stable, versioned, newline-
// delimited key text — the scenario analogue of
// platform.Config.CanonicalString. Two specs that compile to the same
// simulations render identically: the rendering is built from the
// compiled cohort × policy grid (each cell carrying its platform's own
// canonical text), not from the spec's surface syntax, so e.g. an inline
// trace and a trace_file reference to the same content agree. No cache
// key uses it (each cell is keyed by its own platform rendering);
// TestCanonicalStringStability, TestMachineSpecCanonical and
// FuzzSpecParse use it to check that spec identity follows the compiled
// simulations.
func (s *Spec) CanonicalString() (string, error) {
	cfgs, err := s.Configs()
	if err != nil {
		return "", err
	}
	n := s.Normalize()
	var b strings.Builder
	b.WriteString("scenario/v1\n")
	fmt.Fprintf(&b, "name=%s\n", n.Name)
	fmt.Fprintf(&b, "runs=%d\n", n.Runs)
	fmt.Fprintf(&b, "seed=%d\n", n.Seed)
	canonicalMachine(&b, n.Machine)
	for _, c := range cfgs {
		fmt.Fprintf(&b, "config=%s|%s\n", c.Label, c.Policy)
		for _, line := range strings.SplitAfter(c.Platform.CanonicalString(), "\n") {
			if line == "" {
				continue
			}
			b.WriteString("  ")
			b.WriteString(line)
		}
	}
	return b.String(), nil
}
