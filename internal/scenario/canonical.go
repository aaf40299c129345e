package scenario

import (
	"encoding/json"
	"fmt"
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
