package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"pckpt/internal/failure"
)

// Trace is the JSON interchange form of a failure trace: what
// internal/deshlog exports from mined log chains and what a scenario spec
// replays (inline, or referenced through "trace_file"). It is
// failure.Replay, the runtime type both simulation tiers consume through
// the failure-stream interface, plus a format version: encoding/json
// flattens the embedded Replay, so a trace file's keys are version, name,
// nodes, horizon_seconds and events, in that order.
type Trace struct {
	// Version is the trace format version; 1 is the only version.
	Version int `json:"version"`
	failure.Replay
}

// Validate reports a malformed trace, or nil. Field semantics are checked
// by the runtime type's validator, so a trace is valid exactly when its
// version is 1 and its replay is valid.
func (t *Trace) Validate() error {
	if t == nil {
		return fmt.Errorf("scenario: nil trace")
	}
	if t.Version != 1 {
		return fmt.Errorf("scenario: unsupported trace version %d (want 1)", t.Version)
	}
	return t.Replay.Validate()
}

// Render returns the canonical JSON rendering of a valid trace — what
// exporters write and what a spec's trace_file references. No command
// writes a trace file; TestTraceRoundTrip and TestExportTraceRoundTrip
// render through it to check that a trace survives its JSON form.
func (t *Trace) Render() ([]byte, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return append(data, '\n'), nil
}

// ParseTrace strictly decodes one JSON trace: unknown fields and trailing
// data are errors. The result is not yet validated.
func ParseTrace(data []byte) (*Trace, error) {
	var t Trace
	if err := strictDecode(data, &t); err != nil {
		return nil, fmt.Errorf("scenario: trace: %w", err)
	}
	return &t, nil
}

// LoadTrace reads and strictly parses a trace file.
func LoadTrace(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	t, err := ParseTrace(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// strictDecode unmarshals JSON rejecting unknown fields and trailing
// content — a typo in a spec must fail loudly, never silently default.
func strictDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return fmt.Errorf("trailing data after JSON document")
	}
	return nil
}
