package scenario

import "testing"

// FuzzSpecParse hammers the strict parser + validator with arbitrary
// bytes: whatever comes in, Parse and Validate must never panic, and a
// spec that validates must compile (Configs errors exactly when Validate
// does) and render as a fixed point. The committed corpus under
// testdata/fuzz/FuzzSpecParse seeds the interesting shapes: malformed
// JSON, negative and out-of-range fields, unknown app names, empty
// cohorts, truncated documents.
func FuzzSpecParse(f *testing.F) {
	f.Add([]byte(minimalSpec))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version": 1, "name": "x", "apps": []}`))
	f.Add([]byte(`{"version": 1, "name": "x", "apps": [{"name": "NOPE"}]}`))
	f.Add([]byte(`{"version": 1, "name": "x", "apps": [{"name": "VULCAN"}], "runs": -4}`))
	f.Add([]byte(`{"version": 1, "name": "x", "apps": [{"name": "VULCAN"}], "platform": {"fn_rate": -0.5}}`))
	f.Add([]byte(`{"version": 1, "name": "x", "apps": [{"name": "VULCAN"}], "failures": {"trace": {"version": 1, "name": "t", "nodes": 2, "horizon_seconds": 100, "events": [{"t": 50, "node": 1}]}}}`))
	f.Add([]byte(`{"version": 1, "name"`))
	f.Add([]byte(`[1, 2, 3]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		verr := s.Validate()
		cfgs, cerr := s.Configs()
		if (verr == nil) != (cerr == nil) {
			t.Fatalf("Validate (%v) and Configs (%v) disagree", verr, cerr)
		}
		if verr != nil {
			return
		}
		if len(cfgs) == 0 {
			t.Fatal("valid spec compiled to an empty grid")
		}
		r1, err := s.Render()
		if err != nil {
			t.Fatalf("valid spec fails to render: %v", err)
		}
		s2, err := Parse(r1)
		if err != nil {
			t.Fatalf("rendering does not reparse: %v\n%s", err, r1)
		}
		r2, err := s2.Render()
		if err != nil {
			t.Fatalf("re-render: %v", err)
		}
		if string(r1) != string(r2) {
			t.Fatalf("rendering not a fixed point:\n%s\nvs\n%s", r1, r2)
		}
	})
}
