package platform

import (
	"testing"

	"pckpt/internal/failure"
	"pckpt/internal/iomodel"
)

// TestDefaultModelsShared pins that defaulting reuses one I/O model and
// one lead-time model instead of building them per call, and that the
// shared models price a platform exactly like freshly built ones.
func TestDefaultModelsShared(t *testing.T) {
	a, b := testConfig().WithDefaults(), testConfig().WithDefaults()
	if a.IO != b.IO || a.Leads != b.Leads {
		t.Fatalf("defaulted configs hold distinct models: IO %p/%p, Leads %p/%p", a.IO, b.IO, a.Leads, b.Leads)
	}
	fresh := testConfig()
	fresh.IO = iomodel.New(iomodel.DefaultSummit())
	fresh.Leads = failure.DefaultLeadTimes()
	if fresh.IO == a.IO || fresh.Leads == a.Leads {
		t.Fatal("freshly built models alias the shared defaults")
	}
	if a.Derive() != b.Derive() || a.Derive() != fresh.Derive() {
		t.Fatalf("shared defaults derive differently:\nshared: %+v\nfresh:  %+v", a.Derive(), fresh.Derive())
	}
	if a.CanonicalString() != b.CanonicalString() || a.CanonicalString() != fresh.CanonicalString() {
		t.Fatalf("shared defaults render differently:\n%s\nvs\n%s", a.CanonicalString(), fresh.CanonicalString())
	}
}
