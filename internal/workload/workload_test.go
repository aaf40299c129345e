package workload

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestSummitCatalogueValid(t *testing.T) {
	apps := Summit()
	if len(apps) != 6 {
		t.Fatalf("catalogue has %d apps, want 6", len(apps))
	}
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func TestPerNodeFitsInDRAM(t *testing.T) {
	// Sec. II: "the checkpoint size per node never exceeds the DRAM or BB
	// size" — 512 GB DRAM on Summit.
	for _, a := range Summit() {
		if per := a.PerNodeGB(); per > 512 {
			t.Errorf("%s per-node checkpoint %.1f GB exceeds DRAM", a.Name, per)
		}
	}
}

func TestCataloguedSizesMatchTable1(t *testing.T) {
	want := map[string]struct {
		nodes int
		gb    float64
		hours float64
	}{
		"CHIMERA": {2272, 646382, 360},
		"XGC":     {1515, 149625, 240},
		"S3D":     {505, 20199, 240},
		"GYRO":    {126, 197.2, 120},
		"POP":     {126, 102.5, 480},
		"VULCAN":  {64, 3.27, 720},
	}
	for _, a := range Summit() {
		w, ok := want[a.Name]
		if !ok {
			t.Errorf("unexpected app %s", a.Name)
			continue
		}
		if a.Nodes != w.nodes || a.TotalCkptGB != w.gb || a.ComputeHours != w.hours {
			t.Errorf("%s = %+v, want %+v", a.Name, a, w)
		}
	}
}

func TestByName(t *testing.T) {
	a, err := ByName("POP")
	if err != nil || a.Nodes != 126 {
		t.Fatalf("ByName(POP) = %v, %v", a, err)
	}
	if _, err := ByName("NOPE"); err == nil {
		t.Fatal("ByName with unknown app did not error")
	}
}

func TestNamesOrderedBySize(t *testing.T) {
	names := Names()
	if names[0] != "CHIMERA" || names[len(names)-1] != "VULCAN" {
		t.Fatalf("names order unexpected: %v", names)
	}
}

func TestSortBySize(t *testing.T) {
	apps := []App{
		{Name: "small", Nodes: 1, TotalCkptGB: 1, ComputeHours: 1},
		{Name: "big", Nodes: 1, TotalCkptGB: 100, ComputeHours: 1},
		{Name: "mid", Nodes: 1, TotalCkptGB: 10, ComputeHours: 1},
	}
	SortBySize(apps)
	if apps[0].Name != "big" || apps[2].Name != "small" {
		t.Fatalf("sorted order wrong: %v", apps)
	}
	// The figures iterate Summit() in Table I order, which must be the
	// size order the paper's observations are phrased in.
	summit := Summit()
	sorted := slices.Clone(summit)
	SortBySize(sorted)
	if !slices.Equal(summit, sorted) {
		t.Fatalf("Summit() is not in size order:\n%v\nwant\n%v", summit, sorted)
	}
}

func TestComputeSeconds(t *testing.T) {
	a := App{Name: "x", Nodes: 1, TotalCkptGB: 1, ComputeHours: 2}
	if a.ComputeSeconds() != 7200 {
		t.Fatalf("ComputeSeconds = %g, want 7200", a.ComputeSeconds())
	}
}

func TestScaleEq3RoundTrip(t *testing.T) {
	f := func(sizeRaw, n1Raw, n2Raw uint16) bool {
		size := float64(sizeRaw%10000) + 1
		n1 := int(n1Raw%5000) + 1
		n2 := int(n2Raw%5000) + 1
		scaled := ScaleEq3(size, n1, n2, 32, 512)
		back := ScaleEq3(scaled, n2, n1, 512, 32)
		return math.Abs(back-size)/size < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScaleEq3Known(t *testing.T) {
	// Doubling both nodes and DRAM quadruples the checkpoint footprint.
	if got := ScaleEq3(100, 10, 20, 32, 64); math.Abs(got-400) > 1e-9 {
		t.Fatalf("ScaleEq3 = %g, want 400", got)
	}
}

func TestScaleEq3Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ScaleEq3 with zero nodes did not panic")
		}
	}()
	ScaleEq3(1, 0, 1, 1, 1)
}

func TestScaleApp(t *testing.T) {
	a := App{Name: "x", Nodes: 100, TotalCkptGB: 1000, ComputeHours: 10}
	b := ScaleApp(a, 200, 32, 32)
	if b.Nodes != 200 || math.Abs(b.TotalCkptGB-2000) > 1e-9 {
		t.Fatalf("ScaleApp = %+v", b)
	}
	if math.Abs(b.PerNodeGB()-a.PerNodeGB()) > 1e-9 {
		t.Fatal("same DRAM scaling must preserve per-node footprint")
	}
	if a.Nodes != 100 {
		t.Fatal("ScaleApp mutated its input")
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []App{
		{},
		{Name: "x"},
		{Name: "x", Nodes: 1},
		{Name: "x", Nodes: 1, TotalCkptGB: 1},
		{Name: "x", Nodes: -1, TotalCkptGB: 1, ComputeHours: 1},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("case %d: invalid app accepted: %+v", i, a)
		}
	}
}
