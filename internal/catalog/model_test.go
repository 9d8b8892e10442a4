package catalog

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
)

// TestModelSpecRejectsUnknownFields pins the nested-strictness contract: a
// typo inside the "model" block fails on every decode path, because
// json.Decoder.DisallowUnknownFields does not descend into types with custom
// unmarshallers — ModelSpec carries its own strict decoder.
func TestModelSpecRejectsUnknownFields(t *testing.T) {
	bad := `{"name": "z", "city": "NYC", "model": {"kind": "zonal", "zone_caps": 40}}`

	// Direct Spec decode (the PUT /instances handler path).
	var s Spec
	err := json.Unmarshal([]byte(bad), &s)
	if err == nil || !strings.Contains(err.Error(), "model block") ||
		!strings.Contains(err.Error(), "zone_caps") {
		t.Errorf("Spec decode of typo'd model block: err = %v", err)
	}

	// Fleet-file decode (the mroamd -instances path).
	if _, err := ReadSpecs(strings.NewReader("[" + bad + "]")); err == nil ||
		!strings.Contains(err.Error(), "zone_caps") {
		t.Errorf("ReadSpecs accepted typo'd model block: err = %v", err)
	}

	// Unknown fields outside the block still fail via the top-level decoder.
	if _, err := ReadSpecs(strings.NewReader(`[{"name": "a", "citty": "NYC"}]`)); err == nil {
		t.Error("ReadSpecs accepted unknown top-level field")
	}

	// A well-formed block still decodes.
	good := `{"name": "z", "model": {"kind": "zonal", "zone_cap": 40, "zone_meters": 500}}`
	if err := json.Unmarshal([]byte(good), &s); err != nil {
		t.Fatalf("well-formed model block rejected: %v", err)
	}
	if s.Model == nil || s.Model.Kind != core.ModelZonal || s.Model.ZoneCap != 40 || s.Model.ZoneMeters != 500 {
		t.Errorf("model block decoded to %+v", s.Model)
	}
}

func TestModelSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // substring of the error; "" means valid
	}{
		{"absent block", Spec{}, ""},
		{"explicit base", Spec{Model: &ModelSpec{Kind: "base"}}, ""},
		{"zonal", Spec{Model: &ModelSpec{Kind: "zonal", ZoneCap: 10}}, ""},
		{"zonal custom grid", Spec{Model: &ModelSpec{Kind: "zonal", ZoneCap: 10, ZoneMeters: 250}}, ""},
		{"base with zone params", Spec{Model: &ModelSpec{Kind: "base", ZoneCap: 10}}, "takes no zone parameters"},
		{"zonal without cap", Spec{Model: &ModelSpec{Kind: "zonal"}}, "zone_cap >= 1"},
		{"zonal negative cap", Spec{Model: &ModelSpec{Kind: "zonal", ZoneCap: -3}}, "zone_cap >= 1"},
		{"zonal negative grid", Spec{Model: &ModelSpec{Kind: "zonal", ZoneCap: 5, ZoneMeters: -1}}, "must be positive"},
		{"unknown kind", Spec{Model: &ModelSpec{Kind: "fractal"}}, "unknown model kind"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestModelSpecNormalization(t *testing.T) {
	// Absent block stays absent; ModelKind still reports base.
	if n := (Spec{}).Normalized(); n.Model != nil {
		t.Errorf("absent model block normalized to %+v", n.Model)
	}
	if got := (Spec{}).ModelKind(); got != core.ModelBase {
		t.Errorf("absent block ModelKind %q", got)
	}

	// Zonal defaults fill in; the input spec's pointer is not aliased.
	in := Spec{Model: &ModelSpec{Kind: "zonal", ZoneCap: 7}}
	n := in.Normalized()
	if n.Model.ZoneMeters != DefaultZoneMeters {
		t.Errorf("zone_meters defaulted to %v, want %v", n.Model.ZoneMeters, DefaultZoneMeters)
	}
	if in.Model.ZoneMeters != 0 {
		t.Error("Normalized aliased the caller's model block")
	}
	if got := n.ModelKind(); got != core.ModelZonal {
		t.Errorf("ModelKind %q", got)
	}

	// Empty kind inside a present block means base.
	if got := (Spec{Model: &ModelSpec{}}).Normalized().Model.Kind; got != core.ModelBase {
		t.Errorf("empty kind normalized to %q", got)
	}
}

func TestDescribeZonal(t *testing.T) {
	s := Spec{Model: &ModelSpec{Kind: "zonal", ZoneCap: 40}}
	got := s.Describe()
	if !strings.Contains(got, "model=zonal(cap=40, zone=1000m)") {
		t.Errorf("Describe() = %q", got)
	}
}

func TestZonePartition(t *testing.T) {
	pts := []geo.Point{
		{X: 0, Y: 0},
		{X: 10, Y: 10},   // same 100m cell as the first point
		{X: 150, Y: 0},   // next column
		{X: 0, Y: 150},   // next row
		{X: 150, Y: 150}, // diagonal cell
		{X: 10, Y: 10},   // duplicate location
	}
	zoneOf, zones := ZonePartition(pts, 100)
	if zones != 4 {
		t.Fatalf("zones = %d, want 4 (partition %v)", zones, zoneOf)
	}
	if zoneOf[0] != zoneOf[1] || zoneOf[1] != zoneOf[5] {
		t.Errorf("co-located points split across zones: %v", zoneOf)
	}
	// Dense re-index in first-seen order: zone IDs appear in increasing order
	// of first occurrence.
	seen := -1
	for _, z := range zoneOf {
		if z > seen+1 {
			t.Fatalf("zone IDs not densely assigned in first-seen order: %v", zoneOf)
		}
		if z == seen+1 {
			seen = z
		}
	}
	// Empty input.
	if zo, z := ZonePartition(nil, 100); len(zo) != 0 || z != 0 {
		t.Errorf("empty partition: %v, %d", zo, z)
	}
}

// TestBuildZonal builds a zonal instance end-to-end through the catalog
// pipeline and checks the instance carries the model, the plan respects it,
// and BuildInfo reports the partition.
func TestBuildZonal(t *testing.T) {
	spec := Spec{City: "NYC", Scale: 0.02, Seed: 5,
		Model: &ModelSpec{Kind: "zonal", ZoneCap: 10}}
	inst, info, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	zm, ok := inst.Model().(*core.ZonalModel)
	if !ok {
		t.Fatalf("built instance carries %T, want *core.ZonalModel", inst.Model())
	}
	if zm.Cap() != 10 {
		t.Errorf("cap %d, want 10", zm.Cap())
	}
	if info.Model != core.ModelZonal || info.Zones != zm.Zones() || info.ZoneCap != 10 {
		t.Errorf("BuildInfo model fields: %q zones=%d cap=%d (model has %d zones)",
			info.Model, info.Zones, info.ZoneCap, zm.Zones())
	}
	if info.Zones < 2 {
		t.Errorf("degenerate partition: %d zones", info.Zones)
	}

	alg, err := core.AlgorithmByNameOpts("BLS", core.LocalSearchOptions{Seed: 7, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := alg.SolveCtx(context.Background(), inst).Plan
	if err := p.Validate(); err != nil {
		t.Fatalf("zonal plan infeasible: %v", err)
	}

	// The base build of the same spec reports the base model and no zones.
	bspec := spec
	bspec.Model = nil
	binst, binfo, err := Build(bspec)
	if err != nil {
		t.Fatal(err)
	}
	if binfo.Model != core.ModelBase || binfo.Zones != 0 || binfo.ZoneCap != 0 {
		t.Errorf("base BuildInfo model fields: %q zones=%d cap=%d", binfo.Model, binfo.Zones, binfo.ZoneCap)
	}
	if binst.Model().Kind() != core.ModelBase {
		t.Errorf("base instance model %q", binst.Model().Kind())
	}
	// The zonal constraint must actually bind on this configuration —
	// an unconstrained solve of the same market must violate the caps,
	// otherwise the fixture proves nothing about the model plumbing.
	bp := alg.SolveCtx(context.Background(), binst).Plan
	if zm.Validate(bp) == nil {
		t.Error("base plan already satisfies the zonal caps; fixture cap 10 does not bind")
	}
}
