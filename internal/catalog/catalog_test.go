package catalog

import (
	"context"
	"errors"
	"flag"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/coverage"
)

// tinySpec builds in a few milliseconds; tests that exercise registry
// mechanics rather than the pipeline use it.
func tinySpec() Spec {
	return Spec{City: "NYC", Scale: 0.02, Seed: 5, Alpha: 2.0, P: 0.1}
}

func tinyInstance(tb testing.TB) *core.Instance {
	tb.Helper()
	inst, _, err := Build(tinySpec())
	if err != nil {
		tb.Fatal(err)
	}
	return inst
}

func TestBuildMatchesHandwrittenPipeline(t *testing.T) {
	// Build must be a faithful refactor of the pipeline the CLI used to
	// inline: same dataset, same universe, same advertisers.
	inst, info, err := Build(Spec{City: "NYC", Scale: 0.02, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if info.City != "NYC" || info.Trajectories != 800 {
		t.Errorf("info = %+v, want NYC with 800 trajectories (scale 0.02)", info)
	}
	if info.Billboards != inst.Universe().NumBillboards() ||
		info.Advertisers != inst.NumAdvertisers() {
		t.Errorf("info dims %+v disagree with instance (%d billboards, %d advertisers)",
			info, inst.Universe().NumBillboards(), inst.NumAdvertisers())
	}
	if info.Advertisers != 20 { // α=1.0 / p=0.05 defaults
		t.Errorf("advertisers = %d, want round(α/p) = 20", info.Advertisers)
	}
}

// TestBuildDeterminism: the same Spec must yield instances on which BLS
// returns bit-identical plans, at any worker count — the contract that
// makes hot-swap reloads reproducible.
func TestBuildDeterminism(t *testing.T) {
	spec := tinySpec()
	instA, _, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	instB, _, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	var plans []*core.Plan
	for _, inst := range []*core.Instance{instA, instB} {
		for _, workers := range []int{1, 4} {
			alg := core.BLSAlgorithm{Opts: core.LocalSearchOptions{
				Seed: 9, Restarts: 3, Workers: workers,
			}}
			plans = append(plans, alg.SolveCtx(context.Background(), inst).Plan)
		}
	}
	want := plans[0]
	for i, p := range plans[1:] {
		if p.TotalRegret() != want.TotalRegret() {
			t.Fatalf("plan %d regret %v, want %v", i+1, p.TotalRegret(), want.TotalRegret())
		}
		for a := 0; a < instA.NumAdvertisers(); a++ {
			got, ws := p.Set(a, nil), want.Set(a, nil)
			if len(got) != len(ws) {
				t.Fatalf("plan %d advertiser %d set %v, want %v", i+1, a, got, ws)
			}
			for j := range got {
				if got[j] != ws[j] {
					t.Fatalf("plan %d advertiser %d set %v, want %v", i+1, a, got, ws)
				}
			}
		}
	}
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{City: "Atlantis"},
		{Alpha: -1},
		{P: 2},
		{Gamma: GammaPtr(-0.5)},
		{Lambda: -10},
		{Data: "/nonexistent/dataset"},
		{Name: "no spaces allowed"},
	}
	for _, s := range bad {
		if _, _, err := Build(s); err == nil {
			t.Errorf("Build(%+v) accepted", s)
		}
	}
}

func TestCatalogDefaultAndHotSwap(t *testing.T) {
	c := New()
	if _, ok := c.Get(""); ok {
		t.Error("empty catalog resolved a default")
	}
	e1, err := c.Load("a", tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if c.DefaultName() != "a" || e1.Generation != 1 {
		t.Errorf("first load: default %q gen %d, want a/1", c.DefaultName(), e1.Generation)
	}
	if got, ok := c.Get(""); !ok || got != e1 {
		t.Error("Get(\"\") did not resolve the default entry")
	}

	// Reload under the same name: new entry, strictly larger generation,
	// and the old entry object is untouched (in-flight solves keep it).
	spec2 := tinySpec()
	spec2.Seed = 6
	e2, err := c.Load("a", spec2)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Generation <= e1.Generation {
		t.Errorf("reload generation %d not above %d", e2.Generation, e1.Generation)
	}
	if e1.Instance == e2.Instance {
		t.Error("reload returned the same instance pointer")
	}
	if got, _ := c.Get("a"); got != e2 {
		t.Error("Get did not observe the reload")
	}
	if e1.Spec.Seed != 5 { // old snapshot unperturbed
		t.Errorf("old entry mutated: seed %d", e1.Spec.Seed)
	}

	if _, err := c.Load("bad name", tinySpec()); err == nil {
		t.Error("invalid name accepted")
	}
	if _, ok := c.Get("missing"); ok {
		t.Error("unknown name resolved")
	}
}

func TestCatalogDelete(t *testing.T) {
	c := New()
	if _, err := c.AddInstance("main", tinyInstance(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddInstance("aux", tinyInstance(t)); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("main"); !errors.Is(err, ErrDefaultDelete) {
		t.Errorf("deleting the default: %v, want ErrDefaultDelete", err)
	}
	if err := c.Delete("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleting a missing name: %v, want ErrNotFound", err)
	}
	if err := c.Delete("aux"); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Errorf("len %d after delete, want 1", c.Len())
	}
	if names := entryNames(c); names != "main" {
		t.Errorf("entries %q, want main", names)
	}
}

func entryNames(c *Catalog) string {
	var names []string
	for _, e := range c.List() {
		names = append(names, e.Name)
	}
	return strings.Join(names, ",")
}

// TestCatalogConcurrentReads: readers resolving entries while a writer
// hot-swaps must never observe a torn state (run under -race).
func TestCatalogConcurrentReads(t *testing.T) {
	c := New()
	inst := tinyInstance(t)
	if _, err := c.AddInstance("a", inst); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e, ok := c.Get("a")
				if !ok || e.Instance == nil || e.Name != "a" {
					t.Error("torn read")
					return
				}
				c.List()
				c.Len()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if _, err := c.AddInstance("a", inst); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if e, _ := c.Get("a"); e.Generation != 51 {
		t.Errorf("final generation %d, want 51", e.Generation)
	}
}

func TestAddInstanceRecordsDims(t *testing.T) {
	lists := []coverage.List{coverage.NewList([]int32{0, 1}), coverage.NewList([]int32{1})}
	u, err := coverage.NewUniverse(3, lists)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.NewInstance(u, []core.Advertiser{{Demand: 1, Payment: 1}}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	e, err := c.AddInstance("hand", inst)
	if err != nil {
		t.Fatal(err)
	}
	if e.Info.Billboards != 2 || e.Info.Trajectories != 3 || e.Info.Advertisers != 1 {
		t.Errorf("info %+v, want 2 billboards / 3 trajectories / 1 advertiser", e.Info)
	}
}

func TestBindFlagsFieldGroups(t *testing.T) {
	defaults := DefaultSpec()
	defaults.Scale = 0.12

	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	f := Bind(fs, FieldDataset|FieldData|FieldLambda, defaults)
	if fs.Lookup("alpha") != nil || fs.Lookup("gamma") != nil {
		t.Error("market flags registered without FieldMarket")
	}
	if err := fs.Parse([]string{"-city", "SG", "-lambda", "150"}); err != nil {
		t.Fatal(err)
	}
	s := f.Spec().Normalized()
	if s.City != "SG" || s.Lambda != 150 || s.Scale != 0.12 {
		t.Errorf("spec %+v, want SG λ=150 scale=0.12", s)
	}
	if s.Alpha != defaults.Alpha || *s.Gamma != *defaults.Gamma {
		t.Errorf("unregistered groups drifted from defaults: %+v", s)
	}

	full := flag.NewFlagSet("solve", flag.ContinueOnError)
	g := Bind(full, FieldsAll, DefaultSpec())
	if err := full.Parse([]string{"-alpha", "0.8", "-gamma", "0", "-data", "/tmp/x"}); err != nil {
		t.Fatal(err)
	}
	got := g.Spec()
	if got.Alpha != 0.8 || got.Gamma == nil || *got.Gamma != 0 || got.Data != "/tmp/x" {
		t.Errorf("spec %+v, want α=0.8 γ=0 data=/tmp/x", got)
	}
}

func TestReadSpecs(t *testing.T) {
	good := `[{"name":"nyc","city":"NYC","scale":0.02},{"name":"sg","city":"SG","scale":0.02,"seed":7}]`
	specs, err := ReadSpecs(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "nyc" || specs[1].Seed != 7 {
		t.Errorf("specs %+v", specs)
	}
	bad := []string{
		`[]`,
		`[{"city":"NYC"}]`,                 // missing name
		`[{"name":"a"},{"name":"a"}]`,      // duplicate
		`[{"name":"a","city":"Atlantis"}]`, // invalid city
		`[{"name":"a","frobnicate":1}]`,    // unknown field
		`{"name":"a"}`,                     // not an array
	}
	for _, in := range bad {
		if _, err := ReadSpecs(strings.NewReader(in)); err == nil {
			t.Errorf("ReadSpecs(%s) accepted", in)
		}
	}
}
