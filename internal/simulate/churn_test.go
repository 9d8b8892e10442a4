package simulate

import (
	"math"
	"testing"
)

func validChurnConfig() ChurnConfig {
	return ChurnConfig{
		Days:             5,
		Advertisers:      6,
		DemandFractionLo: 0.08,
		DemandFractionHi: 0.2,
		Gamma:            0.5,
		Seed:             7,
		Restarts:         3,
	}
}

func TestChurnConfigValidate(t *testing.T) {
	if err := validChurnConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*ChurnConfig){
		func(c *ChurnConfig) { c.Days = 0 },
		func(c *ChurnConfig) { c.Advertisers = 2 },
		func(c *ChurnConfig) { c.DemandFractionLo = 0 },
		func(c *ChurnConfig) { c.DemandFractionHi = 1.5 },
		func(c *ChurnConfig) { c.DemandFractionLo = 0.3; c.DemandFractionHi = 0.2 },
		func(c *ChurnConfig) { c.PaymentFactorLo = -1; c.PaymentFactorHi = 1 },
		func(c *ChurnConfig) { c.Gamma = 1.5 },
		func(c *ChurnConfig) { c.Restarts = -1 },
		func(c *ChurnConfig) { c.ZoneOf = []int{0}; c.ZoneCap = 0 },
	}
	for i, mutate := range mutations {
		c := validChurnConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, c)
		}
	}
}

// TestChurnReplayWarmCheaper is the headline property of the delta-solve
// path: over a churned horizon the warm-started solves must spend strictly
// fewer marginal evaluations than the cold solves of the same markets.
func TestChurnReplayWarmCheaper(t *testing.T) {
	u := testUniverse(5)
	cfg := validChurnConfig()
	res, err := ChurnReplay(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Days) != cfg.Days {
		t.Fatalf("%d day reports, want %d", len(res.Days), cfg.Days)
	}
	if res.SeedEvals <= 0 {
		t.Fatal("seed solve reported no work")
	}
	for _, d := range res.Days {
		if !d.WarmStarted {
			t.Errorf("day %d: incumbent failed to seed the warm solve", d.Day)
		}
		if d.Advertisers != cfg.Advertisers {
			t.Errorf("day %d: market drifted to %d advertisers, want %d", d.Day, d.Advertisers, cfg.Advertisers)
		}
		if d.ColdEvals <= 0 || d.WarmEvals <= 0 {
			t.Errorf("day %d: evals cold=%d warm=%d, want both > 0", d.Day, d.ColdEvals, d.WarmEvals)
		}
	}
	if res.WarmEvals >= res.ColdEvals {
		t.Fatalf("warm solves cost %d evals, cold %d — warm must be strictly cheaper",
			res.WarmEvals, res.ColdEvals)
	}
}

// TestChurnReplayRegretDelta pins the paired warm − cold regret summary:
// every day lands in exactly one of worse/equal/better, the total Δ is the
// sum of the per-day rows, and the largest worsening is the largest
// positive row (0 when warm was never worse).
func TestChurnReplayRegretDelta(t *testing.T) {
	for _, seed := range []uint64{7, 13, 22} {
		cfg := validChurnConfig()
		cfg.Seed = seed
		cfg.Days = 8
		res, err := ChurnReplay(testUniverse(5), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.WorseDays + res.EqualDays + res.BetterDays; got != len(res.Days) {
			t.Errorf("seed %d: worse+equal+better = %d, want %d days", seed, got, len(res.Days))
		}
		var sum, worst float64
		var worse, better int
		for _, d := range res.Days {
			delta := d.WarmRegret - d.ColdRegret
			sum += delta
			if delta > 0 {
				worse++
				worst = max(worst, delta)
			} else if delta < 0 {
				better++
			}
		}
		if math.Abs(res.RegretDelta-sum) > 1e-9 {
			t.Errorf("seed %d: total Δ %v, want per-day sum %v", seed, res.RegretDelta, sum)
		}
		if res.WorseDays != worse || res.BetterDays != better {
			t.Errorf("seed %d: worse/better %d/%d, want %d/%d", seed, res.WorseDays, res.BetterDays, worse, better)
		}
		if res.MaxWorsening != worst {
			t.Errorf("seed %d: largest worsening %v, want %v", seed, res.MaxWorsening, worst)
		}
	}
}

// TestChurnReplayDeterministic: identical inputs must reproduce every regret
// and eval count (wall-clock excepted) — the replay is seed-driven end to
// end.
func TestChurnReplayDeterministic(t *testing.T) {
	u := testUniverse(11)
	cfg := validChurnConfig()
	cfg.Seed = 13
	a, err := ChurnReplay(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChurnReplay(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.SeedRegret != b.SeedRegret || a.SeedEvals != b.SeedEvals {
		t.Fatalf("seed solve diverged: (%v, %d) vs (%v, %d)",
			a.SeedRegret, a.SeedEvals, b.SeedRegret, b.SeedEvals)
	}
	for i := range a.Days {
		da, db := a.Days[i], b.Days[i]
		if da.ColdRegret != db.ColdRegret || da.WarmRegret != db.WarmRegret ||
			da.ColdEvals != db.ColdEvals || da.WarmEvals != db.WarmEvals ||
			da.Frozen != db.Frozen {
			t.Fatalf("day %d diverged between runs:\n%+v\n%+v", da.Day, da, db)
		}
	}
}

// TestChurnReplayZonal exercises the replay under the zonal model: the
// incumbent must still validate (the cap gates CanAssign during the replay)
// and the warm path must still win.
func TestChurnReplayZonal(t *testing.T) {
	u := testUniverse(5)
	cfg := validChurnConfig()
	cfg.ZoneOf = make([]int, u.NumBillboards())
	for b := range cfg.ZoneOf {
		cfg.ZoneOf[b] = b % 3
	}
	cfg.ZoneCap = int64(u.TotalSupply())
	res, err := ChurnReplay(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Days {
		if !d.WarmStarted {
			t.Errorf("day %d: zonal incumbent failed to seed the warm solve", d.Day)
		}
	}
	if res.WarmEvals >= res.ColdEvals {
		t.Fatalf("zonal warm solves cost %d evals, cold %d", res.WarmEvals, res.ColdEvals)
	}
}

// TestChurnReplayRejectsBadInputs covers the universe-level errors.
func TestChurnReplayRejectsBadInputs(t *testing.T) {
	u := testUniverse(5)
	cfg := validChurnConfig()
	cfg.ZoneOf = []int{0, 1}
	cfg.ZoneCap = 10
	if _, err := ChurnReplay(u, cfg); err == nil {
		t.Fatal("mismatched zone partition accepted")
	}
	cfg = validChurnConfig()
	cfg.Days = 0
	if _, err := ChurnReplay(u, cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}
