// Command mroam is the command-line interface to the MROAM reproduction:
// dataset generation, dataset statistics (Table 5 / Figure 1), single-
// instance solving, and regeneration of any figure of the paper's
// evaluation.
//
// Usage:
//
//	mroam gen   -city NYC -scale 0.25 -seed 42 -out data/nyc
//	mroam stats -scale 0.25 -seed 42
//	mroam solve -city NYC -scale 0.25 -alpha 1.0 -p 0.05 -alg BLS
//	mroam exp   -fig 4 -scale 0.25 -restarts 5
//	mroam exp   -all -scale 0.25 -csv results.csv
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/simulate"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "mroam:", err)
	}
	os.Exit(exitCode(err))
}

// exitCode maps run's outcome to the process exit status. -h/-help on any
// subcommand surfaces as flag.ErrHelp and is a successful exit (the user
// asked for the usage text and got it); every other error is a failure.
func exitCode(err error) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 1
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		usage(out)
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "gen":
		return cmdGen(args[1:], out)
	case "stats":
		return cmdStats(args[1:], out)
	case "solve":
		return cmdSolve(args[1:], out)
	case "exp":
		return cmdExp(args[1:], out)
	case "sim":
		return cmdSim(args[1:], out)
	case "gap":
		return cmdGap(args[1:], out)
	case "plan":
		return cmdPlan(args[1:], out)
	case "help", "-h", "--help":
		usage(out)
		return nil
	default:
		usage(out)
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage(out io.Writer) {
	fmt.Fprintln(out, `mroam — Minimizing the Regret of an Influence Provider (SIGMOD 2021 reproduction)

subcommands:
  gen    generate a synthetic city dataset and save it to a directory
  stats  print Table 5 and the Figure 1 distribution curves
  solve  solve one MROAM instance and print the plan summary
  exp    regenerate a figure (-fig N) or the whole evaluation (-all)
  sim    simulate a rolling daily market under each allocation policy
  gap    measure heuristics against the exact optimum on small instances
  plan   solve one instance, write the plan JSON, and print the audit
  help   show this message`)
}

// specDefaults is DefaultSpec with a subcommand-specific scale, the only
// knob whose default differs between subcommands.
func specDefaults(scale float64) catalog.Spec {
	s := catalog.DefaultSpec()
	s.Scale = scale
	return s
}

func cmdGen(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	fs.SetOutput(out)
	spec := catalog.Bind(fs, catalog.FieldDataset|catalog.FieldLambda|catalog.FieldModel, specDefaults(1.0))
	outDir := fs.String("out", "", "output directory (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outDir == "" {
		return fmt.Errorf("gen: -out is required")
	}
	s := spec.Spec().Normalized()
	if err := s.Validate(); err != nil {
		return err
	}
	d, err := catalog.BuildDataset(s)
	if err != nil {
		return err
	}
	if err := d.Save(*outDir); err != nil {
		return err
	}
	row := d.Table5()
	fmt.Fprintf(out, "wrote %s: |T|=%d |U|=%d avgDist=%.2fkm avgTime=%.0fs\n",
		*outDir, row.NumTraj, row.NumBillboards, row.AvgDistanceKM, row.AvgTravelSec)
	// Report the corridor structure at λ — the compression the catalog will
	// serve this dataset on (see coverage.Compress).
	u, err := d.BuildUniverse(s.Lambda)
	if err != nil {
		return err
	}
	_, stats := coverage.Compress(u)
	fmt.Fprintf(out, "coverage at λ=%.0fm: %d corridors for %d covered trajectories (%.1fx compression)\n",
		s.Lambda, stats.Corridors, stats.Covered, stats.Ratio)
	if s.ModelKind() == core.ModelZonal {
		// The dataset itself is model-free (the model binds at instance
		// build), but previewing the partition here shows how the caps
		// would slice this geography.
		_, zones := catalog.ZonePartition(d.Billboards.Locations(), s.Model.ZoneMeters)
		fmt.Fprintf(out, "zonal partition at %.0fm cells: %d occupied zones (cap %d per advertiser per zone)\n",
			s.Model.ZoneMeters, zones, s.Model.ZoneCap)
	}
	return nil
}

func cmdStats(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	fs.SetOutput(out)
	scale := fs.Float64("scale", 0.25, "fraction of the default dataset scale")
	seed := fs.Uint64("seed", 42, "generator seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	r := experiment.NewRunner(experiment.Config{Scale: *scale, Seed: *seed})

	rows, err := r.Table5()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "Table 5: dataset statistics")
	tbl := report.NewTable("dataset", "|T|", "|U|", "AvgDistance", "AvgTravelTime")
	for _, row := range rows {
		tbl.AddRow(row.Name,
			fmt.Sprintf("%d", row.NumTraj),
			fmt.Sprintf("%d", row.NumBillboards),
			fmt.Sprintf("%.1fkm", row.AvgDistanceKM),
			fmt.Sprintf("%.0fs", row.AvgTravelSec))
	}
	if err := tbl.Write(out); err != nil {
		return err
	}

	series, err := r.Figure1()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\nFigure 1: influence and impression distributions (λ=100m)")
	dist := report.NewTable("city", "fraction", "norm influence (1a)", "impressions (1b)")
	for _, s := range series {
		for i, f := range s.SampleFractions {
			dist.AddRow(s.City.String(),
				fmt.Sprintf("%.0f%%", f*100),
				fmt.Sprintf("%.3f", s.InfluenceCurve[i]),
				fmt.Sprintf("%.3f", s.ImpressionCurve[i]))
		}
	}
	return dist.Write(out)
}

func cmdSolve(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("solve", flag.ContinueOnError)
	fs.SetOutput(out)
	spec := catalog.Bind(fs, catalog.FieldsAll, specDefaults(0.25))
	algName := fs.String("alg", "BLS", "algorithm: G-Order, G-Global, ALS or BLS")
	restarts := fs.Int("restarts", core.DefaultRestarts, "local search restarts")
	workers := fs.Int("workers", 0, "goroutines for the restart loop (0 = GOMAXPROCS); results are identical for any value")
	tracePath := fs.String("trace", "", "write the solve's regret-vs-time trajectory to this file as JSONL")
	if err := fs.Parse(args); err != nil {
		return err
	}

	s := spec.Spec().Normalized()
	inst, info, err := catalog.Build(s)
	if err != nil {
		return err
	}
	opts := core.LocalSearchOptions{Seed: s.Seed, Restarts: *restarts, Workers: *workers}
	var tw *obs.TraceWriter
	var traceBuf *bufio.Writer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		traceBuf = bufio.NewWriter(f)
		tw = obs.NewTraceWriter(traceBuf)
		opts.Tracer = tw
	}
	alg, err := core.AlgorithmByNameOpts(*algName, opts)
	if err != nil {
		return err
	}

	if tw != nil {
		tw.Start(alg.Name(), s.Seed, *restarts)
	}
	start := time.Now()
	res := core.SolveAnytime(context.Background(), alg, inst)
	elapsed := time.Since(start)
	if tw != nil {
		if err := tw.Done(res, elapsed); err != nil {
			return fmt.Errorf("trace %s: %w", *tracePath, err)
		}
		if err := traceBuf.Flush(); err != nil {
			return fmt.Errorf("trace %s: %w", *tracePath, err)
		}
	}
	excess, unsat := res.Plan.Breakdown()
	m := experiment.Metrics{
		Algorithm:      alg.Name(),
		TotalRegret:    res.TotalRegret,
		Excess:         excess,
		Unsatisfied:    unsat,
		SatisfiedCount: res.Plan.SatisfiedCount(),
		NumAdvertisers: inst.NumAdvertisers(),
		Runtime:        elapsed,
		Evals:          res.Evals,
	}
	fmt.Fprintf(out, "%s on %s (%s, |A|=%d, |U|=%d, |T|=%d)\n",
		alg.Name(), info.City, s.Describe(),
		info.Advertisers, info.Billboards, info.Trajectories)
	fmt.Fprintf(out, "  total regret:        %.1f\n", m.TotalRegret)
	fmt.Fprintf(out, "  excessive influence: %.1f (%.1f%%)\n", m.Excess, m.ExcessPct())
	fmt.Fprintf(out, "  unsatisfied penalty: %.1f (%.1f%%)\n", m.Unsatisfied, m.UnsatisfiedPct())
	fmt.Fprintf(out, "  satisfied:           %d/%d advertisers\n", m.SatisfiedCount, m.NumAdvertisers)
	fmt.Fprintf(out, "  runtime:             %v (%d marginal evaluations)\n", m.Runtime, m.Evals)
	if tw != nil {
		fmt.Fprintf(out, "  trace:               %s (%d incumbent improvements)\n", *tracePath, tw.Improvements())
	}
	return nil
}

func cmdExp(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("exp", flag.ContinueOnError)
	fs.SetOutput(out)
	figNum := fs.Int("fig", 0, "figure number to regenerate (2-12)")
	all := fs.Bool("all", false, "regenerate every figure")
	scale := fs.Float64("scale", 0.25, "fraction of the default dataset scale")
	seed := fs.Uint64("seed", 42, "seed")
	restarts := fs.Int("restarts", 3, "local search restarts")
	parallel := fs.Int("parallel", 1, "run a figure's points with this many workers (regret figures only)")
	csvPath := fs.String("csv", "", "also write raw numbers as CSV to this file")
	svgDir := fs.String("svg", "", "also write one SVG chart per figure into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*all && (*figNum < 2 || *figNum > 12) {
		return fmt.Errorf("exp: pass -fig N (2-12) or -all")
	}
	r := experiment.NewRunner(experiment.Config{Scale: *scale, Seed: *seed, Restarts: *restarts, Parallel: *parallel})

	nums := []int{*figNum}
	if *all {
		nums = []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	}

	var csvFile *os.File
	if *csvPath != "" {
		var err error
		csvFile, err = os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer csvFile.Close()
	}
	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			return err
		}
	}

	for _, num := range nums {
		figs, err := r.Figure(num)
		if err != nil {
			return err
		}
		for _, fig := range figs {
			var werr error
			if num == 8 || num == 9 {
				werr = report.WriteRuntimeFigure(out, fig)
			} else {
				werr = report.WriteFigure(out, fig)
			}
			if werr != nil {
				return werr
			}
			fmt.Fprintln(out)
			if csvFile != nil {
				if err := report.WriteFigureCSV(csvFile, fig); err != nil {
					return err
				}
			}
			if *svgDir != "" && num != 8 && num != 9 {
				f, err := os.Create(filepath.Join(*svgDir, fig.ID+".svg"))
				if err != nil {
					return err
				}
				if err := report.WriteFigureSVG(f, fig); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func cmdSim(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	fs.SetOutput(out)
	spec := catalog.Bind(fs, catalog.FieldDataset|catalog.FieldData|catalog.FieldLambda|catalog.FieldModel, specDefaults(0.12))
	days := fs.Int("days", 30, "simulation horizon in days")
	arrivals := fs.Int("arrivals", 4, "expected proposals per day")
	restarts := fs.Int("restarts", 2, "local search restarts per daily allocation")
	churn := fs.Bool("churn", false, "run the churn replay instead: one market mutates daily and each day is re-solved cold vs warm-started")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s := spec.Spec().Normalized()
	if err := s.Validate(); err != nil {
		return err
	}
	d, err := catalog.BuildDataset(s)
	if err != nil {
		return err
	}
	raw, err := d.BuildUniverse(s.Lambda)
	if err != nil {
		return err
	}
	// Solve on the corridor-compressed substrate, as catalog.Build does.
	u, _ := coverage.Compress(raw)
	if *churn {
		return runChurnSim(out, s, d, u, *days, *arrivals, *restarts)
	}
	cfg := simulate.Config{
		Days:             *days,
		ArrivalsPerDay:   *arrivals,
		ContractMinDays:  3,
		ContractMaxDays:  7,
		DemandFractionLo: 0.08,
		DemandFractionHi: 0.22,
		Gamma:            market.DefaultGamma,
		Seed:             s.Seed,
	}
	banner := ""
	if s.ModelKind() == core.ModelZonal {
		// The simulator builds instances straight from the dataset's
		// universe, so it derives its own zone partition with the same
		// geometry the catalog would use.
		zoneOf, zones := catalog.ZonePartition(d.Billboards.Locations(), s.Model.ZoneMeters)
		cfg.ZoneOf, cfg.ZoneCap = zoneOf, s.Model.ZoneCap
		banner = fmt.Sprintf(", zonal: %d zones at %.0fm, cap %d", zones, s.Model.ZoneMeters, s.Model.ZoneCap)
	}
	results, err := simulate.ComparePolicies(u, core.PaperAlgorithms(core.LocalSearchOptions{Seed: s.Seed, Restarts: *restarts}), cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d-day rolling market on %s (%d billboards, %d trips%s)\n",
		*days, d.Config.City, u.NumBillboards(), u.NumTrajectories(), banner)
	tbl := report.NewTable("policy", "revenue", "cum regret", "satisfied", "proposals")
	for _, name := range []string{"G-Order", "G-Global", "ALS", "BLS"} {
		r := results[name]
		tbl.AddRow(name,
			fmt.Sprintf("%.0f", r.TotalRevenue),
			fmt.Sprintf("%.0f", r.TotalRegret),
			fmt.Sprintf("%d", r.TotalSatisfied),
			fmt.Sprintf("%d", r.TotalProposals))
	}
	return tbl.Write(out)
}

// runChurnSim is the -churn mode of mroam sim: a fixed-universe market of
// 2·arrivals advertisers mutates every day (one leaves, one revises, one
// arrives) and each mutated market is solved twice — cold from scratch and
// warm-started from the previous day's plan — so the table shows what the
// daemon's PATCH + "warm_start" path saves over nightly full re-solves.
func runChurnSim(out io.Writer, s catalog.Spec, d *dataset.Dataset, u *coverage.Universe, days, arrivals, restarts int) error {
	cfg := simulate.ChurnConfig{
		Days:             days,
		Advertisers:      2 * arrivals,
		DemandFractionLo: 0.08,
		DemandFractionHi: 0.22,
		Gamma:            market.DefaultGamma,
		Seed:             s.Seed,
		Restarts:         restarts,
	}
	banner := ""
	if s.ModelKind() == core.ModelZonal {
		zoneOf, zones := catalog.ZonePartition(d.Billboards.Locations(), s.Model.ZoneMeters)
		cfg.ZoneOf, cfg.ZoneCap = zoneOf, s.Model.ZoneCap
		banner = fmt.Sprintf(", zonal: %d zones at %.0fm, cap %d", zones, s.Model.ZoneMeters, s.Model.ZoneCap)
	}
	res, err := simulate.ChurnReplay(u, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d-day churn replay on %s (%d advertisers, %d billboards, BLS ×%d restarts%s)\n",
		days, d.Config.City, cfg.Advertisers, u.NumBillboards(), cfg.Restarts, banner)
	fmt.Fprintf(out, "seed solve: regret %.1f (%d evals); each day: 1 removed, 1 revised, 1 added\n",
		res.SeedRegret, res.SeedEvals)
	tbl := report.NewTable("day", "cold regret", "warm regret", "Δ regret", "cold evals", "warm evals", "frozen", "cold ms", "warm ms")
	for _, day := range res.Days {
		tbl.AddRow(
			fmt.Sprintf("%d", day.Day),
			fmt.Sprintf("%.1f", day.ColdRegret),
			fmt.Sprintf("%.1f", day.WarmRegret),
			fmt.Sprintf("%+.1f", day.RegretDelta()),
			fmt.Sprintf("%d", day.ColdEvals),
			fmt.Sprintf("%d", day.WarmEvals),
			fmt.Sprintf("%d", day.Frozen),
			fmt.Sprintf("%.1f", day.ColdMillis),
			fmt.Sprintf("%.1f", day.WarmMillis))
	}
	if err := tbl.Write(out); err != nil {
		return err
	}
	pct := 0.0
	if res.ColdEvals > 0 {
		pct = 100 * float64(res.WarmEvals) / float64(res.ColdEvals)
	}
	fmt.Fprintf(out, "warm-start total: %d evals vs %d cold (%.0f%%), %.1fms vs %.1fms\n",
		res.WarmEvals, res.ColdEvals, pct, res.WarmMillis, res.ColdMillis)
	fmt.Fprintf(out, "warm - cold regret: worse on %d, equal on %d, better on %d of %d days; largest daily worsening %.1f, total Δ %+.1f\n",
		res.WorseDays, res.EqualDays, res.BetterDays, len(res.Days), res.MaxWorsening, res.RegretDelta)
	return nil
}

func cmdGap(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gap", flag.ContinueOnError)
	fs.SetOutput(out)
	instances := fs.Int("instances", 20, "number of random small instances")
	billboards := fs.Int("billboards", 8, "billboards per instance (exact-solvable)")
	advertisers := fs.Int("advertisers", 2, "advertisers per instance")
	seed := fs.Uint64("seed", 42, "seed")
	restarts := fs.Int("restarts", 3, "local search restarts")
	md := fs.Bool("md", false, "emit a markdown table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := experiment.ApproximationGap(experiment.GapConfig{
		Instances:   *instances,
		Billboards:  *billboards,
		Advertisers: *advertisers,
		Seed:        *seed,
		Restarts:    *restarts,
	})
	if err != nil {
		return err
	}
	if *md {
		return report.WriteGapMarkdown(out, rows)
	}
	fmt.Fprintf(out, "approximation gap vs exact optimum (%d instances, %d billboards, %d advertisers)\n",
		*instances, *billboards, *advertisers)
	tbl := report.NewTable("algorithm", "mean ratio", "worst ratio", "exact hits")
	for _, row := range rows {
		tbl.AddRow(row.Algorithm,
			fmt.Sprintf("%.3f", row.MeanRatio),
			fmt.Sprintf("%.3f", row.WorstRatio),
			fmt.Sprintf("%d/%d", row.OptimalHits, row.Instances))
	}
	return tbl.Write(out)
}

func cmdPlan(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("plan", flag.ContinueOnError)
	fs.SetOutput(out)
	spec := catalog.Bind(fs, catalog.FieldsAll, specDefaults(0.12))
	algName := fs.String("alg", "BLS", "algorithm")
	restarts := fs.Int("restarts", 3, "local search restarts")
	workers := fs.Int("workers", 0, "goroutines for the restart loop (0 = GOMAXPROCS); results are identical for any value")
	outPath := fs.String("out", "", "write the plan JSON to this file")
	topN := fs.Int("top", 10, "audit rows to print (by descending regret)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s := spec.Spec().Normalized()
	inst, _, err := catalog.Build(s)
	if err != nil {
		return err
	}
	alg, err := core.AlgorithmByNameOpts(*algName, core.LocalSearchOptions{
		Seed: s.Seed, Restarts: *restarts, Workers: *workers,
	})
	if err != nil {
		return err
	}
	plan := alg.SolveCtx(context.Background(), inst).Plan
	// Validate consults the instance's model, so this is the variant
	// feasibility check (e.g. zonal per-zone caps) as well as the
	// structural one — a solver returning an infeasible plan is a bug
	// worth failing loudly on.
	if err := plan.Validate(); err != nil {
		return fmt.Errorf("%s returned an infeasible plan: %w", alg.Name(), err)
	}
	if zm, ok := inst.Model().(*core.ZonalModel); ok {
		fmt.Fprintf(out, "zonal caps hold: cap %d over %d zones\n", zm.Cap(), zm.Zones())
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := core.WritePlan(f, plan); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "plan written to %s\n", *outPath)
	}

	excess, unsat := plan.Breakdown()
	fmt.Fprintf(out, "%s: regret %.1f (waste %.1f, unsatisfied %.1f), revenue %.1f of %.1f, satisfied %d/%d\n",
		alg.Name(), plan.TotalRegret(), excess, unsat,
		core.Revenue(plan), inst.TotalPayment(),
		plan.SatisfiedCount(), inst.NumAdvertisers())
	fmt.Fprintf(out, "fractional lower bound on optimal regret: %.1f\n\n", core.LowerBound(inst))

	rows := core.Audit(plan)
	if *topN < len(rows) {
		rows = rows[:*topN]
	}
	tbl := report.NewTable("advertiser", "demand", "achieved", "billboards", "satisfied", "regret")
	for _, row := range rows {
		tbl.AddRow(
			fmt.Sprintf("%d", row.Advertiser),
			fmt.Sprintf("%d", row.Demand),
			fmt.Sprintf("%d (%.0f%%)", row.Achieved, row.Fulfillment*100),
			fmt.Sprintf("%d", row.Billboards),
			fmt.Sprintf("%v", row.Satisfied),
			fmt.Sprintf("%.1f", row.Regret))
	}
	return tbl.Write(out)
}
