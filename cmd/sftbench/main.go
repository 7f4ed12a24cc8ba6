// Command sftbench regenerates the paper's evaluation figures (and
// this repository's ablations) as text tables and optional CSV files.
//
// Usage:
//
//	sftbench -fig all                 # every paper figure, default trials
//	sftbench -fig 13 -trials 10 -ref  # Fig. 13 with the OPT* reference
//	sftbench -fig ablations           # design-choice ablations
//	sftbench -fig 8 -csv out/         # also write out/fig8.csv
//	sftbench -json BENCH_core.json    # hot-path micro-benchmarks as JSON
//	sftbench -gate BENCH_core.json    # fail on perf regressions vs baseline
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"sftree/internal/benchsuite"
	"sftree/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sftbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sftbench", flag.ContinueOnError)
	var (
		figID    = fs.String("fig", "all", `figure to run: 8..14, "gap", "trace", "all", or "ablations"`)
		trials   = fs.Int("trials", 5, "trials per sweep point")
		seed     = fs.Int64("seed", 1, "root random seed")
		ref      = fs.Bool("ref", false, "include the OPT* best-known reference on Figs. 13/14 (slow)")
		csvDir   = fs.String("csv", "", "directory to also write per-figure CSV files into")
		parallel = fs.Int("parallel", 1, "concurrent trials per point (>1 makes timing columns noisy)")
		chart    = fs.Bool("chart", false, "also draw ASCII bar charts of the cost series")
		jsonOut  = fs.String("json", "", "run the hot-path micro-benchmark suite and write its JSON report to this file (skips figures)")
		gateIn   = fs.String("gate", "", "re-measure the gate benchmarks and fail on regressions against this baseline JSON report (skips figures)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jsonOut != "" {
		return runBenchSuite(*jsonOut)
	}
	if *gateIn != "" {
		return runGate(*gateIn)
	}
	cfg := experiments.Config{Trials: *trials, Seed: *seed, WithReference: *ref, Parallel: *parallel}

	var figs []*experiments.Figure
	switch *figID {
	case "all":
		all, err := experiments.All(cfg)
		if err != nil {
			return err
		}
		figs = all
	case "ablations":
		abl, err := experiments.Ablations(cfg)
		if err != nil {
			return err
		}
		figs = abl
	default:
		runner, ok := experiments.ByID(*figID)
		if !ok {
			return fmt.Errorf("unknown figure %q (want 8..14, all, ablations)", *figID)
		}
		fig, err := runner(cfg)
		if err != nil {
			return err
		}
		figs = []*experiments.Figure{fig}
	}

	for _, fig := range figs {
		fmt.Println(fig.CostTable())
		fmt.Println(fig.TimeTable())
		if *chart {
			fmt.Println(fig.CostChart())
		}
		fmt.Println(fig.Summary())
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*csvDir, fig.ID+".csv")
			if err := os.WriteFile(path, []byte(fig.CSV()), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}
	return nil
}

// runBenchSuite measures the hot-path micro-benchmarks (solver,
// warm-metric solve, stage-two pass, replay, concurrent admission)
// and writes the benchstat-style JSON regression record.
func runBenchSuite(path string) error {
	report, err := benchsuite.NewReport()
	if err != nil {
		return err
	}
	for _, r := range report.Benchmarks {
		fmt.Printf("%-24s %12.0f ns/op %10d B/op %8d allocs/op (%d runs)\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, r.Runs)
	}
	if p := report.SolverPhases; p != nil {
		fmt.Printf("solver phases: apsp %.2fms  stage1 %.2fms  stage2 %.2fms  (%d passes, moves %d proposed / %d accepted / %d rejected)\n",
			float64(p.APSPBuildNs)/1e6, float64(p.Stage1Ns)/1e6, float64(p.Stage2Ns)/1e6,
			p.OPAPasses, p.MovesProposed, p.MovesAccepted, p.MovesRejected)
	}
	buf, err := benchsuite.MarshalReport(report)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// runGate loads the checked-in baseline report and re-measures the
// gate benchmarks against it (best of three each), exiting non-zero
// on a >5% ns/op or >10% allocs/op regression.
func runGate(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("gate baseline: %w", err)
	}
	var baseline benchsuite.Report
	if err := json.Unmarshal(buf, &baseline); err != nil {
		return fmt.Errorf("gate baseline %s: %w", path, err)
	}
	if err := benchsuite.Gate(&baseline); err != nil {
		return err
	}
	fmt.Printf("perf gate passed against %s (%v)\n", path, benchsuite.GateBenches)
	return nil
}
