// Package benchsuite packages the repository's performance-critical
// micro-benchmarks as a programmatically runnable suite, so that
// cmd/sftbench -json can emit a machine-readable perf snapshot
// (BENCH_core.json) and future changes have a trajectory to compare
// against with benchstat or plain diffing.
//
// The suite mirrors the hot-path benchmarks of bench_test.go and
// internal/core/bench_test.go: the end-to-end solver on the standard
// mid-size instance, the warm-metric solve, the stage-two OPA pass, a
// fault-replay run and concurrent admission.
package benchsuite

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sftree/internal/core"
	"sftree/internal/dynamic"
	"sftree/internal/faults"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
	"sftree/internal/obs"
	"sftree/internal/sim"
)

// Bench is one named, self-contained benchmark.
type Bench struct {
	Name string
	F    func(b *testing.B)
}

// Result is the measured outcome of one benchmark.
type Result struct {
	Name        string  `json:"name"`
	Runs        int     `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Report is the JSON document written to BENCH_core.json.
type Report struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GoMaxProcs is the scheduler width the suite ran under.
	GoMaxProcs int      `json:"gomaxprocs"`
	Generated  string   `json:"generated"`
	Benchmarks []Result `json:"benchmarks"`
	// SolverPhases is the phase-timing breakdown of one observed
	// end-to-end solve on the standard instance (cold APSP), so perf
	// regressions in the benchmarks above can be attributed to a
	// phase without re-profiling.
	SolverPhases *obs.Breakdown `json:"solver_phases,omitempty"`
	// SolverPhasesWarm is the same breakdown for a second solve on the
	// already-warm network: its apsp_build_ns is zero by construction
	// (the metric closure is cached and generation-valid), which is
	// the acceptance signal for metric reuse.
	SolverPhasesWarm *obs.Breakdown `json:"solver_phases_warm,omitempty"`
}

// benchInstance regenerates the standard mid-size benchmark instance
// (100 nodes, 10 destinations, 5-VNF chain — the same shape the
// in-package micro-benchmarks use) with the APSP warmed up.
func benchInstance(nodes, dests, chain int) (*nfv.Network, nfv.Task, error) {
	net, err := netgen.Generate(netgen.PaperConfig(nodes, 2), rand.New(rand.NewSource(11)))
	if err != nil {
		return nil, nfv.Task{}, err
	}
	task, err := netgen.GenerateTask(net, rand.New(rand.NewSource(12)), dests, chain)
	if err != nil {
		return nil, nfv.Task{}, err
	}
	net.Metric()
	return net, task, nil
}

// solveBench wraps an end-to-end solve of the standard instance.
func solveBench() (Bench, error) {
	net, task, err := benchInstance(100, 10, 5)
	if err != nil {
		return Bench{}, err
	}
	return Bench{Name: "SolveTwoStage100", F: func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Solve(net, task, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}}, nil
}

// warmMetricBench measures a full degraded-substrate solve cycle on a
// warm metric: every iteration re-materializes the same degraded
// topology through faults.State and solves on the fresh network. The
// per-signature metric cache hands each materialization the same APSP
// closure, so no iteration after the first pays a metric build — the
// benchmark isolates exactly what Rebase-style re-solving costs once
// APSP is off the critical path.
func warmMetricBench() (Bench, error) {
	net, task, err := benchInstance(100, 10, 5)
	if err != nil {
		return Bench{}, err
	}
	st := faults.NewState(net)
	// Fail the first link whose loss keeps the instance solvable, so
	// the degraded (cache-backed) supplier path is the one measured.
	ok := false
	for id := 0; id < net.Graph().NumEdges() && !ok; id++ {
		e := net.Graph().Edge(id)
		if err := st.Apply(faults.Event{Kind: faults.LinkDown, U: e.U, V: e.V}); err != nil {
			continue
		}
		if deg, err := st.Materialize(net); err == nil {
			if _, err := core.Solve(deg, task, core.Options{}); err == nil {
				ok = true
				break
			}
		}
		if err := st.Apply(faults.Event{Kind: faults.LinkUp, U: e.U, V: e.V}); err != nil {
			return Bench{}, err
		}
	}
	if !ok {
		return Bench{}, fmt.Errorf("benchsuite: no single link failure keeps the instance solvable")
	}
	return Bench{Name: "SolveWarmMetric100", F: func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			deg, err := st.Materialize(net)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.Solve(deg, task, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}}, nil
}

// opaPassBench measures one stage-two pass on a fresh copy of the
// stage-one state (core.OPAPassRunner).
func opaPassBench() (Bench, error) {
	net, task, err := benchInstance(100, 10, 5)
	if err != nil {
		return Bench{}, err
	}
	run, err := core.OPAPassRunner(net, task, core.Options{})
	if err != nil {
		return Bench{}, fmt.Errorf("benchsuite: OPAPass: %w", err)
	}
	return Bench{Name: "OPAPass", F: func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := run(); err != nil {
				b.Fatal(err)
			}
		}
	}}, nil
}

// admitParallelBench measures the dynamic manager's concurrent
// admission throughput: RunParallel goroutines each admit one session
// from a fixed task mix and release it, so one op is a full
// solve-outside-the-lock, validate-and-commit, release cycle under
// real contention between admissions.
func admitParallelBench() (Bench, error) {
	net, err := netgen.Generate(netgen.PaperConfig(50, 2), rand.New(rand.NewSource(21)))
	if err != nil {
		return Bench{}, err
	}
	rng := rand.New(rand.NewSource(22))
	tasks := make([]nfv.Task, 16)
	for i := range tasks {
		task, err := netgen.GenerateTask(net, rng, 2+i%3, 2+i%2)
		if err != nil {
			return Bench{}, err
		}
		tasks[i] = task
	}
	net.Metric()
	return Bench{Name: "AdmitParallel", F: func(b *testing.B) {
		// Every admitted session is released inside its op, so the
		// network ends each measurement pass in its pristine state and
		// back-to-back passes see identical conditions.
		m := dynamic.NewManager(net, core.Options{})
		b.ReportAllocs()
		var ctr atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := int(ctr.Add(1))
				sess, err := m.Admit(tasks[i%len(tasks)])
				if err != nil {
					continue // capacity rejections under contention are data, not failures
				}
				if err := m.Release(sess.ID); err != nil {
					b.Error(err)
				}
			}
		})
	}}, nil
}

// replayBench wraps the flow-level simulator replay of a solved
// embedding, the read-path hot loop of the serving stack.
func replayBench() (Bench, error) {
	net, task, err := benchInstance(100, 10, 5)
	if err != nil {
		return Bench{}, err
	}
	res, err := core.Solve(net, task, core.Options{})
	if err != nil {
		return Bench{}, err
	}
	return Bench{Name: "Replay100", F: func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Replay(net, res.Embedding); err != nil {
				b.Fatal(err)
			}
		}
	}}, nil
}

// SolverPhases runs one instrumented end-to-end solve of the standard
// instance with a cold APSP cache and returns the observed phase
// breakdown: metric-closure build time, stage-1 and stage-2 wall time,
// and the stage-two move funnel.
func SolverPhases() (*obs.Breakdown, error) {
	net, task, err := benchInstance(100, 10, 5)
	if err != nil {
		return nil, err
	}
	// Round-trip the instance through its JSON document: the decoded
	// network carries no cached metric closure (the generator builds
	// one internally), so the solve below pays — and the breakdown
	// attributes — the real APSP construction.
	blob, err := json.Marshal(nfv.InstanceDoc{Network: net, Task: task})
	if err != nil {
		return nil, err
	}
	var doc nfv.InstanceDoc
	if err := json.Unmarshal(blob, &doc); err != nil {
		return nil, err
	}
	rec := &obs.SpanRecorder{}
	if _, err := core.Solve(doc.Network, doc.Task, core.Options{Observer: rec}); err != nil {
		return nil, fmt.Errorf("benchsuite: phase solve: %w", err)
	}
	b := rec.Breakdown()
	return &b, nil
}

// SolverPhasesWarm runs the instrumented solve against a network whose
// metric closure is already cached, returning a breakdown whose
// apsp_build_ns is zero: the generation-stamped cache satisfies the
// metric lookup without an APSP build.
func SolverPhasesWarm() (*obs.Breakdown, error) {
	net, task, err := benchInstance(100, 10, 5) // warms the metric
	if err != nil {
		return nil, err
	}
	rec := &obs.SpanRecorder{}
	if _, err := core.Solve(net, task, core.Options{Observer: rec}); err != nil {
		return nil, fmt.Errorf("benchsuite: warm phase solve: %w", err)
	}
	b := rec.Breakdown()
	return &b, nil
}

// Suite assembles the full benchmark list.
func Suite() ([]Bench, error) {
	sb, err := solveBench()
	if err != nil {
		return nil, err
	}
	out := []Bench{sb}
	wb, err := warmMetricBench()
	if err != nil {
		return nil, err
	}
	out = append(out, wb)
	ob, err := opaPassBench()
	if err != nil {
		return nil, err
	}
	out = append(out, ob)
	rb, err := replayBench()
	if err != nil {
		return nil, err
	}
	out = append(out, rb)
	ab, err := admitParallelBench()
	if err != nil {
		return nil, err
	}
	out = append(out, ab)
	return out, nil
}

// Run executes every benchmark in the suite (via testing.Benchmark,
// which measures for its standard one second per benchmark) and
// returns the results in name order.
func Run() ([]Result, error) {
	benches, err := Suite()
	if err != nil {
		return nil, err
	}
	var out []Result
	for _, bench := range benches {
		r := testing.Benchmark(bench.F)
		out = append(out, Result{
			Name:        bench.Name,
			Runs:        r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// NewReport runs the suite plus the instrumented cold and warm solves
// and wraps the results with environment metadata.
func NewReport() (*Report, error) {
	results, err := Run()
	if err != nil {
		return nil, err
	}
	phases, err := SolverPhases()
	if err != nil {
		return nil, err
	}
	warm, err := SolverPhasesWarm()
	if err != nil {
		return nil, err
	}
	return &Report{
		GoVersion:        runtime.Version(),
		GOOS:             runtime.GOOS,
		GOARCH:           runtime.GOARCH,
		NumCPU:           runtime.NumCPU(),
		GoMaxProcs:       runtime.GOMAXPROCS(0),
		Generated:        time.Now().UTC().Format(time.RFC3339),
		Benchmarks:       results,
		SolverPhases:     phases,
		SolverPhasesWarm: warm,
	}, nil
}

// GateBenches names the benchmarks the regression gate re-measures:
// the end-to-end solver, the stage-two pass, the warm-metric re-solve
// cycle, and the concurrent admission pipeline.
var GateBenches = []string{"SolveTwoStage100", "OPAPass", "SolveWarmMetric100", "AdmitParallel"}

// Gate thresholds: a gate benchmark may regress at most this much
// against the checked-in baseline before the gate fails.
const (
	GateMaxNsRegression     = 1.05 // >5% ns/op fails
	GateMaxAllocsRegression = 1.10 // >10% allocs/op fails
)

// Gate threshold overrides for benchmarks whose run-to-run variance
// exceeds the defaults: the contended admission cycle's cost and
// allocations depend on how the scheduler interleaves commits (every
// conflict re-solves), so it gets proportionally more slack.
var (
	GateNsOverrides     = map[string]float64{"AdmitParallel": 1.25}
	GateAllocsOverrides = map[string]float64{"AdmitParallel": 1.25}
)

// Gate re-measures the gate benchmarks (best of three runs each, to
// shed scheduler noise) and compares them against the baseline
// report. It returns an error naming every benchmark that regressed
// beyond the thresholds, or whose baseline entry is missing —
// regenerate BENCH_core.json after intentional perf changes.
func Gate(baseline *Report) error {
	benches, err := Suite()
	if err != nil {
		return err
	}
	byName := make(map[string]Bench, len(benches))
	for _, b := range benches {
		byName[b.Name] = b
	}
	base := make(map[string]Result, len(baseline.Benchmarks))
	for _, r := range baseline.Benchmarks {
		base[r.Name] = r
	}
	var problems []string
	for _, name := range GateBenches {
		b, ok := byName[name]
		if !ok {
			return fmt.Errorf("benchsuite: gate benchmark %q not in suite", name)
		}
		bl, ok := base[name]
		if !ok {
			problems = append(problems,
				fmt.Sprintf("%s: no baseline entry (regenerate BENCH_core.json)", name))
			continue
		}
		bestNs, bestAllocs := float64(-1), int64(-1)
		for i := 0; i < 3; i++ {
			r := testing.Benchmark(b.F)
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			if bestNs < 0 || ns < bestNs {
				bestNs = ns
			}
			if a := r.AllocsPerOp(); bestAllocs < 0 || a < bestAllocs {
				bestAllocs = a
			}
		}
		nsLimit := GateMaxNsRegression
		if o, ok := GateNsOverrides[name]; ok {
			nsLimit = o
		}
		allocsLimit := GateMaxAllocsRegression
		if o, ok := GateAllocsOverrides[name]; ok {
			allocsLimit = o
		}
		if bestNs > bl.NsPerOp*nsLimit {
			problems = append(problems, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (+%.1f%%, limit %.0f%%)",
				name, bestNs, bl.NsPerOp, 100*(bestNs/bl.NsPerOp-1), 100*(nsLimit-1)))
		}
		if bl.AllocsPerOp > 0 && float64(bestAllocs) > float64(bl.AllocsPerOp)*allocsLimit {
			problems = append(problems, fmt.Sprintf("%s: %d allocs/op vs baseline %d (+%.1f%%, limit %.0f%%)",
				name, bestAllocs, bl.AllocsPerOp, 100*(float64(bestAllocs)/float64(bl.AllocsPerOp)-1), 100*(allocsLimit-1)))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("benchsuite: perf regression gate failed:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

// MarshalReport renders the report as indented JSON with a trailing
// newline, the exact bytes BENCH_core.json carries.
func MarshalReport(r *Report) ([]byte, error) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
