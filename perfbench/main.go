// Command perfbench is the repository's benchmark. It measures the
// paper's two-stage solver on its own (workload solve-offline) and the
// sftserve admission service under open-loop load (workloads
// admit-mixed and admit-shared), checks every output it measures, and
// prints the end-to-end metrics as one JSON object on its last line.
// With -trace 1 it instead replays the workload's inputs through each
// layer's public calls, timing them from this package, and prints the
// per-layer metrics. See README.md in this directory for the metric
// catalogue and how to run it; run.sh builds and runs it.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects everything one run measured. The metrics map holds
// exactly the gated metrics of the run's mode; the rest is printed
// above the result line and written to the run's report file.
type report struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Trace      bool              `json:"trace"`
	Provenance provenance        `json:"provenance"`
	Metrics    map[string]metric `json:"-"`
	// Named holds every end-to-end metric under the name the metric
	// catalogue gives it for this workload (solve_per_s, knee_adm_s,
	// reject_share, fail_share, ...), including the ones that are not
	// gated because they can read zero.
	Named       map[string]metric  `json:"named_metrics,omitempty"`
	NotMeasured map[string]string  `json:"not_measured,omitempty"`
	Samples     map[string]dist    `json:"samples,omitempty"`
	Windows     []window           `json:"windows,omitempty"`
	KneeSteps   []stepVerdict      `json:"knee_steps,omitempty"`
	SelfTimeMs  map[string]float64 `json:"self_time_ms,omitempty"`
	Checks      []string           `json:"failed_checks,omitempty"`
	SetupProbes []float64          `json:"setup_probes_s,omitempty"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
}

func newReport(w string, seed int64, trace bool) *report {
	return &report{
		Workload: w, Seed: seed, Trace: trace,
		Metrics:     map[string]metric{},
		Named:       map[string]metric{},
		NotMeasured: map[string]string{},
		Samples:     map[string]dist{},
	}
}

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// putDist records a sample under the metric's base name (without
// _p50/_p99) and sets the metric to the sample's median or, for a
// _p99 metric, its p99.
func (r *report) putDist(name string, vals []float64, unit string) {
	d := summarize(vals)
	r.Samples[strings.NewReplacer("_p50", "", "_p99", "").Replace(name)] = d
	v := d.P50
	if strings.Contains(name, "_p99") {
		v = d.P99
	}
	r.set(name, v, unit)
}

// putSpans is putDist over the durations of the spans with the given
// name, converted by conv (ms or us).
func (r *report) putSpans(name string, spans []time.Duration, conv func(time.Duration) float64, unit string) {
	vals := make([]float64, len(spans))
	for i, d := range spans {
		vals[i] = conv(d)
	}
	r.putDist(name, vals, unit)
}

func share[T int | int64 | float64](num, den T) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// fail records a failed correctness check; it counts as a failed
// operation and fails the run.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Checks) < 20 {
		r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
	}
}

// provenance identifies what was measured and where.
type provenance struct {
	Commit           string  `json:"commit"`
	SourceSHA256     string  `json:"source_sha256"`
	CPUModel         string  `json:"cpu_model"`
	NProc            int     `json:"nproc"`
	GenGOMAXPROCS    int     `json:"generator_gomaxprocs"`
	ServerGOMAXPROCS string  `json:"server_gomaxprocs,omitempty"`
	GoVersion        string  `json:"go_version"`
	Connections      int     `json:"connections,omitempty"`
	NominalRate      float64 `json:"nominal_rate_per_s,omitempty"`
	// HostStealShare is the share of the host's CPU time the hypervisor
	// gave to other guests during the run (/proc/stat steal), a
	// first suspect when a run reads slow.
	HostStealShare float64 `json:"host_steal_share"`
	// HostRefMs is the CPU time of the reference pass (see hostSpeed)
	// at the start of the run: it moves with the host's CPU speed and
	// never with the program.
	HostRefMs float64 `json:"host_ref_ms"`
	SLOMs     float64 `json:"slo_p99_ms,omitempty"`
}

// config is the command line.
type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	serverBin string
	workDir   string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == probeArg {
		os.Exit(setupProbeChild(os.Args[2:]))
	}
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	emit(cfg, rep)
	if rep.Failed > 0 {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fsys := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fsys.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fsys.Int64Var(&cfg.seed, "seed", 1, "workload seed (task stream and arrival schedule)")
	fsys.IntVar(&cfg.seconds, "seconds", 20, "measured seconds per run")
	fsys.IntVar(&trace, "trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	fsys.StringVar(&cfg.serverBin, "server-bin", "", "sftserve binary the admit workloads start")
	fsys.StringVar(&cfg.workDir, "work-dir", ".bench_build/run", "scratch directory for WAL dirs, network files and reports")
	if err := fsys.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown -workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds < 1 || cfg.seconds > 60 {
		return cfg, fmt.Errorf("-seconds %d out of range 1..60", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	return cfg, nil
}

// workload runs one named workload in one mode.
type workload struct {
	untraced func(cfg config, rep *report) error
	traced   func(cfg config, rep *report) error
}

var workloads = map[string]workload{
	"solve-offline": {untraced: runOffline, traced: traceOffline},
	"admit-mixed":   {untraced: func(c config, r *report) error { return runAdmit(c, r, mixedSpec) }, traced: func(c config, r *report) error { return traceAdmit(c, r, mixedSpec) }},
	"admit-shared":  {untraced: func(c config, r *report) error { return runAdmit(c, r, sharedSpec) }, traced: func(c config, r *report) error { return traceAdmit(c, r, sharedSpec) }},
}

func workloadNames() []string {
	var out []string
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func run(cfg config) (*report, error) {
	// The generator holds itself to the host's CPU count: more OS
	// threads than cores would let it outrun the server it measures.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	rep := newReport(cfg.workload, cfg.seed, cfg.trace)
	rep.Provenance = hostProvenance()
	rep.Provenance.HostRefMs = ms(newHostSpeed().ref())
	w := workloads[cfg.workload]
	stat0 := cpuStat()
	var err error
	if cfg.trace {
		err = w.traced(cfg, rep)
	} else {
		err = w.untraced(cfg, rep)
	}
	if err != nil {
		return nil, err
	}
	rep.Provenance.HostStealShare = stealShare(stat0, cpuStat())
	if runtime.GOMAXPROCS(0) > rep.Provenance.NProc {
		return nil, fmt.Errorf("generator GOMAXPROCS %d exceeds nproc %d", runtime.GOMAXPROCS(0), rep.Provenance.NProc)
	}
	want := gatedEndToEnd
	if cfg.trace {
		want = gatedPerLayer
	}
	// The result line carries exactly the mode's gated set; anything
	// else a run measured stays in the report.
	gated := make(map[string]metric, len(want))
	for _, m := range want {
		v, ok := rep.Metrics[m]
		if !ok {
			return nil, fmt.Errorf("internal: metric %s was not produced", m)
		}
		gated[m] = v
	}
	for k, v := range rep.Metrics {
		if _, ok := gated[k]; !ok {
			rep.Named[k] = v
		}
	}
	rep.Metrics = gated
	return rep, nil
}

// gatedEndToEnd and gatedPerLayer are the metric names BENCHMARK.json
// lists; every run prints exactly one of the two sets.
var gatedEndToEnd = []string{
	"setup_s", "latency_p50_ms", "latency_p99_ms",
	"cost_mean", "admitted_share", "ok_share", "peak_rss_mb",
}

var gatedPerLayer = []string{
	"server.rtt_p50_ms", "server.rtt_p99_ms", "server.overhead_p50_ms", "server.release_p50_ms",
	"queue.wait_p50_ms", "queue.wait_p99_ms", "queue.coalesced_share",
	"dynamic.admit_p50_ms", "dynamic.admit_p99_ms", "dynamic.clone_p50_us",
	"dynamic.conflict_share", "dynamic.serialized_fallbacks", "dynamic.release_p50_us",
	"wal.append_p50_us", "wal.append_p99_us", "wal.records_per_admit",
	"core.solve_p50_ms", "core.solve_p99_ms", "core.stage1_p50_ms", "core.stage2_p50_ms",
	"core.candidates_per_solve", "core.allocs_per_solve", "core.bytes_per_solve",
	"mod.build_p50_us", "mod.solve_sfc_p50_us", "mod.scaffold_hit_share",
	"steiner.kmb_p50_us",
	"nfv.capacity_scan_us", "nfv.metric_cache_hit_share",
	"graph.apsp_cold_ms",
	"loadgen.lag_p99_ms", "loadgen.backlog_max",
	"trace.overhead_share",
}

// notMeasured fills the per-layer metrics a workload does not exercise
// with 0 and records why, so the traced output always carries the
// full set.
func notMeasured(rep *report, reason string, names ...string) {
	for _, n := range names {
		rep.set(n, 0, perLayerUnit(n))
		rep.NotMeasured[n] = reason
	}
}

func perLayerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_share"):
		return "share"
	case strings.HasSuffix(name, "bytes_per_solve"):
		return "bytes"
	}
	return "count"
}

// emit prints the human-readable report, writes the full report (and
// spans, for traced runs) under the work dir, and prints the result
// line last.
func emit(cfg config, rep *report) {
	fmt.Printf("workload %s seed %d trace %v\n", rep.Workload, rep.Seed, rep.Trace)
	prov, _ := json.Marshal(rep.Provenance)
	fmt.Printf("provenance %s\n", prov)
	for _, set := range []struct {
		title string
		m     map[string]metric
	}{{"gated", rep.Metrics}, {"catalogue and diagnostics", rep.Named}} {
		fmt.Printf(" %s:\n", set.title)
		names := make([]string, 0, len(set.m))
		for k := range set.m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("  %-30s %14.4f %s\n", k, set.m[k].Value, set.m[k].Unit)
		}
	}
	keys := make([]string, 0, len(rep.Samples))
	for k := range rep.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d := rep.Samples[k]
		fmt.Printf("  samples %-26s n=%d p50=%.4f p99=%.4f (p%.1f supported)\n", k, d.N, d.P50, d.P99, d.Tail)
	}
	for _, w := range rep.Windows {
		flag := ""
		if w.Invalid {
			flag = "  INVALID: generator late"
		}
		fmt.Printf("  window %-10s t=%2d offered %7.1f/s achieved %7.1f/s lag_p99 %.2fms backlog_max %d%s\n",
			w.Phase, w.Index, w.Offered, w.Achieved, w.LagP99Ms, w.BacklogMax, flag)
	}
	for _, s := range rep.KneeSteps {
		fmt.Printf("  knee step %7.1f/s achieved %7.1f/s p99 %.2fms (n=%d) failures %d growing %v late %v ok %v\n",
			s.Rate, s.Achieved, s.Lat.P99, s.Lat.N, s.Failures, s.Growing, s.Invalid, s.OK)
	}
	nm := make([]string, 0, len(rep.NotMeasured))
	for k := range rep.NotMeasured {
		nm = append(nm, k)
	}
	sort.Strings(nm)
	for _, k := range nm {
		fmt.Printf("  not measured %s: %s\n", k, rep.NotMeasured[k])
	}
	for _, c := range rep.Checks {
		fmt.Printf("  FAILED CHECK: %s\n", c)
	}
	mode := "e2e"
	if rep.Trace {
		mode = "trace"
	}
	path := filepath.Join(cfg.workDir, fmt.Sprintf("report-%s-seed%d-%s.json", rep.Workload, rep.Seed, mode))
	if blob, err := json.MarshalIndent(struct {
		*report
		Gated map[string]metric `json:"gated_metrics"`
	}{rep, rep.Metrics}, "", "  "); err == nil {
		if err := os.WriteFile(path, blob, 0o644); err == nil {
			fmt.Printf("report written to %s\n", path)
		}
	}
	res := result{
		Correct:   rep.Failed == 0,
		Attempted: max(rep.Attempted, 1),
		Failed:    rep.Failed,
		Metrics:   rep.Metrics,
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// hostProvenance fingerprints the host and the measured source tree.
// The checkout need not be a git repository, so the commit falls back
// to a hash of the Go sources and module files it was built from.
func hostProvenance() provenance {
	p := provenance{
		NProc:         runtime.NumCPU(),
		GenGOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		CPUModel:      cpuModel(),
		Commit:        "unknown (not a git checkout)",
	}
	// git must not look for a repository above the checkout.
	git := exec.Command("git", "rev-parse", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := git.Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	p.SourceSHA256 = sourceHash(".")
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash hashes every .go, go.mod and go.sum file under root,
// skipping dot-directories (build output, VCS metadata).
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			blob, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", path, len(blob))
			h.Write(blob)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuStat reads the aggregate CPU time counters of /proc/stat (user,
// nice, system, idle, iowait, irq, softirq, steal, ...); nil if absent.
func cpuStat() []float64 {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	out := make([]float64, 0, len(f)-1)
	for _, x := range f[1:] {
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// stealShare is the steal share of all CPU time between two readings.
func stealShare(a, b []float64) float64 {
	if len(a) < 8 || len(b) < 8 {
		return 0
	}
	var total float64
	for i := 0; i < min(len(a), len(b), 8); i++ {
		total += b[i] - a[i]
	}
	if total <= 0 {
		return 0
	}
	return (b[7] - a[7]) / total
}

// vmHWM reads a process's peak resident set size in MB from
// /proc/<pid>/status ("self" for this process).
func vmHWM(pid string) (float64, error) {
	blob, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}

// medianDuration is the median of a handful of set-up timings.
func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
