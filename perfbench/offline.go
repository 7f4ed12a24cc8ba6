package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"sftree"
	"sftree/internal/conformance"
	"sftree/internal/core"
	"sftree/internal/mod"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
	"sftree/internal/steiner"
)

// The workload topologies are fixed parts of each workload's
// definition; -seed drives the task and arrival streams on them. A
// per-seed topology would add network-to-network variance to every
// metric and hide the program's own run-to-run spread.
const (
	offlineNodes   = 100
	offlineNetSeed = 1
	setupProbes    = 15
	// offlineMinSolves fixes the prefix of the task stream cost_mean
	// averages, so the cost metric is a pure function of the seed.
	offlineMinSolves = 1000
	probeArg         = "__setup-probe"
)

// genNetwork returns the fixed paper-Table-I network of a workload
// (µ = 2, one pre-deployed instance per node) in its JSON wire form,
// which is also what sftserve -network reads.
func genNetwork(nodes int, netSeed int64) ([]byte, error) {
	net, err := sftree.GenerateNetwork(sftree.DefaultGenConfig(nodes, 2), netSeed)
	if err != nil {
		return nil, err
	}
	task, err := netgen.GenerateTask(net, rand.New(rand.NewSource(netSeed)), 1, 1)
	if err != nil {
		return nil, err
	}
	return json.Marshal(nfv.InstanceDoc{Network: net, Task: task})
}

// decodeNetwork parses a network document into a fresh network whose
// all-pairs metric has not been computed yet.
func decodeNetwork(blob []byte) (*nfv.Network, error) {
	var doc nfv.InstanceDoc
	if err := json.Unmarshal(blob, &doc); err != nil {
		return nil, fmt.Errorf("decode network: %w", err)
	}
	return doc.Network, nil
}

// offlineTasks is the seeded solve-offline task stream: |D| uniform in
// |V|/10..3|V|/10 and chain length 5..10 (the ranges of the paper's
// Figs. 8-12).
type offlineTasks struct {
	net *nfv.Network
	rng *rand.Rand
}

func newOfflineTasks(net *nfv.Network, seed int64) *offlineTasks {
	return &offlineTasks{net: net, rng: rand.New(rand.NewSource(seed))}
}

func (s *offlineTasks) next() (nfv.Task, error) {
	n := s.net.NumNodes()
	d := n/10 + s.rng.Intn(2*n/10+1)
	k := 5 + s.rng.Intn(6)
	return netgen.GenerateTask(s.net, s.rng, d, k)
}

// checkSolve is the solve-offline correctness check: the embedding is
// valid, its independent recount equals FinalCost, and stage two never
// worsened stage one.
func checkSolve(net *nfv.Network, res *core.Result) error {
	if err := conformance.Check(net, res.Embedding); err != nil {
		return fmt.Errorf("conformance: %w", err)
	}
	b, err := conformance.Recount(net, res.Embedding)
	if err != nil {
		return fmt.Errorf("recount: %w", err)
	}
	if !conformance.CostsAgree(b.Total, res.FinalCost) {
		return fmt.Errorf("recount %.9g != FinalCost %.9g", b.Total, res.FinalCost)
	}
	if res.FinalCost > res.Stage1Cost+1e-9*max(1, res.Stage1Cost) {
		return fmt.Errorf("FinalCost %.9g > Stage1Cost %.9g", res.FinalCost, res.Stage1Cost)
	}
	return nil
}

// offlineSetup writes the workload network and times setupProbes
// fresh processes from start to their first answered solve.
func offlineSetup(cfg config, rep *report) ([]byte, error) {
	blob, err := genNetwork(offlineNodes, offlineNetSeed)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.workDir, "offline-network.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var raw, norm []time.Duration
	hs := newHostSpeed()
	for i := 0; i < setupProbes; i++ {
		d, err := timeSetupProbe(self, path, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		hs.ref()
		raw, norm = append(raw, d), append(norm, hs.norm(d))
	}
	recordSetup(rep, raw, norm)
	rep.Attempted += setupProbes
	return blob, nil
}

// timeSetupProbe starts this binary as a setup probe and measures the
// time from process start to the line announcing its first solve.
func timeSetupProbe(self, netPath string, seed int64) (time.Duration, error) {
	cmd := exec.Command(self, probeArg, netPath, strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(start)
	werr := cmd.Wait()
	if rerr != nil || werr != nil {
		return 0, errors.Join(rerr, werr)
	}
	if len(line) < 3 || line[:3] != "ok " {
		return 0, fmt.Errorf("probe said %q", line)
	}
	return d, nil
}

// setupProbeChild is the probe process: load the network file, solve
// the seed's first task, report, exit.
func setupProbeChild(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench", probeArg, "<network.json> <seed>")
		return 2
	}
	seed, err := strconv.ParseInt(args[1], 10, 64)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	blob, err := os.ReadFile(args[0])
	if err == nil {
		var net *nfv.Network
		if net, err = decodeNetwork(blob); err == nil {
			var task nfv.Task
			if task, err = newOfflineTasks(net, seed).next(); err == nil {
				var res *core.Result
				if res, err = sftree.SolveTwoStage(net, task, sftree.Options{}); err == nil {
					fmt.Printf("ok %.6f\n", res.FinalCost)
					return 0
				}
			}
		}
	}
	fmt.Fprintln(os.Stderr, "setup probe:", err)
	return 1
}

// runOffline is solve-offline's end-to-end run: one caller solving the
// seeded task stream back to back through sftree.SolveTwoStage.
func runOffline(cfg config, rep *report) error {
	blob, err := offlineSetup(cfg, rep)
	if err != nil {
		return err
	}
	net, err := decodeNetwork(blob)
	if err != nil {
		return err
	}
	net.Metric() // warm, as every later solve on this network finds it
	tasks := newOfflineTasks(net, cfg.seed)
	var (
		wall, cpu, ncpu       []float64
		wallSum, cpuSum, nSum time.Duration
		costSum               float64
		costN, solved         int
		attempted             int
		rss                   = newRSSBlocks()
		hs                    = newHostSpeed()
		deadline              = time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	)
	hs.ref()
	for time.Now().Before(deadline) || attempted < offlineMinSolves {
		task, err := tasks.next()
		if err != nil {
			return err
		}
		c0, t0 := processCPU(), time.Now()
		res, err := sftree.SolveTwoStage(net, task, sftree.Options{})
		d, c := time.Since(t0), processCPU()-c0
		attempted++
		if err != nil {
			rep.fail("solve %d: %v", attempted, err)
			continue
		}
		if err := checkSolve(net, res); err != nil {
			rep.fail("solve %d: %v", attempted, err)
			continue
		}
		solved++
		n := hs.norm(c)
		wall, cpu, ncpu = append(wall, ms(d)), append(cpu, ms(c)), append(ncpu, ms(n))
		wallSum += d
		cpuSum += c
		nSum += n
		if solved%50 == 0 {
			hs.pass()
		}
		if attempted <= offlineMinSolves {
			costSum += res.FinalCost
			costN++
		}
		if solved%1000 == 0 {
			rss.cut()
		}
	}
	rep.Attempted += attempted
	lw, lc, ln := summarize(wall), summarize(cpu), summarize(ncpu)
	rep.Samples["solve_wall_ms"] = lw
	rep.Samples["solve_cpu_ms"] = lc
	rep.Samples["solve_cpu_ref_ms"] = ln
	if !ln.P99Supported {
		return fmt.Errorf("only %d solves: p99 unsupported; raise -seconds", ln.N)
	}
	peak, err := rss.median()
	if err != nil {
		return err
	}
	perS := float64(solved) / cpuSum.Seconds()
	p99, blocks := blockP99(cpu)
	refP99, _ := blockP99(ncpu)
	wallP99, _ := blockP99(wall)
	cost := costSum / float64(max(costN, 1))
	failShare := float64(rep.Failed) / float64(rep.Attempted)
	rep.Named["solve_per_s_ref"] = metric{float64(solved) / nSum.Seconds(), "1/s"}
	rep.set("latency_p50_ms", ln.P50, "ms")
	rep.set("latency_p99_ms", refP99, "ms")
	rep.set("cost_mean", cost, "cost")
	rep.set("admitted_share", float64(solved)/float64(attempted), "share")
	rep.set("ok_share", 1-failShare, "share")
	rep.set("peak_rss_mb", peak, "MB")
	rep.Named["setup_s"] = rep.Metrics["setup_s"]
	rep.Named["solve_per_s"] = metric{perS, "1/s"}
	rep.Named["solve_p50_ms"] = metric{lc.P50, "ms"}
	rep.Named["solve_p99_ms"] = metric{p99, "ms"}
	rep.Named["solve_p99_blocks"] = metric{float64(blocks), "count"}
	rep.Named["host_ref_ms"] = metric{ms(hs.current()), "ms"}
	rep.Named["wall.solve_per_s"] = metric{float64(solved) / wallSum.Seconds(), "1/s"}
	rep.Named["wall.solve_p50_ms"] = metric{lw.P50, "ms"}
	rep.Named["wall.solve_p99_ms"] = metric{wallP99, "ms"}
	rep.Named["cost_mean"] = metric{cost, "cost"}
	rep.Named["fail_share"] = metric{failShare, "share"}
	rep.Named["peak_rss_mb"] = metric{peak, "MB"}
	return nil
}

// processCPU is the CPU time this process has used, all threads (the
// solving goroutine and the garbage collector) counted. Time the
// hypervisor gave to other tenants is not in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssBlocks measures this process's peak resident set size per block
// of work: the kernel's high-water mark is read and reset at each cut,
// and the median block peak is reported, so one badly timed GC cycle
// does not set the metric. Where the reset is not permitted it falls
// back to the process-lifetime peak.
type rssBlocks struct {
	peaks      []float64
	resettable bool
}

func newRSSBlocks() *rssBlocks {
	r := &rssBlocks{resettable: resetHWM() == nil}
	return r
}

func resetHWM() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func (r *rssBlocks) cut() {
	if !r.resettable {
		return
	}
	if v, err := vmHWM("self"); err == nil {
		r.peaks = append(r.peaks, v)
	}
	_ = resetHWM()
}

func (r *rssBlocks) median() (float64, error) {
	if len(r.peaks) == 0 {
		return vmHWM("self")
	}
	s := append([]float64(nil), r.peaks...)
	sort.Float64s(s)
	return s[len(s)/2], nil
}

// layerCalls times one task through the solver layers' public calls,
// each as a child span of root, and returns the solve result.
func layerCalls(tr *tracer, root int, req int64, net *nfv.Network, task nfv.Task) (*core.Result, error) {
	s := tr.begin("core.solve", root, req)
	res, err := core.Solve(net, task, core.Options{})
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("core.stage1", root, req)
	_, err = core.SolveStageOne(net, task, core.Options{})
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("mod.build", root, req)
	m, err := mod.Build(net, task.Source, task.Chain)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("mod.solve_sfc", root, req)
	sol := m.SolveSFC()
	tr.end(s)
	host, _ := sol.BestHost()
	terms := append([]int{host}, task.Destinations...)
	metric := net.Metric()
	s = tr.begin("steiner.kmb", root, req)
	_, err = steiner.KMB(net.Graph(), metric, terms)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	servers := net.ServerList()
	var sink float64
	s = tr.begin("nfv.capacity_scan", root, req)
	for _, v := range servers {
		sink += net.UsedCapacity(v)
	}
	tr.end(s)
	capacitySink = sink
	return res, nil
}

// capacitySink keeps the timed capacity scan from being optimised out.
var capacitySink float64

// solverLayerMetrics turns the solver-layer spans into the core, mod,
// steiner and nfv per-layer metrics.
func solverLayerMetrics(rep *report, tr *tracer, candidates []float64) {
	byName := tr.durations()
	rep.putSpans("core.solve_p50_ms", byName["core.solve"], ms, "ms")
	rep.putSpans("core.solve_p99_ms", byName["core.solve"], ms, "ms")
	rep.putSpans("core.stage1_p50_ms", byName["core.stage1"], ms, "ms")
	rep.putSpans("mod.build_p50_us", byName["mod.build"], us, "us")
	rep.putSpans("mod.solve_sfc_p50_us", byName["mod.solve_sfc"], us, "us")
	rep.putSpans("steiner.kmb_p50_us", byName["steiner.kmb"], us, "us")
	rep.putSpans("nfv.capacity_scan_us", byName["nfv.capacity_scan"], us, "us")
	// Stage two is the solve minus stage one, task by task.
	solves, st1 := tr.durationsByReq("core.solve"), tr.durationsByReq("core.stage1")
	var st2 []float64
	for req, d := range solves {
		if s1, ok := st1[req]; ok {
			st2 = append(st2, ms(d-s1))
		}
	}
	rep.putDist("core.stage2_p50_ms", st2, "ms")
	c := summarize(candidates)
	rep.set("core.candidates_per_solve", c.Mean, "count")
}

// allocsPerSolve measures heap allocations and bytes per core.Solve
// from MemStats deltas over the given tasks.
func allocsPerSolve(rep *report, net *nfv.Network, tasks []nfv.Task) error {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for _, t := range tasks {
		if _, err := core.Solve(net, t, core.Options{}); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&b)
	n := float64(len(tasks))
	rep.set("core.allocs_per_solve", float64(b.Mallocs-a.Mallocs)/n, "count")
	rep.set("core.bytes_per_solve", float64(b.TotalAlloc-a.TotalAlloc)/n, "bytes")
	return nil
}

// apspCold times the first Metric() call on freshly decoded copies of
// the workload network.
func apspCold(rep *report, blob []byte) error {
	var times []time.Duration
	for i := 0; i < setupProbes; i++ {
		net, err := decodeNetwork(blob)
		if err != nil {
			return err
		}
		t0 := time.Now()
		net.Metric()
		times = append(times, time.Since(t0))
	}
	rep.set("graph.apsp_cold_ms", ms(medianDuration(times)), "ms")
	return nil
}

// cacheShares reads this process's scaffold and metric cache counters.
func cacheShares(rep *report) {
	h, m := mod.CacheStats()
	rep.set("mod.scaffold_hit_share", share(h, h+m), "share")
	h, m = nfv.MetricCacheStats()
	rep.set("nfv.metric_cache_hit_share", share(h, h+m), "share")
}

// traceOffline is solve-offline's traced run: the same task stream,
// first untraced (core.Solve only) for the overhead baseline, then
// through every solver layer's public call with spans.
func traceOffline(cfg config, rep *report) error {
	blob, err := genNetwork(offlineNodes, offlineNetSeed)
	if err != nil {
		return err
	}
	if err := apspCold(rep, blob); err != nil {
		return err
	}
	net, err := decodeNetwork(blob)
	if err != nil {
		return err
	}
	net.Metric()
	tasks := newOfflineTasks(net, cfg.seed)
	budget := time.Duration(cfg.seconds) * time.Second
	var stream []nfv.Task
	// Untraced baseline over the first third of the budget.
	var base []float64
	for t0 := time.Now(); time.Since(t0) < budget/3 || len(base) < 200; {
		task, err := tasks.next()
		if err != nil {
			return err
		}
		stream = append(stream, task)
		s := time.Now()
		if _, err := core.Solve(net, task, core.Options{}); err != nil {
			return err
		}
		base = append(base, ms(time.Since(s)))
	}
	tr := newTracer()
	var candidates, tracedSolve []float64
	for i, t0 := 0, time.Now(); time.Since(t0) < budget*2/3 || i < len(stream); i++ {
		var task nfv.Task
		if i < len(stream) {
			task = stream[i]
		} else if task, err = tasks.next(); err != nil {
			return err
		}
		root := tr.begin("task", -1, int64(i))
		res, err := layerCalls(tr, root, int64(i), net, task)
		tr.end(root)
		rep.Attempted++
		if err != nil {
			rep.fail("task %d: %v", i, err)
			continue
		}
		if err := checkSolve(net, res); err != nil {
			rep.fail("task %d: %v", i, err)
			continue
		}
		candidates = append(candidates, float64(res.CandidatesTried))
		if i < len(base) {
			tracedSolve = append(tracedSolve, tr.lastDuration("core.solve"))
		}
	}
	solverLayerMetrics(rep, tr, candidates)
	if err := allocsPerSolve(rep, net, stream[:min(len(stream), 200)]); err != nil {
		return err
	}
	cacheShares(rep)
	b, t := summarize(base).P50, summarize(tracedSolve).P50
	rep.set("trace.overhead_share", (t-b)/b, "share")
	rep.Samples["untraced.solve_ms"] = summarize(base)
	notMeasured(rep, "solve-offline calls the solver directly: no server, queue, session manager, WAL or load generator runs",
		"server.rtt_p50_ms", "server.rtt_p99_ms", "server.overhead_p50_ms", "server.release_p50_ms",
		"queue.wait_p50_ms", "queue.wait_p99_ms", "queue.coalesced_share",
		"dynamic.admit_p50_ms", "dynamic.admit_p99_ms", "dynamic.clone_p50_us",
		"dynamic.conflict_share", "dynamic.serialized_fallbacks", "dynamic.release_p50_us",
		"wal.append_p50_us", "wal.append_p99_us", "wal.records_per_admit",
		"loadgen.lag_p99_ms", "loadgen.backlog_max")
	rep.SelfTimeMs = tr.selfTimeByName()
	return tr.write(filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed)))
}
