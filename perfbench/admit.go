package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"sftree/internal/netgen"
	"sftree/internal/nfv"
)

// sloMs is the admission latency limit the knee is searched against.
const sloMs = 50.0

// mixTerm is one chain-signature term of an admission workload: tasks
// with dests destinations and a chain of chainLen VNFs, drawn with the
// given weight. fixed pins the term to one chain for the whole run.
type mixTerm struct {
	dests, chainLen int
	weight          float64
	fixed           bool
}

// admitSpec defines an admission workload.
type admitSpec struct {
	name     string
	nodes    int
	netSeed  int64
	mix      []mixTerm
	holdMean time.Duration
	wal      bool
	// nominal is the fixed offered rate latency is reported at, about
	// half the default serving path's knee on a 2-CPU host.
	nominal float64
}

// mixedSpec is the write path: mixed signatures (sftload's default mix
// 2x2:2,4x3:2,8x5:1), long holds that keep thousands of sessions live,
// and a WAL with the default fsync-per-commit policy.
var mixedSpec = admitSpec{
	name: "admit-mixed", nodes: 50, netSeed: 1,
	mix:      []mixTerm{{2, 2, 2, false}, {4, 3, 2, false}, {8, 5, 1, false}},
	holdMean: 10 * time.Second,
	wal:      true,
	nominal:  200,
}

// sharedSpec is the reuse path: one fixed chain signature (sftload's
// 6x4! shape), short holds, no WAL.
var sharedSpec = admitSpec{
	name: "admit-shared", nodes: 50, netSeed: 1,
	mix:      []mixTerm{{6, 4, 1, true}},
	holdMean: 1 * time.Second,
	wal:      false,
	nominal:  200,
}

// arrivals is an admission workload's seeded input stream: task
// bodies, holds and Poisson inter-arrival gaps, drawn in order from one
// rng so a seed fixes every input.
type arrivals struct {
	spec  admitSpec
	net   *nfv.Network
	rng   *rand.Rand
	fixed map[int]nfv.SFC
}

func newArrivals(spec admitSpec, net *nfv.Network, seed int64) *arrivals {
	return &arrivals{spec: spec, net: net, rng: rand.New(rand.NewSource(seed)), fixed: map[int]nfv.SFC{}}
}

// next draws one task and its hold.
func (a *arrivals) next() (nfv.Task, time.Duration, error) {
	var total float64
	for _, m := range a.spec.mix {
		total += m.weight
	}
	pick, mi := a.rng.Float64()*total, len(a.spec.mix)-1
	for i, m := range a.spec.mix {
		if pick -= m.weight; pick < 0 {
			mi = i
			break
		}
	}
	m := a.spec.mix[mi]
	task, err := netgen.GenerateTask(a.net, a.rng, m.dests, m.chainLen)
	if err != nil {
		return task, 0, err
	}
	if m.fixed {
		if c, ok := a.fixed[mi]; ok {
			task.Chain = c
		} else {
			// The pinned chain is part of the workload, like its
			// topology: drawn from the network seed, not the run seed.
			pin, err := netgen.GenerateTask(a.net, rand.New(rand.NewSource(a.spec.netSeed+int64(mi))), m.dests, m.chainLen)
			if err != nil {
				return task, 0, err
			}
			a.fixed[mi] = pin.Chain
			task.Chain = pin.Chain
		}
	}
	hold := time.Duration(float64(a.spec.holdMean) * a.rng.ExpFloat64())
	return task, hold, nil
}

// batch draws n arrivals as request bodies. With rate > 0 they are
// spaced by Poisson gaps at that rate; with rate 0 all are due at once.
func (a *arrivals) batch(n int, rate float64) (offsets []time.Duration, bodies [][]byte, holds []time.Duration, tasks []nfv.Task, err error) {
	var t time.Duration
	for i := 0; i < n; i++ {
		task, hold, err := a.next()
		if err != nil {
			return nil, nil, nil, nil, err
		}
		if rate > 0 {
			t += time.Duration(float64(time.Second) * a.rng.ExpFloat64() / rate)
		}
		body, err := json.Marshal(task)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		offsets, bodies, holds, tasks = append(offsets, t), append(bodies, body), append(holds, hold), append(tasks, task)
	}
	return offsets, bodies, holds, tasks, nil
}

// prefillCount is the steady-state live-session count (Little's law:
// rate × mean hold), admitted before measuring so the measured phase
// starts at steady state instead of an empty network.
func (s admitSpec) prefillCount() int { return int(s.nominal * s.holdMean.Seconds()) }

// prefillArrivals is the prefill's input stream. Like the topology it
// is fixed by the network seed, not the run seed: which instances the
// first sessions deploy steers the placement every later session
// reuses, and a per-seed start spread admit-shared's mean cost over
// several such placements.
func prefillArrivals(spec admitSpec, net *nfv.Network) *arrivals {
	return newArrivals(spec, net, spec.netSeed)
}

// admitEnv is one admission run's started server and generator.
type admitEnv struct {
	spec    admitSpec
	netFile string
	blob    []byte
	net     *nfv.Network
	srv     *server
	gen     *gen
	arr     *arrivals
	walDirs []string
	probe   ledger // the set-up probe's admission on the kept server
}

func (e *admitEnv) cleanup() {
	if e.gen != nil {
		e.gen.close()
	}
	if e.srv != nil {
		e.srv.kill()
	}
	for _, d := range e.walDirs {
		_ = os.RemoveAll(d)
	}
}

// startAdmitEnv writes the workload network, starts sftserve probes
// times (timing each from process start to its first answered
// admission), keeps the last server and attaches the generator to it.
func startAdmitEnv(cfg config, rep *report, spec admitSpec, probes int) (*admitEnv, error) {
	if cfg.serverBin == "" {
		return nil, fmt.Errorf("-server-bin is required for %s", spec.name)
	}
	blob, err := genNetwork(spec.nodes, spec.netSeed)
	if err != nil {
		return nil, err
	}
	e := &admitEnv{spec: spec, blob: blob, netFile: filepath.Join(cfg.workDir, spec.name+"-network.json")}
	if err := os.WriteFile(e.netFile, blob, 0o644); err != nil {
		return nil, err
	}
	if e.net, err = decodeNetwork(blob); err != nil {
		return nil, err
	}
	e.arr = newArrivals(spec, e.net, cfg.seed)
	// The probe task comes from its own stream so the measured stream
	// is the same whatever the probe count.
	probeTask, _, err := newArrivals(spec, e.net, cfg.seed^0x5e7).next()
	if err != nil {
		return nil, err
	}
	probeBody, _ := json.Marshal(probeTask)
	var raw, norm []time.Duration
	hs := newHostSpeed()
	for i := 0; i < probes; i++ {
		var walDir string
		if spec.wal {
			walDir = filepath.Join(cfg.workDir, fmt.Sprintf("wal-%s-%d-%d", spec.name, os.Getpid(), i))
			if err := os.RemoveAll(walDir); err != nil {
				return nil, err
			}
			e.walDirs = append(e.walDirs, walDir)
		}
		start := time.Now()
		srv, err := startServer(cfg.serverBin, e.netFile, walDir)
		if err != nil {
			e.cleanup()
			return nil, err
		}
		ar, status, err := postAdmit(srv.base, probeBody)
		d := time.Since(start)
		rep.Attempted++
		if err != nil || status != http.StatusCreated {
			srv.kill()
			e.cleanup()
			return nil, fmt.Errorf("set-up admission: status %d: %v", status, err)
		}
		hs.ref()
		raw, norm = append(raw, d), append(norm, hs.norm(d))
		if i < probes-1 {
			if err := srv.stop(); err != nil {
				e.cleanup()
				return nil, fmt.Errorf("stop probe server: %w", err)
			}
			continue
		}
		// Release the probe's session: left live, its instances would
		// stay deployed all run and steer every later embedding.
		if status, err := deleteSession(srv.base, ar.ID); err != nil || status != http.StatusOK {
			srv.kill()
			e.cleanup()
			return nil, fmt.Errorf("release set-up session: status %d: %v", status, err)
		}
		rep.Attempted++
		e.srv = srv
		e.probe = ledger{Admits: 1, Releases: 1, Cost: ar.Cost}
	}
	recordSetup(rep, raw, norm)
	e.gen = newGen(e.srv.base, runtime.NumCPU())
	return e, nil
}

func durationsSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// postAdmit sends one admission on a private connection.
func postAdmit(base string, body []byte) (admitResponse, int, error) {
	c := &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	var ar admitResponse
	resp, err := c.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return ar, 0, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return ar, resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusCreated {
		err = json.Unmarshal(blob, &ar)
	}
	return ar, resp.StatusCode, err
}

// deleteSession releases one session on a private connection.
func deleteSession(base string, id int64) (int, error) {
	c := &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+strconv.FormatInt(id, 10), nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// prefill admits the steady-state population all at once.
func (e *admitEnv) prefill() (*phase, error) {
	offs, bodies, holds, _, err := prefillArrivals(e.spec, e.net).batch(e.spec.prefillCount(), 0)
	if err != nil {
		return nil, err
	}
	p := e.gen.runPhase("prefill", time.Now(), offs, bodies, holds, time.Second)
	// Releases that fell due while the prefill burst occupied the
	// connections are still queued; measure from an idle generator.
	e.gen.waitIdle()
	return p, nil
}

// openLoop runs n Poisson arrivals at rate, starting shortly from now.
func (e *admitEnv) openLoop(name string, n int, rate float64) (*phase, error) {
	offs, bodies, holds, _, err := e.arr.batch(n, rate)
	if err != nil {
		return nil, err
	}
	span := time.Duration(float64(n) / rate * float64(time.Second))
	return e.gen.runPhase(name, time.Now().Add(20*time.Millisecond), offs, bodies, holds, span), nil
}

// phaseStats classifies one phase's samples.
type phaseStats struct {
	offered, admitted, rejected, failed int
	lat, rtt, wait, solve, overhead     []float64
	all                                 []float64 // lat including late windows
	costSum                             float64
	windows                             []window
	invalid                             int
}

// analyze summarises a finished phase. Latencies of requests due in a
// window where the generator ran late are left out (and counted);
// failed requests count as missing the latency limit.
func analyze(p *phase) phaseStats {
	ws := p.finishWindows()
	st := phaseStats{windows: ws}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.samples {
		st.offered++
		late := ws[p.window(s.due).Index].Invalid
		switch s.status {
		case http.StatusCreated:
			st.admitted++
			st.costSum += s.cost
			st.wait = append(st.wait, s.waitMs)
			st.solve = append(st.solve, s.solveMs)
			st.overhead = append(st.overhead, s.rttMs-s.waitMs-s.solveMs)
		case http.StatusConflict:
			st.rejected++
		default:
			st.failed++
		}
		l := s.latMs
		if s.status != http.StatusCreated && s.status != http.StatusConflict {
			l = math.Inf(1)
		}
		st.all = append(st.all, l)
		if late {
			st.invalid++
			continue
		}
		st.lat = append(st.lat, l)
		st.rtt = append(st.rtt, s.rttMs)
	}
	return st
}

// merge appends another phase's statistics.
func (st *phaseStats) merge(o phaseStats) {
	st.offered += o.offered
	st.admitted += o.admitted
	st.rejected += o.rejected
	st.failed += o.failed
	st.lat = append(st.lat, o.lat...)
	st.rtt = append(st.rtt, o.rtt...)
	st.wait = append(st.wait, o.wait...)
	st.solve = append(st.solve, o.solve...)
	st.overhead = append(st.overhead, o.overhead...)
	st.all = append(st.all, o.all...)
	st.costSum += o.costSum
	st.windows = append(st.windows, o.windows...)
	st.invalid += o.invalid
}

// nominalPhase offers n arrivals at the nominal rate. Samples from
// windows where the generator ran late do not count as server latency,
// so while fewer than n valid samples are in hand it offers more, in
// chunks, until the phase has run 1.5 times its planned length. The
// phases it ran are returned with their merged statistics.
func (e *admitEnv) nominalPhase(name string, n int) (phaseStats, []*phase, error) {
	var (
		st     phaseStats
		phases []*phase
		start  = time.Now()
		budget = time.Duration(1.5 * float64(n) / e.spec.nominal * float64(time.Second))
	)
	for want := n; want > 0; want = n - len(st.lat) {
		if len(phases) > 0 {
			if time.Since(start) >= budget {
				break
			}
			want = max(want, 500)
		}
		p, err := e.openLoop(fmt.Sprintf("%s.%d", name, len(phases)), want, e.spec.nominal)
		if err != nil {
			return st, phases, err
		}
		phases = append(phases, p)
		st.merge(analyze(p))
	}
	return st, phases, nil
}

// verdict turns a phase into a knee-search step outcome.
func verdict(p *phase, rate float64) stepVerdict {
	st := analyze(p)
	// A step is judged on the samples of the windows in which the
	// generator kept its schedule; it cannot pass if those are fewer
	// than half of its arrivals.
	v := stepVerdict{Rate: rate, Lat: summarize(st.lat), Failures: st.failed, Invalid: 2*st.invalid > st.offered}
	p.mu.Lock()
	var last time.Time
	for _, s := range p.samples {
		if s.done.After(last) {
			last = s.done
		}
	}
	var backlogs []int
	for _, w := range p.windows {
		backlogs = append(backlogs, w.backlogs...)
	}
	p.mu.Unlock()
	if d := last.Sub(p.start); d > 0 {
		v.Achieved = float64(st.admitted+st.rejected) / d.Seconds()
	}
	v.Growing = backlogGrowing(backlogs, rate)
	v.OK = meetsSLO(v, sloMs)
	return v
}

// backlogGrowing reports a generator backlog that rose through a step
// to more requests than the connections can clear within the latency
// limit: its mean over the last third of the step exceeds both twice
// the mean over the first third and rate × SLO.
func backlogGrowing(b []int, rate float64) bool {
	n := len(b) / 3
	if n == 0 {
		return false
	}
	var head, tail float64
	for i := 0; i < n; i++ {
		head += float64(b[i])
		tail += float64(b[len(b)-1-i])
	}
	head, tail = head/float64(n), tail/float64(n)
	return tail > 2*head && tail > rate*sloMs/1000
}

// nominalCount is the arrivals of the nominal-rate phase: 1000 per four
// seconds of -seconds (7500 at the default 30 s), so that the reported
// p99 is the median of several blocks of 1000, and at least the 1000
// one supported p99 needs.
func nominalCount(seconds int) int {
	return max(1000, seconds*250)
}

// kneeStepCount is the arrivals per knee step: enough for a supported
// p99 at every rate (1200 at the default 30 s).
func kneeStepCount(seconds int) int { return max(1000, 40*seconds) }

// runAdmit is an admission workload's end-to-end run.
func runAdmit(cfg config, rep *report, spec admitSpec) error {
	e, err := startAdmitEnv(cfg, rep, spec, setupProbes)
	if err != nil {
		return err
	}
	defer e.cleanup()
	rep.Provenance.Connections = e.gen.workers
	rep.Provenance.NominalRate = spec.nominal
	rep.Provenance.SLOMs = sloMs
	rep.Provenance.ServerGOMAXPROCS = fmt.Sprintf("Go default (%d CPUs)", runtime.NumCPU())

	pre, err := e.prefill()
	if err != nil {
		return err
	}
	preSt := analyze(pre)
	cpu0, err := e.srv.cpuTime()
	if err != nil {
		return err
	}
	st, nomPhases, err := e.nominalPhase("nominal", nominalCount(cfg.seconds))
	if err != nil {
		return err
	}
	e.gen.waitIdle()
	cpu1, err := e.srv.cpuTime()
	if err != nil {
		return err
	}
	rep.Windows = append(rep.Windows, st.windows...)
	nomV := stepVerdict{Rate: spec.nominal, Lat: summarize(st.lat), Failures: st.failed, Invalid: 2*st.invalid > st.offered}
	for _, p := range nomPhases {
		v := verdict(p, spec.nominal)
		nomV.Growing = nomV.Growing || v.Growing
	}
	nomV.OK = meetsSLO(nomV, sloMs)

	// Knee: bisect the offered rate down to 5% resolution.
	stepN := kneeStepCount(cfg.seconds)
	var kneeFailed int
	var kneeErr error
	// No step starts later than 25 s after the nominal phase, so a host
	// too noisy to certify any rate cannot stretch the run.
	kneeDeadline := time.Now().Add(25 * time.Second)
	probe := func(rate float64) stepVerdict {
		if kneeErr != nil || time.Now().After(kneeDeadline) {
			return stepVerdict{Rate: rate, Skipped: true}
		}
		e.gen.waitIdle()
		p, err := e.openLoop(fmt.Sprintf("knee@%.0f", rate), stepN, rate)
		if err != nil {
			kneeErr = err
			return stepVerdict{Rate: rate}
		}
		v := verdict(p, rate)
		kneeFailed += v.Failures
		rep.Attempted += stepN
		return v
	}
	knee, steps := searchKnee(probe, spec.nominal, 2.5*spec.nominal, nomV.OK, 0.05, spec.nominal/2, 16*spec.nominal, 8)
	if kneeErr != nil {
		return kneeErr
	}
	rep.KneeSteps = steps

	e.gen.close()
	if err := e.gen.checkCaps(); err != nil {
		return err
	}
	led := e.gen.ledger
	led.Admits += e.probe.Admits
	led.Releases += e.probe.Releases
	led.Cost += e.probe.Cost
	var ss serverStats
	if err := getJSON(&http.Client{Timeout: 10 * time.Second}, e.srv.base+"/v1/sessions", &ss); err != nil {
		return err
	}
	for _, m := range reconcile(led, ss) {
		rep.fail("reconcile: %s", m)
	}
	rss, err := e.srv.peakRSSMB()
	if err != nil {
		return err
	}
	if err := e.srv.stop(); err != nil {
		return err
	}
	e.srv = nil

	rep.Attempted += preSt.offered + st.offered + e.gen.relSent
	rep.Failed += preSt.failed + st.failed + kneeFailed + e.gen.relFail
	latSamples := st.lat
	if !summarize(latSamples).P99Supported {
		// The generator ran late in so many windows that the rest cannot
		// support a p99: report over every sample, and say so.
		latSamples = st.all
		rep.Named["latency_includes_late_windows"] = metric{1, "count"}
	}
	lat := summarize(latSamples)
	rep.Samples["admit_ms"] = lat
	perCPU := float64(st.admitted+st.rejected) / (cpu1 - cpu0).Seconds()
	failShare := float64(rep.Failed) / float64(rep.Attempted)
	cost := st.costSum / float64(max(st.admitted, 1))
	rep.set("latency_p50_ms", lat.P50, "ms")
	p99, blocks := blockP99(latSamples)
	rep.Named["admit_p99_blocks"] = metric{float64(blocks), "count"}
	rep.set("latency_p99_ms", p99, "ms")
	rep.set("cost_mean", cost, "cost")
	rep.set("admitted_share", float64(st.admitted)/float64(st.offered), "share")
	rep.set("ok_share", 1-failShare, "share")
	rep.set("peak_rss_mb", rss, "MB")
	rep.Named["setup_s"] = rep.Metrics["setup_s"]
	rep.Named["knee_adm_s"] = metric{knee, "adm/s"}
	rep.Named["admit_per_cpu_s"] = metric{perCPU, "1/s"}
	rep.Named["admit_p50_ms"] = metric{lat.P50, "ms"}
	rep.Named["admit_p99_ms"] = metric{p99, "ms"}
	rep.Named["cost_mean"] = metric{cost, "cost"}
	rep.Named["admitted_share"] = metric{float64(st.admitted) / float64(st.offered), "share"}
	rep.Named["reject_share"] = metric{float64(st.rejected) / float64(st.offered), "share"}
	rep.Named["fail_share"] = metric{failShare, "share"}
	rep.Named["peak_rss_mb"] = metric{rss, "MB"}
	rep.Named["live_sessions_end"] = metric{float64(ss.Active), "count"}
	rep.Named["late_window_samples"] = metric{float64(st.invalid), "count"}
	return nil
}
