package main

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"sftree/internal/conformance"
	"sftree/internal/core"
	"sftree/internal/dynamic"
	"sftree/internal/nfv"
	"sftree/internal/wal"
)

// traceAdmit is an admission workload's traced run, in two parts.
//
// Part A drives sftserve like the end-to-end run, at the nominal rate
// only: the first half untraced, the second half with client-side
// spans around each request, so trace.overhead_share compares the two
// halves' median latency. The server and queue layers are timed here
// (round trips, and the wait_ms/solve_ms split the server reports), and
// the session, cache and WAL counters are read from the server.
//
// Part B replays the same seeded arrivals in-process, in virtual time
// (holds elapse between arrivals without waiting), through the session
// manager, the WAL and each solver layer's public calls.
func traceAdmit(cfg config, rep *report, spec admitSpec) error {
	if err := traceAdmitServer(cfg, rep, spec); err != nil {
		return err
	}
	return traceAdmitInProcess(cfg, rep, spec)
}

func traceAdmitServer(cfg config, rep *report, spec admitSpec) error {
	e, err := startAdmitEnv(cfg, rep, spec, 1)
	if err != nil {
		return err
	}
	defer e.cleanup()
	if _, err := e.prefill(); err != nil {
		return err
	}
	n := nominalCount(cfg.seconds) / 2
	plain, err := e.openLoop("untraced", n, spec.nominal)
	if err != nil {
		return err
	}
	tr := newTracer()
	e.gen.tr.Store(tr)
	traced, err := e.openLoop("traced", n, spec.nominal)
	if err != nil {
		return err
	}
	e.gen.tr.Store(nil)
	e.gen.close()
	if err := e.gen.checkCaps(); err != nil {
		return err
	}
	ps, ts := analyze(plain), analyze(traced)
	rep.Windows = append(append(rep.Windows, ps.windows...), ts.windows...)
	rep.Attempted += ps.offered + ts.offered + e.gen.relSent
	rep.Failed += ps.failed + ts.failed + e.gen.relFail

	rep.putDist("server.rtt_p50_ms", ts.rtt, "ms")
	rep.putDist("server.rtt_p99_ms", ts.rtt, "ms")
	rep.putDist("server.overhead_p50_ms", ts.overhead, "ms")
	rep.putDist("queue.wait_p50_ms", ts.wait, "ms")
	rep.putDist("queue.wait_p99_ms", ts.wait, "ms")
	rep.putSpans("server.release_p50_ms", tr.durations()["server.release"], ms, "ms")
	var lags []float64
	backlog := 0
	for _, w := range append(ps.windows, ts.windows...) {
		backlog = max(backlog, w.BacklogMax)
	}
	for _, p := range []*phase{plain, traced} {
		p.mu.Lock()
		for _, w := range p.windows {
			lags = append(lags, w.lags...)
		}
		p.mu.Unlock()
	}
	rep.putDist("loadgen.lag_p99_ms", lags, "ms")
	rep.set("loadgen.backlog_max", float64(backlog), "count")
	b, t := summarize(ps.lat).P50, summarize(ts.lat).P50
	rep.set("trace.overhead_share", (t-b)/b, "share")

	client := &http.Client{Timeout: 10 * time.Second}
	var ss serverStats
	if err := getJSON(client, e.srv.base+"/v1/sessions", &ss); err != nil {
		return err
	}
	var md metricsDoc
	if err := getJSON(client, e.srv.base+"/metrics", &md); err != nil {
		return err
	}
	led := e.gen.ledger
	led.Admits += e.probe.Admits
	led.Releases += e.probe.Releases
	led.Cost += e.probe.Cost
	for _, m := range reconcile(led, ss) {
		rep.fail("reconcile: %s", m)
	}
	rep.set("queue.coalesced_share", share(ss.CoalescedSolves, ss.Admitted), "share")
	rep.set("dynamic.conflict_share", share(ss.CommitConflicts, ss.Admitted), "share")
	rep.set("dynamic.serialized_fallbacks", float64(ss.SerializedFallbacks), "count")
	rep.set("wal.records_per_admit", share(ss.WALRecords, ss.Admitted), "count")
	if !spec.wal {
		rep.NotMeasured["wal.records_per_admit"] = "this workload's server runs without a WAL; wal.append is timed on a probe log in part B"
	}
	sh, sm := md.value("scaffold_cache_hits"), md.value("scaffold_cache_misses")
	rep.set("mod.scaffold_hit_share", share(sh, sh+sm), "share")
	mh, mm := md.value("metric_cache_hits"), md.value("metric_cache_misses")
	rep.set("nfv.metric_cache_hit_share", share(mh, mh+mm), "share")
	if err := e.srv.stop(); err != nil {
		return err
	}
	e.srv = nil
	rep.SelfTimeMs = tr.selfTimeByName()
	return tr.write(filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-seed%d-server.jsonl", cfg.workload, cfg.seed)))
}

// release is a live in-process session and its virtual release time.
type release struct {
	at time.Duration
	id dynamic.SessionID
}

type releaseHeap []release

func (h releaseHeap) Len() int           { return len(h) }
func (h releaseHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h releaseHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *releaseHeap) Push(x any)        { *h = append(*h, x.(release)) }
func (h *releaseHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func traceAdmitInProcess(cfg config, rep *report, spec admitSpec) error {
	blob, err := genNetwork(spec.nodes, spec.netSeed)
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
	mgr := dynamic.NewManager(net, core.Options{})
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("wal-trace-%s-%d", spec.name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if spec.wal {
		l, _, err := wal.Open(filepath.Join(dir, "manager"), wal.Config{Policy: wal.SyncAlways})
		if err != nil {
			return err
		}
		defer l.Close()
		mgr.AttachWAL(l)
	}
	// A second log, fsync always, receives the same admit and release
	// records so the append itself is timed from here.
	probeLog, _, err := wal.Open(filepath.Join(dir, "probe"), wal.Config{Policy: wal.SyncAlways})
	if err != nil {
		return err
	}
	defer probeLog.Close()

	arr, pre := newArrivals(spec, net, cfg.seed), prefillArrivals(spec, net)
	tr := newTracer()
	var (
		live       releaseHeap
		vt         time.Duration
		candidates []float64
		lastTasks  []nfv.Task
		prefill    = spec.prefillCount()
		budget     = time.Duration(cfg.seconds) * time.Second / 2
		start      = time.Now()
		ctx        = context.Background()
		steady     int
	)
	for i := 0; i < prefill || time.Since(start) < budget || steady < 200; i++ {
		measured := i >= prefill
		src := pre
		if measured {
			src = arr
		}
		task, hold, err := src.next()
		if err != nil {
			return err
		}
		if measured {
			vt += time.Duration(float64(time.Second) * arr.rng.ExpFloat64() / spec.nominal)
			steady++
		}
		req := int64(i)
		root := -1
		if measured {
			root = tr.begin("arrival", -1, req)
		}
		for len(live) > 0 && live[0].at <= vt {
			r := heap.Pop(&live).(release)
			s := beginIf(tr, measured, "dynamic.release", root, int64(r.id))
			err := mgr.Release(r.id)
			tr.end(s)
			rep.Attempted++
			if err != nil {
				rep.fail("release %d: %v", r.id, err)
				continue
			}
			s = beginIf(tr, measured, "wal.append", root, int64(r.id))
			_, err = probeLog.Append(&wal.Record{Type: wal.RecRelease, Session: int64(r.id)})
			tr.end(s)
			if err != nil {
				return err
			}
		}
		if measured {
			s := tr.begin("dynamic.clone", root, req)
			snap := mgr.CloneNetwork()
			tr.end(s)
			res, err := layerCalls(tr, root, req, snap, task)
			switch {
			case err == nil:
				candidates = append(candidates, float64(res.CandidatesTried))
				if cerr := checkSolve(snap, res); cerr != nil {
					rep.fail("arrival %d: %v", i, cerr)
				}
			case errors.Is(err, nfv.ErrInvalidTask):
				rep.fail("arrival %d: %v", i, err)
			}
			lastTasks = append(lastTasks, task)
			if len(lastTasks) > 200 {
				lastTasks = lastTasks[1:]
			}
		}
		s := beginIf(tr, measured, "dynamic.admit", root, req)
		sess, err := mgr.AdmitCtx(ctx, task)
		tr.end(s)
		rep.Attempted++
		if err != nil {
			if !errors.Is(err, dynamic.ErrRejected) {
				rep.fail("admit %d: %v", i, err)
			}
		} else {
			s = beginIf(tr, measured, "wal.append", root, req)
			_, err = probeLog.Append(&wal.Record{
				Type:      wal.RecAdmit,
				Session:   int64(sess.ID),
				Embedding: sess.Result.Embedding,
				FinalCost: sess.Result.FinalCost,
				Uses:      conformance.SortedInstanceKeys(sess.Result.Embedding),
			})
			tr.end(s)
			if err != nil {
				return err
			}
			if hold > 0 {
				heap.Push(&live, release{at: vt + hold, id: sess.ID})
			}
		}
		tr.end(root)
	}

	// End-of-run oracle: every live session is still served by
	// deployed instances over live links, and the refcount ledger
	// re-derives from the sessions.
	for _, s := range mgr.Sessions() {
		if err := conformance.CheckLive(mgr.Network(), s.Result.Embedding); err != nil {
			rep.fail("session %d: CheckLive: %v", s.ID, err)
		}
	}
	if err := mgr.VerifyRefs(); err != nil {
		rep.fail("refcounts: %v", err)
	}

	d := tr.durations()
	rep.putSpans("dynamic.admit_p50_ms", d["dynamic.admit"], ms, "ms")
	rep.putSpans("dynamic.admit_p99_ms", d["dynamic.admit"], ms, "ms")
	rep.putSpans("dynamic.clone_p50_us", d["dynamic.clone"], us, "us")
	rep.putSpans("dynamic.release_p50_us", d["dynamic.release"], us, "us")
	rep.putSpans("wal.append_p50_us", d["wal.append"], us, "us")
	rep.putSpans("wal.append_p99_us", d["wal.append"], us, "us")
	solverLayerMetrics(rep, tr, candidates)
	if err := allocsPerSolve(rep, mgr.CloneNetwork(), lastTasks); err != nil {
		return err
	}
	rep.Named["live_sessions_end"] = metric{float64(mgr.Active()), "count"}
	for k, v := range tr.selfTimeByName() {
		if rep.SelfTimeMs == nil {
			rep.SelfTimeMs = map[string]float64{}
		}
		rep.SelfTimeMs["inprocess."+k] = v
	}
	return tr.write(filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-seed%d-inprocess.jsonl", cfg.workload, cfg.seed)))
}

// beginIf opens a span only for measured (post-prefill) arrivals.
func beginIf(tr *tracer, on bool, name string, parent int, req int64) int {
	if !on {
		return -1
	}
	return tr.begin(name, parent, req)
}
