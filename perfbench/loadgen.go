package main

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// lateLimit is the generator lag beyond which a window is flagged
// invalid: a tenth of the latency SLO. Latency in such a window says
// more about the generator than about the server.
const lateLimit = 5 * time.Millisecond

type opKind int

const (
	opAdmit opKind = iota
	opRelease
)

// op is one scheduled request.
type op struct {
	kind  opKind
	due   time.Time
	body  []byte        // admit: the task JSON
	hold  time.Duration // admit: release this long after the ack (0 = never)
	sid   int64         // release: the session
	phase *phase        // admit: the phase it is accounted to
}

type opHeap []*op

func (h opHeap) Len() int           { return len(h) }
func (h opHeap) Less(i, j int) bool { return h[i].due.Before(h[j].due) }
func (h opHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *opHeap) Push(x any)        { *h = append(*h, x.(*op)) }
func (h *opHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// admitSample is one completed admission.
type admitSample struct {
	latMs, rttMs    float64 // from the scheduled send time; from the actual send
	waitMs, solveMs float64
	status          int // HTTP status, 0 for a transport error
	cost            float64
	due, done       time.Time
}

// window is one second of a phase: what was offered, what completed,
// and how late the generator ran.
type window struct {
	Phase      string  `json:"phase"`
	Index      int     `json:"index"`
	Offered    float64 `json:"offered_per_s"`
	Achieved   float64 `json:"achieved_per_s"`
	LagP99Ms   float64 `json:"lag_p99_ms"`
	BacklogMax int     `json:"backlog_max"`
	Invalid    bool    `json:"invalid"`
	lags       []float64
	backlogs   []int
}

// phase accounts one batch of scheduled admissions.
type phase struct {
	name     string
	start    time.Time
	span     time.Duration
	mu       sync.Mutex
	samples  []admitSample
	windows  []*window
	finished []window // set by finishWindows once the phase is over
	expected int
	doneCh   chan struct{}
}

func (p *phase) window(t time.Time) *window {
	i := int(t.Sub(p.start) / time.Second)
	if i < 0 {
		i = 0
	}
	if n := int((p.span + time.Second - 1) / time.Second); i >= n {
		i = n - 1
	}
	for len(p.windows) <= i {
		p.windows = append(p.windows, &window{Phase: p.name, Index: len(p.windows)})
	}
	return p.windows[i]
}

// finishWindows computes each window's rates and validity.
func (p *phase) finishWindows() []window {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.finished != nil {
		return p.finished
	}
	for _, s := range p.samples {
		if s.status == http.StatusCreated || s.status == http.StatusConflict {
			p.window(s.done).Achieved++
		}
	}
	out := make([]window, len(p.windows))
	for i, w := range p.windows {
		secs := min(time.Second, p.span-time.Duration(i)*time.Second).Seconds()
		if secs <= 0 {
			secs = 1
		}
		w.Offered /= secs
		w.Achieved /= secs
		w.LagP99Ms = summarize(w.lags).P99
		for _, b := range w.backlogs {
			w.BacklogMax = max(w.BacklogMax, b)
		}
		w.Invalid = w.LagP99Ms > ms(lateLimit)
		out[i] = *w
	}
	p.finished = out
	return out
}

// gen is the open-loop load generator: a scheduler releases requests
// at their due times into a FIFO that a fixed set of workers drains,
// one keep-alive connection each. A request due while every connection
// is busy waits in the FIFO, and that wait counts in its latency.
type gen struct {
	base    string
	workers int
	clients []*http.Client
	tr      atomic.Pointer[tracer] // spans are recorded while set

	openConns, maxConns atomic.Int64

	mu       sync.Mutex
	cond     *sync.Cond
	future   opHeap
	ready    []*op
	closing  bool // no more scheduling: future ops are dropped
	drained  bool // scheduler exited: workers exit once ready is empty
	inflight int
	wake     chan struct{}
	wg       sync.WaitGroup

	ledgerMu sync.Mutex
	ledger   ledger
	relFail  int
	relSent  int
}

// countingConn tracks open connections so the generator can assert
// its connection cap.
type countingConn struct {
	net.Conn
	g    *gen
	once sync.Once
}

func (c *countingConn) Close() error {
	c.once.Do(func() { c.g.openConns.Add(-1) })
	return c.Conn.Close()
}

func newGen(base string, workers int) *gen {
	g := &gen{base: base, workers: workers, wake: make(chan struct{}, 1)}
	g.cond = sync.NewCond(&g.mu)
	for i := 0; i < workers; i++ {
		d := &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
		transport := &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c, err := d.DialContext(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				n := g.openConns.Add(1)
				for {
					m := g.maxConns.Load()
					if n <= m || g.maxConns.CompareAndSwap(m, n) {
						break
					}
				}
				return &countingConn{Conn: c, g: g}, nil
			},
		}
		g.clients = append(g.clients, &http.Client{Transport: transport, Timeout: 60 * time.Second})
	}
	g.wg.Add(1 + workers)
	go g.schedule()
	for i := 0; i < workers; i++ {
		go g.work(g.clients[i])
	}
	return g
}

// enqueue schedules ops (any order).
func (g *gen) enqueue(ops ...*op) {
	g.mu.Lock()
	for _, o := range ops {
		heap.Push(&g.future, o)
	}
	g.mu.Unlock()
	select {
	case g.wake <- struct{}{}:
	default:
	}
}

// schedule moves due ops from the future heap to the ready FIFO.
func (g *gen) schedule() {
	defer g.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		g.mu.Lock()
		if g.closing {
			g.drained = true
			g.future = nil
			g.cond.Broadcast()
			g.mu.Unlock()
			return
		}
		var wait time.Duration = time.Hour
		now := time.Now()
		for len(g.future) > 0 {
			next := g.future[0]
			if d := next.due.Sub(now); d > 0 {
				wait = d
				break
			}
			heap.Pop(&g.future)
			g.ready = append(g.ready, next)
			g.cond.Signal()
			if next.kind == opAdmit {
				lag := ms(now.Sub(next.due))
				backlog := len(g.ready)
				p := next.phase
				p.mu.Lock()
				w := p.window(next.due)
				w.Offered++
				w.lags = append(w.lags, lag)
				w.backlogs = append(w.backlogs, backlog)
				p.mu.Unlock()
			}
		}
		g.mu.Unlock()
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-g.wake:
		}
	}
}

// pop blocks for the next ready op; nil once the generator is drained.
func (g *gen) pop() *op {
	g.mu.Lock()
	defer g.mu.Unlock()
	for len(g.ready) == 0 && !g.drained {
		g.cond.Wait()
	}
	if len(g.ready) == 0 {
		return nil
	}
	o := g.ready[0]
	g.ready[0] = nil
	g.ready = g.ready[1:]
	g.inflight++
	return o
}

func (g *gen) work(c *http.Client) {
	defer g.wg.Done()
	for o := g.pop(); o != nil; o = g.pop() {
		if o.kind == opAdmit {
			g.admit(c, o)
		} else {
			g.release(c, o)
		}
		g.mu.Lock()
		g.inflight--
		g.mu.Unlock()
	}
}

func (g *gen) admit(c *http.Client, o *op) {
	sent := time.Now()
	resp, err := c.Post(g.base+"/v1/sessions", "application/json", bytes.NewReader(o.body))
	var (
		status int
		body   []byte
	)
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	done := time.Now()
	s := admitSample{latMs: ms(done.Sub(o.due)), rttMs: ms(done.Sub(sent)), status: status, due: o.due, done: done}
	if err != nil {
		s.status = 0
	}
	var sid int64
	if s.status == http.StatusCreated {
		var ar admitResponse
		if json.Unmarshal(body, &ar) != nil {
			s.status = -1 // undecodable success: a failed check
		} else {
			s.waitMs, s.solveMs, s.cost, sid = ar.WaitMS, ar.SolveMS, ar.Cost, ar.ID
			g.ledgerMu.Lock()
			g.ledger.Admits++
			g.ledger.Cost += ar.Cost
			g.ledgerMu.Unlock()
			if o.hold > 0 {
				g.enqueue(&op{kind: opRelease, due: done.Add(o.hold), sid: ar.ID})
			}
		}
	}
	if tr := g.tr.Load(); tr != nil {
		root := tr.add("request", -1, sid, o.due, done)
		tr.add("server.admit", root, sid, sent, done)
	}
	p := o.phase
	p.mu.Lock()
	p.samples = append(p.samples, s)
	finished := len(p.samples) == p.expected
	p.mu.Unlock()
	if finished {
		close(p.doneCh)
	}
}

func (g *gen) release(c *http.Client, o *op) {
	sent := time.Now()
	req, err := http.NewRequest(http.MethodDelete, g.base+"/v1/sessions/"+strconv.FormatInt(o.sid, 10), nil)
	var resp *http.Response
	if err == nil {
		resp, err = c.Do(req)
	}
	ok := false
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ok = resp.StatusCode == http.StatusOK
	}
	done := time.Now()
	if tr := g.tr.Load(); tr != nil {
		root := tr.add("request", -1, o.sid, o.due, done)
		tr.add("server.release", root, o.sid, sent, done)
	}
	g.ledgerMu.Lock()
	g.relSent++
	if ok {
		g.ledger.Releases++
	} else {
		g.relFail++
	}
	g.ledgerMu.Unlock()
}

// runPhase schedules one phase's admissions at start+offset and waits
// until every one of them has completed.
func (g *gen) runPhase(name string, start time.Time, offsets []time.Duration, bodies [][]byte, holds []time.Duration, span time.Duration) *phase {
	p := &phase{name: name, start: start, span: span, expected: len(offsets), doneCh: make(chan struct{})}
	ops := make([]*op, len(offsets))
	for i := range offsets {
		ops[i] = &op{kind: opAdmit, due: start.Add(offsets[i]), body: bodies[i], hold: holds[i], phase: p}
	}
	if len(ops) == 0 {
		close(p.doneCh)
		return p
	}
	g.enqueue(ops...)
	<-p.doneCh
	return p
}

// waitIdle returns once no request is queued or in flight.
func (g *gen) waitIdle() {
	for {
		g.mu.Lock()
		idle := len(g.ready) == 0 && g.inflight == 0
		g.mu.Unlock()
		if idle {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close stops scheduling (releases not yet due are dropped), lets the
// workers finish what is ready and waits for every goroutine.
func (g *gen) close() {
	g.mu.Lock()
	g.closing = true
	g.mu.Unlock()
	select {
	case g.wake <- struct{}{}:
	default:
	}
	g.wg.Wait()
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// checkCaps asserts the generator's connection cap.
func (g *gen) checkCaps() error {
	if m := g.maxConns.Load(); m > int64(g.workers) {
		return fmt.Errorf("generator opened %d concurrent connections, cap %d", m, g.workers)
	}
	return nil
}
