package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for it to be supported by the sample: a p99 needs at least 1000
// samples, a p99.9 at least 10000.
const minBeyond = 10

// tailCandidates are the percentiles tailPercentile chooses among,
// highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile that has at
// least minBeyond of n samples beyond it, or 0 when even the median is
// unsupported.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			return p
		}
	}
	return 0
}

// quantile is the nearest-rank quantile (0 < q <= 1) of an ascending
// slice: the smallest value with at least q·n samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// dist is a timing sample with the summary the report prints: median,
// the p99 the metric names, the highest percentile the sample supports
// and the sample count behind them.
type dist struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	P99     float64 `json:"p99"`
	Mean    float64 `json:"mean"`
	Tail    float64 `json:"tail_pct"`   // highest supported percentile
	TailVal float64 `json:"tail_value"` // the value at Tail
	// P99Supported is false when fewer than 1000 samples back the p99.
	P99Supported bool `json:"p99_supported"`
}

func summarize(vals []float64) dist {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	d := dist{N: len(s)}
	if len(s) == 0 {
		return d
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	d.Mean = sum / float64(len(s))
	d.P50 = quantile(s, 0.50)
	d.P99 = quantile(s, 0.99)
	d.Tail = tailPercentile(len(s))
	if d.Tail > 0 {
		d.TailVal = quantile(s, d.Tail/100)
	}
	d.P99Supported = d.Tail >= 99
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// stepVerdict is the outcome of one offered-rate step of the knee
// search.
type stepVerdict struct {
	Rate     float64 `json:"offered_per_s"`
	Achieved float64 `json:"achieved_per_s"`
	Lat      dist    `json:"latency_ms"`
	Failures int     `json:"failures"`
	// Growing marks a backlog that rose through the step; Invalid a
	// step in which the generator itself ran late.
	Growing bool `json:"backlog_growing"`
	Invalid bool `json:"generator_late"`
	// Skipped marks a step not run because the run was out of time.
	Skipped bool `json:"skipped,omitempty"`
	OK      bool `json:"ok"`
}

// meetsSLO is the knee criterion for one step: p99 within the limit,
// no failure, a generator that kept its schedule, and no backlog that
// keeps rising.
func meetsSLO(v stepVerdict, sloMs float64) bool {
	return v.Lat.N > 0 && v.Lat.P99 <= sloMs && v.Failures == 0 && !v.Growing && !v.Invalid
}

// searchKnee finds the highest offered rate whose step meets the SLO,
// by geometric bisection of the bracket [lo, hi] until hi/lo ≤
// 1+resolution. loOK says whether lo is already known to pass; if not
// and it fails, the bracket halves downward, but not below minRate. hi
// is taken to fail until the bisection closes in on it; it is then
// probed, and if it passes the bracket doubles upward (up to maxRate).
// The search stops after maxSteps probes, or at the first step the
// probe reports Skipped (out of time), and returns the highest passing
// rate probed (lo when loOK and nothing higher passed, 0 if no rate
// passed).
func searchKnee(probe func(rate float64) stepVerdict, lo, hi float64, loOK bool, resolution, minRate, maxRate float64, maxSteps int) (float64, []stepVerdict) {
	var steps []stepVerdict
	stopped := false
	try := func(r float64) bool {
		v := probe(r)
		steps = append(steps, v)
		stopped = stopped || v.Skipped
		return v.OK
	}
	more := func() bool { return !stopped && len(steps) < maxSteps }
	knee := 0.0
	if loOK {
		knee = lo
	}
	hiFails := false // hi has been probed and failed
	for !loOK && more() && lo >= minRate {
		if try(lo) {
			knee, loOK = lo, true
			break
		}
		hi, lo, hiFails = lo, lo/2, true
	}
	for loOK && more() {
		if hi/lo > 1+resolution {
			mid := math.Sqrt(lo * hi)
			if try(mid) {
				knee, lo = mid, mid
			} else {
				hi, hiFails = mid, true
			}
			continue
		}
		if hiFails || hi >= maxRate {
			break
		}
		if !try(hi) {
			break
		}
		knee, lo, hi = hi, hi, math.Min(2*hi, maxRate)
	}
	return knee, steps
}

// blockP99 splits samples (in arrival order) into consecutive blocks
// of at least 1000, the fewest that support a p99 each, and returns the
// median of the block p99s and the block count. One disturbance (a GC
// pause, a host stall) then moves one block's p99, not the reported
// value. With fewer than 1000 samples it returns the plain p99.
func blockP99(samples []float64) (float64, int) {
	k := len(samples) / 1000
	if k <= 1 {
		return summarize(samples).P99, 1
	}
	p := make([]float64, k)
	for i := 0; i < k; i++ {
		lo, hi := i*len(samples)/k, (i+1)*len(samples)/k
		p[i] = summarize(samples[lo:hi]).P99
	}
	sort.Float64s(p)
	if k%2 == 1 {
		return p[k/2], k
	}
	return (p[k/2-1] + p[k/2]) / 2, k
}

// span is one timed call recorded by the traced run.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns each span's self time: its duration minus the
// part of its interval covered by its children (overlapping children
// count once, and a child's time outside its parent is not
// subtracted).
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		out[i] = s.dur() - covered
	}
	return out
}

// ledger is what the generator itself observed of the session API:
// every acknowledged admission, release and the summed admission
// cost. reconcile compares it with the server's own counters.
type ledger struct {
	Admits   int     `json:"acked_admits"`
	Releases int     `json:"acked_releases"`
	Cost     float64 `json:"acked_cost"`
}

// serverStats is the subset of GET /v1/sessions the benchmark reads.
type serverStats struct {
	Admitted            int     `json:"admitted"`
	Rejected            int     `json:"rejected"`
	Active              int     `json:"active"`
	AdmittedCost        float64 `json:"admitted_cost"`
	CommitConflicts     int     `json:"commit_conflicts"`
	AdmitRetries        int     `json:"admit_retries"`
	SerializedFallbacks int     `json:"serialized_fallbacks"`
	CoalescedSolves     int     `json:"coalesced_solves"`
	WALRecords          int     `json:"wal_records"`
}

// reconcile returns the mismatches between the generator's ledger and
// the server's counters after draining: every acked admit must be
// counted, every acked release must have ended a session, and the
// summed admission cost must agree to rounding.
func reconcile(l ledger, s serverStats) []string {
	var bad []string
	if s.Admitted != l.Admits {
		bad = append(bad, fmt.Sprintf("admitted: server %d != acked %d", s.Admitted, l.Admits))
	}
	if want := l.Admits - l.Releases; s.Active != want {
		bad = append(bad, fmt.Sprintf("active: server %d != acked admits-releases %d", s.Active, want))
	}
	if math.Abs(s.AdmittedCost-l.Cost) > 1e-6*math.Max(1, math.Abs(l.Cost)) {
		bad = append(bad, fmt.Sprintf("admitted_cost: server %.9g != acked %.9g", s.AdmittedCost, l.Cost))
	}
	return bad
}
