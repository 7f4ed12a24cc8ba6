package main

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{9, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	d := summarize(make([]float64, 999))
	if d.P99Supported || d.Tail != 95 {
		t.Errorf("999 samples: P99Supported=%v Tail=%v, want false 95", d.P99Supported, d.Tail)
	}
	if d := summarize(make([]float64, 1000)); !d.P99Supported {
		t.Error("1000 samples should support p99")
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if q := quantile(s, 0.5); q != 50 {
		t.Errorf("p50 = %v, want 50", q)
	}
	if q := quantile(s, 0.99); q != 99 {
		t.Errorf("p99 = %v, want 99", q)
	}
}

// twoServer simulates a FIFO queue in front of two identical servers
// with exponential service times (mean meanMs) under n Poisson
// arrivals at the given rate, and returns the p99 sojourn time in ms.
// The same seed gives common random numbers at every rate, so the p99
// is monotone in the rate and the true knee is well defined.
func twoServer(rate, meanMs float64, n int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	var now float64
	free := [2]float64{}
	soj := make([]float64, n)
	for i := 0; i < n; i++ {
		now += rng.ExpFloat64() / rate * 1000
		svc := rng.ExpFloat64() * meanMs
		k := 0
		if free[1] < free[0] {
			k = 1
		}
		start := math.Max(now, free[k])
		free[k] = start + svc
		soj[i] = free[k] - now
	}
	sort.Float64s(soj)
	return quantile(soj, 0.99)
}

func TestSearchKneeOnTwoServerModel(t *testing.T) {
	const (
		meanMs = 4.0 // capacity 500/s
		slo    = 50.0
		n      = 4000
		res    = 0.05
	)
	probe := func(rate float64) stepVerdict {
		v := stepVerdict{Rate: rate, Lat: dist{N: n, P99: twoServer(rate, meanMs, n, 7)}}
		v.OK = meetsSLO(v, slo)
		return v
	}
	// The true knee, by a fine scan of the same model.
	truth := 0.0
	for r := 50.0; r < 500; r *= 1.001 {
		if probe(r).OK {
			truth = r
		}
	}
	if truth == 0 {
		t.Fatal("model never meets the SLO")
	}
	for _, c := range []struct {
		name   string
		lo, hi float64
		loOK   bool
	}{
		{"bracketed", 200, 400, true},
		{"expands upward", 100, 150, true},
		{"nominal fails", 480, 960, false},
	} {
		knee, steps := searchKnee(probe, c.lo, c.hi, c.loOK, res, 10, 4000, 20)
		if knee > truth || knee < truth/(1+res) {
			t.Errorf("%s: knee %.1f, want within %.0f%% below the true %.1f (steps %d)", c.name, knee, 100*res, truth, len(steps))
		}
		for _, s := range steps {
			if s.OK && s.Rate > knee {
				t.Errorf("%s: passing step %.1f above the reported knee %.1f", c.name, s.Rate, knee)
			}
		}
	}
	// Below minRate the search gives up instead of halving further, and
	// a skipped step ends it.
	never := func(rate float64) stepVerdict { return stepVerdict{Rate: rate} }
	if knee, steps := searchKnee(never, 200, 400, false, res, 50, 4000, 20); knee != 0 || len(steps) != 3 {
		t.Errorf("never-passing service: knee %.1f after %d steps, want 0 after 3 (200, 100, 50)", knee, len(steps))
	}
	calls := 0
	outOfTime := func(rate float64) stepVerdict {
		calls++
		if calls > 2 {
			return stepVerdict{Rate: rate, Skipped: true}
		}
		return probe(rate)
	}
	if _, steps := searchKnee(outOfTime, 200, 400, true, res, 10, 4000, 20); len(steps) != 3 {
		t.Errorf("search went on for %d steps after a skipped one, want 3", len(steps))
	}
	// A step with a failure or a growing backlog never passes, however
	// good its latency.
	if meetsSLO(stepVerdict{Lat: dist{N: 10, P99: 1}, Failures: 1}, slo) ||
		meetsSLO(stepVerdict{Lat: dist{N: 10, P99: 1}, Growing: true}, slo) ||
		meetsSLO(stepVerdict{Lat: dist{N: 10, P99: 1}, Invalid: true}, slo) {
		t.Error("meetsSLO passed a failed, backlogged or generator-late step")
	}
}

func TestBlockP99IsMedianOfBlocks(t *testing.T) {
	s := make([]float64, 3000)
	for i := range s {
		s[i] = float64(i % 1000) // each block: 0..999, p99 = 989
	}
	for i := 1000; i < 1100; i++ {
		s[i] = 1e6 // a stall inside the second block
	}
	if p, k := blockP99(s); p != 989 || k != 3 {
		t.Errorf("blockP99 = %v over %d blocks, want 989 over 3", p, k)
	}
	if p, k := blockP99(s[:999]); k != 1 || p != summarize(s[:999]).P99 {
		t.Errorf("short sample: got %v over %d blocks, want the plain p99", p, k)
	}
}

func TestSelfTimesSubtractCoveredChildTime(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50}, // overlaps a: [10,50] counts once
		{Name: "c", Parent: 0, Start: 60, End: 70},
		{Name: "d", Parent: 0, Start: 90, End: 120}, // only [90,100] lies inside root
		{Name: "e", Parent: 3, Start: 62, End: 65},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10 - 10, 20, 30, 10 - 3, 30, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestReconcileCatchesPlantedMismatch(t *testing.T) {
	led := ledger{Admits: 10, Releases: 4, Cost: 1234.5}
	good := serverStats{Admitted: 10, Active: 6, AdmittedCost: 1234.5 + 1e-9}
	if bad := reconcile(led, good); len(bad) != 0 {
		t.Fatalf("matching state reported %v", bad)
	}
	for _, c := range []struct {
		name  string
		plant func(*serverStats)
		field string
	}{
		{"lost admit", func(s *serverStats) { s.Admitted = 9 }, "admitted"},
		{"phantom session", func(s *serverStats) { s.Active = 7 }, "active"},
		{"missed release", func(s *serverStats) { s.Active = 5 }, "active"},
		{"cost drift", func(s *serverStats) { s.AdmittedCost += 0.5 }, "admitted_cost"},
	} {
		s := good
		c.plant(&s)
		bad := reconcile(led, s)
		if len(bad) != 1 || !strings.HasPrefix(bad[0], c.field) {
			t.Errorf("%s: got %v, want one %s mismatch", c.name, bad, c.field)
		}
	}
}

func TestBacklogGrowing(t *testing.T) {
	// At 300/s a 50 ms limit allows a backlog of 15.
	if backlogGrowing([]int{1, 2, 1, 2, 1, 1, 2, 1, 1}, 300) {
		t.Error("flat backlog reported growing")
	}
	if backlogGrowing([]int{1, 1, 1, 2, 4, 3, 6, 7, 5}, 300) {
		t.Error("a burst the connections clear within the limit reported growing")
	}
	if !backlogGrowing([]int{1, 1, 2, 5, 9, 14, 20, 27, 35}, 300) {
		t.Error("rising backlog not reported")
	}
}
