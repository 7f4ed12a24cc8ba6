package main

import (
	"math/rand"
	"sort"
	"time"
)

// refNominal is the reference pass's CPU time the CPU-time metrics are
// normalised to: the midpoint of the two speed states (about 1.5 ms
// and 2.6 ms per pass) of the 2-vCPU shared host the bounds were set
// on.
const refNominal = 2 * time.Millisecond

// hostSpeed tracks how fast the host runs right now. Its reference
// pass is a Floyd–Warshall pass over a seeded 100-node matrix: this
// package's own code, cache-resident like the solver's graphs, so its
// CPU time moves with the host (frequency, a busy sibling hyperthread)
// and never with the program. On the host the bounds were set on, the
// reference and the solver's CPU time per solve slowed by about the
// same factor (1.5–1.7×) when the host switched speed state.
type hostSpeed struct {
	base, d []float64
	recent  []time.Duration // the last few passes, for a smoothed reading
}

const refN = 100

func newHostSpeed() *hostSpeed {
	rng := rand.New(rand.NewSource(1))
	h := &hostSpeed{base: make([]float64, refN*refN), d: make([]float64, refN*refN)}
	for i := range h.base {
		h.base[i] = rng.Float64()
	}
	return h
}

// pass runs the reference once and returns its process CPU time.
func (h *hostSpeed) pass() time.Duration {
	copy(h.d, h.base)
	c0 := processCPU()
	d := h.d
	for k := 0; k < refN; k++ {
		for i := 0; i < refN; i++ {
			dik := d[i*refN+k]
			row, krow := d[i*refN:(i+1)*refN], d[k*refN:(k+1)*refN]
			for j := range row {
				if v := dik + krow[j]; v < row[j] {
					row[j] = v
				}
			}
		}
	}
	c := processCPU() - c0
	h.recent = append(h.recent, c)
	if len(h.recent) > 5 {
		h.recent = h.recent[1:]
	}
	return c
}

// ref runs three passes and returns the median of the last five.
func (h *hostSpeed) ref() time.Duration {
	for i := 0; i < 3; i++ {
		h.pass()
	}
	return h.current()
}

// current is the median of the last passes (refNominal before any).
func (h *hostSpeed) current() time.Duration {
	if len(h.recent) == 0 {
		return refNominal
	}
	s := append([]time.Duration(nil), h.recent...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// norm rescales a CPU time measured on the host as it runs now to the
// reference speed.
func (h *hostSpeed) norm(d time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(refNominal) / float64(h.current()))
}

// recordSetup sets setup_s to the median set-up probe time rescaled to
// the reference speed (read right after each probe), and keeps the raw
// median as setup_raw_s.
func recordSetup(rep *report, raw, norm []time.Duration) {
	rep.set("setup_s", medianDuration(norm).Seconds(), "s")
	rep.Named["setup_raw_s"] = metric{medianDuration(raw).Seconds(), "s"}
	rep.Samples["setup_raw_s"] = summarize(durationsSeconds(raw))
	rep.SetupProbes = durationsSeconds(raw)
}
