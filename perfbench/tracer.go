package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer records spans in memory; write dumps them at the end of the
// run. Spans are opened and closed around calls into the program, from
// this package only. A nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its handle (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return len(t.spans) - 1
}

// closed returns the finished spans.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		} else {
			// Keep indices stable for parent links: an unfinished span
			// counts as zero-length.
			s.End = s.Start
			out = append(out, s)
		}
	}
	return out
}

// durations groups finished span durations by name.
func (t *tracer) durations() map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, s := range t.closed() {
		out[s.Name] = append(out[s.Name], time.Duration(s.dur()))
	}
	return out
}

// durationsByReq maps request ID to the duration of its span of the
// given name.
func (t *tracer) durationsByReq(name string) map[int64]time.Duration {
	out := map[int64]time.Duration{}
	for _, s := range t.closed() {
		if s.Name == name {
			out[s.Req] = time.Duration(s.dur())
		}
	}
	return out
}

// lastDuration is the duration in ms of the most recent span of name.
func (t *tracer) lastDuration(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if s := t.spans[i]; s.Name == name && s.End >= 0 {
			return ms(time.Duration(s.dur()))
		}
	}
	return 0
}

// selfTimeByName sums each span name's self time, in ms.
func (t *tracer) selfTimeByName() map[string]float64 {
	spans := t.closed()
	self := selfTimes(spans)
	out := map[string]float64{}
	for i, s := range spans {
		out[s.Name] += ms(time.Duration(self[i]))
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.closed() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
