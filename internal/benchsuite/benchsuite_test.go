package benchsuite

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBaselineMatchesSuite keeps the checked-in BENCH_core.json and
// the suite in step: a baseline row whose benchmark left the suite is
// dead weight the gate silently ignores, and a gate benchmark without
// a baseline row makes the gate fail for a reason unrelated to speed.
func TestBaselineMatchesSuite(t *testing.T) {
	buf, err := os.ReadFile("../../BENCH_core.json")
	if err != nil {
		t.Fatal(err)
	}
	var baseline Report
	if err := json.Unmarshal(buf, &baseline); err != nil {
		t.Fatal(err)
	}
	benches, err := Suite()
	if err != nil {
		t.Fatal(err)
	}
	inSuite := make(map[string]bool, len(benches))
	for _, b := range benches {
		inSuite[b.Name] = true
	}
	inBaseline := make(map[string]bool, len(baseline.Benchmarks))
	for _, r := range baseline.Benchmarks {
		if !inSuite[r.Name] {
			t.Errorf("BENCH_core.json row %q names no Suite() benchmark", r.Name)
		}
		inBaseline[r.Name] = true
	}
	for _, name := range GateBenches {
		if !inBaseline[name] {
			t.Errorf("gate benchmark %q has no BENCH_core.json row", name)
		}
	}
}
