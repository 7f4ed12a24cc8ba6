package sim

import "testing"

func TestRunCrashGatePasses(t *testing.T) {
	rep, err := RunCrash(CrashConfig{
		Nodes:    30,
		Seed:     11,
		Sessions: 12,
		Ops:      25,
		Faults:   5,
		Crashes: []CrashPoint{
			{Op: 15, Torn: true},      // between ops, tearing the active tail
			{Op: 22, MidCommit: true}, // inside the commit critical section
		},
		CheckpointEvery: 8,
		Dir:             t.TempDir(),
	})
	if err != nil {
		t.Fatalf("RunCrash: %v", err)
	}
	if !rep.Passed() {
		t.Fatalf("gate failed: lost=%v mismatches=%v validation=%v",
			rep.LostSessions, rep.Mismatches, rep.ValidationErrors)
	}
	if len(rep.Restores) != 2 {
		t.Fatalf("restores: %+v", rep.Restores)
	}
	// The checkpoint at op 16 precedes the second crash, so that
	// restore must recover from snapshot + tail, not full replay.
	if rep.Restores[1].SnapshotSeq == 0 {
		t.Fatalf("second restore ignored the snapshot: %+v", rep.Restores[1])
	}
	if rep.OracleAdmitted == 0 || rep.OracleLive == 0 {
		t.Fatalf("degenerate oracle run: %+v", rep)
	}
	if !rep.Restores[0].TornTail {
		t.Fatalf("torn crash did not surface a torn tail: %+v", rep.Restores[0])
	}
}

func TestRunCrashTornDoubleCrash(t *testing.T) {
	// A torn crash immediately followed by another crash with no
	// snapshot in between: the tear from the first crash must be
	// truncated during the first recovery, or the second recovery
	// finds a partial frame in what is by then a non-final segment and
	// refuses to start (losing every committed record behind it).
	rep, err := RunCrash(CrashConfig{
		Nodes:    30,
		Seed:     11,
		Sessions: 12,
		Ops:      25,
		Faults:   5,
		Crashes: []CrashPoint{
			{Op: 10, Torn: true},
			{Op: 11},
			{Op: 20, Torn: true, MidCommit: true},
		},
		Dir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("RunCrash: %v", err)
	}
	if !rep.Passed() {
		t.Fatalf("gate failed: lost=%v mismatches=%v validation=%v",
			rep.LostSessions, rep.Mismatches, rep.ValidationErrors)
	}
	if len(rep.Restores) != 3 {
		t.Fatalf("restores: %+v", rep.Restores)
	}
	if !rep.Restores[0].TornTail || !rep.Restores[2].TornTail {
		t.Fatalf("torn crashes did not surface torn tails: %+v", rep.Restores)
	}
}

func TestRunCrashIsDeterministic(t *testing.T) {
	cfg := CrashConfig{
		Nodes: 25, Seed: 3, Sessions: 8, Ops: 15, Faults: 4,
		Crashes: []CrashPoint{{Op: 10}},
	}
	cfg.Dir = t.TempDir()
	a, err := RunCrash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dir = t.TempDir()
	b, err := RunCrash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Passed() || !b.Passed() {
		t.Fatalf("gate failed: %+v / %+v", a, b)
	}
	if a.OracleAdmitted != b.OracleAdmitted || a.OracleCost != b.OracleCost ||
		a.OracleLive != b.OracleLive || a.EventsApplied != b.EventsApplied {
		t.Fatalf("non-deterministic runs:\n%+v\n%+v", a, b)
	}
}
