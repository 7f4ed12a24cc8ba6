// Command sftchaos runs the failure-injection acceptance gate: admit a
// population of multicast sessions, replay a seeded fault schedule
// through the dynamic manager's repair path, and re-verify every
// surviving session after every event with both the core validator and
// the flow-level replay.
//
// Usage:
//
//	sftchaos -nodes 40 -sessions 30 -faults 20 -seed 7
//	sftchaos -schedule scenario.json
//	sftchaos -gen-schedule 20 > scenario.json
//	sftchaos -crash 2 -ops 30 -seed 7
//
// The process exits non-zero when any non-degraded session fails
// validation after a fault, or when repairs never reuse a surviving
// instance despite repairs having happened — the two acceptance
// criteria of the resilience gate.
//
// -crash N switches to the durability gate: the same seeded script of
// admissions, releases and faults runs twice — once untouched (the
// oracle), once with N SIGKILL-equivalent crashes injected (the last
// one inside an admission's commit critical section, between WAL
// append and in-memory apply), each followed by a restore from the
// write-ahead log. The process exits non-zero when the restored run
// lost a committed session, diverged from the oracle in any session,
// refcount or accounting byte, or failed conformance validation.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"sftree/internal/faults"
	"sftree/internal/netgen"
	"sftree/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sftchaos:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sftchaos", flag.ContinueOnError)
	var (
		nodes    = fs.Int("nodes", 40, "network size")
		sessions = fs.Int("sessions", 30, "live sessions before faults")
		nfaults  = fs.Int("faults", 20, "generated fault-schedule length")
		seed     = fs.Int64("seed", 7, "seed for network, workload and schedule")
		schedule = fs.String("schedule", "", "replay this JSON scenario file instead of generating")
		genOnly  = fs.Int("gen-schedule", 0, "emit a seeded schedule of this length as JSON and exit")
		verbose  = fs.Bool("v", false, "include per-event breakdown in the report")
		crashes  = fs.Int("crash", 0, "run the crash-injection durability gate with this many crash points")
		ops      = fs.Int("ops", 30, "mixed operations after the initial population (crash gate)")
		walDir   = fs.String("wal-dir", "", "WAL directory for the crash gate (default: a temp dir)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *crashes > 0 {
		return runCrashGate(w, *nodes, *sessions, *ops, *nfaults, *crashes, *seed, *walDir)
	}

	if *genOnly > 0 {
		rng := rand.New(rand.NewSource(*seed))
		net, err := netgen.Generate(netgen.PaperConfig(*nodes, 2), rng)
		if err != nil {
			return err
		}
		sched, err := faults.Generate(net, faults.DefaultGenConfig(*genOnly), rng)
		if err != nil {
			return err
		}
		sched.Seed = *seed
		return sched.Save(w)
	}

	cfg := sim.ChaosConfig{Nodes: *nodes, Seed: *seed, Sessions: *sessions, Faults: *nfaults}
	if *schedule != "" {
		f, err := os.Open(*schedule)
		if err != nil {
			return err
		}
		sched, err := faults.Load(f)
		f.Close()
		if err != nil {
			return err
		}
		cfg.Schedule = sched
	}

	rep, err := sim.RunChaos(cfg)
	if err != nil {
		return err
	}
	if !*verbose {
		rep.Events = nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}

	if len(rep.ValidationErrors) > 0 {
		return fmt.Errorf("%d validation errors after faults", len(rep.ValidationErrors))
	}
	if repairs := rep.Patched + rep.Reembeds; repairs > 0 && rep.RepairsWithReuse == 0 {
		return errors.New("repairs happened but none reused a surviving instance")
	}
	return nil
}

// runCrashGate executes the oracle-vs-crash comparison. Crash points
// are spread evenly across the op script; odd-numbered ones tear the
// log (a partial frame at the active tail, the signature of a SIGKILL
// mid-append) so recovery's torn-tail path runs, and the final one
// fires inside the commit critical section (between WAL append and
// in-memory apply), the window a kill between operations can never
// hit. With two or more points, the first torn crash is immediately
// re-crashed on the next op — the double-crash window where a tear
// surviving the first recovery on disk would brick the log.
func runCrashGate(w io.Writer, nodes, sessions, ops, nfaults, crashes int, seed int64, walDir string) error {
	total := sessions + ops
	var points []sim.CrashPoint
	for i := 1; i <= crashes; i++ {
		points = append(points, sim.CrashPoint{Op: i * total / (crashes + 1), Torn: i%2 == 1})
	}
	if len(points) > 0 {
		points[len(points)-1].MidCommit = true
	}
	if crashes >= 2 {
		recrash := sim.CrashPoint{Op: points[0].Op + 1}
		points = append(points[:1], append([]sim.CrashPoint{recrash}, points[1:]...)...)
	}
	rep, err := sim.RunCrash(sim.CrashConfig{
		Nodes:    nodes,
		Seed:     seed,
		Sessions: sessions,
		Ops:      ops,
		Faults:   nfaults,
		Crashes:  points,
		// One past the crash spacing, so a checkpoint never lands
		// between a torn crash and its immediate re-crash — the second
		// recovery must replay the truncated segment, not sidestep it
		// via a fresh snapshot.
		CheckpointEvery: total/3 + 1,
		Dir:             walDir,
	})
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if !rep.Passed() {
		return fmt.Errorf("crash gate failed: %d lost sessions, %d mismatches, %d validation errors",
			len(rep.LostSessions), len(rep.Mismatches), len(rep.ValidationErrors))
	}
	return nil
}
