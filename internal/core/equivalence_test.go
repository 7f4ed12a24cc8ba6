package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// oracleCanHost is canHost re-derived from the serving assignment
// alone, without the ledger: f is pre-deployed or already placed at v,
// or v's free capacity minus the demand of the state's new instances
// there still fits f.
func oracleCanHost(s *state, f, v int) bool {
	if !s.net.IsServer(v) {
		return false
	}
	if s.net.IsDeployed(f, v) {
		return true
	}
	used := 0.0
	for _, inst := range s.placedInstances() {
		if inst.VNF == f && inst.Node == v {
			return true
		}
		if inst.Node == v {
			if vnf, err := s.net.VNF(inst.VNF); err == nil {
				used += vnf.Demand
			}
		}
	}
	vnf, err := s.net.VNF(f)
	if err != nil {
		return false
	}
	return s.net.FreeCapacity(v)-used+1e-9 >= vnf.Demand
}

// oracleSetupCost is instanceSetupCost re-derived from the serving
// assignment alone, without the ledger.
func oracleSetupCost(s *state, f, u int) float64 {
	if s.net.IsDeployed(f, u) {
		return 0
	}
	for _, inst := range s.placedInstances() {
		if inst.VNF == f && inst.Node == u {
			return 0
		}
	}
	return s.net.SetupCost(f, u)
}

// Property: the incremental ledger and the full recomputation
// (state.cost, oracleCanHost, oracleSetupCost) agree on the same
// states, across randomized topologies, chains, and arbitrary (even
// non-improving, non-OPA) move sequences. Reverting a move must
// restore the ledger's totals bit-for-bit.
func TestQuickIncrementalMatchesNaive(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net, task := randomInstance(rng, 8+rng.Intn(15), 1+rng.Intn(4), 1+rng.Intn(5))
		st, _, err := runMSA(net, task, Options{})
		if err != nil {
			return errors.Is(err, ErrNoFeasible)
		}
		st.ensureLedger()
		metric := net.Metric()
		k := task.K()
		servers := net.Servers()
		for step := 0; step < 12; step++ {
			// canHost and instanceSetupCost must agree with the
			// oracles at every intermediate state.
			f := task.Chain[rng.Intn(k)]
			v := rng.Intn(net.NumNodes())
			if st.canHost(f, v) != oracleCanHost(st, f, v) ||
				st.instanceSetupCost(f, v) != oracleSetupCost(st, f, v) {
				return false
			}

			// A random (not necessarily improving or even sensible)
			// group move: ledger and oracle must agree regardless.
			j := 1 + rng.Intn(k)
			var members []int
			for di := range task.Destinations {
				if rng.Intn(2) == 0 {
					members = append(members, di)
				}
			}
			if len(members) == 0 {
				members = []int{rng.Intn(len(task.Destinations))}
			}
			grp := connGroup{node: rng.Intn(net.NumNodes()), members: members}
			e := servers[rng.Intn(len(servers))]

			before, errBefore := st.totalCost()
			jr := st.applyMoveInc(j, grp, e, metric)
			incCost, incErr := st.totalCost()
			oracleCost, oracleErr := st.cost()
			if (incErr == nil) != (oracleErr == nil) {
				return false
			}
			if incErr == nil {
				if math.IsInf(oracleCost, 1) != math.IsInf(incCost, 1) {
					return false
				}
				if !math.IsInf(incCost, 1) && math.Abs(incCost-oracleCost) > 1e-6 {
					return false
				}
			}
			if rng.Intn(2) == 0 {
				st.revert(jr)
				after, errAfter := st.totalCost()
				if (errAfter == nil) != (errBefore == nil) {
					return false
				}
				if errAfter == nil && after != before {
					return false // revert must be exact, not approximate
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// eventLog records every solver event of one sequential solve.
type eventLog []Event

func (l *eventLog) OnEvent(e Event) { *l = append(*l, e) }

// Property: in every stage-two mode, the ledger-priced cost of the last
// accepted move (the stage-one cost when none was accepted) matches the
// final cost the solve reports, which comes from a full embedding
// recount, and the accepted-move events add up to MovesAccepted.
// Stage two accepts a move on only a few percent of random instances,
// so the check runs enough of them to see moves and fails if it never
// does.
func TestQuickSolveLedgerMatchesOracle(t *testing.T) {
	totalAccepted := 0
	prop := func(seed int64, mode uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		net, task := randomInstance(rng, 15+rng.Intn(20), 1+rng.Intn(3), 1+rng.Intn(8))
		var log eventLog
		opts := Options{Observer: &log}
		switch mode % 4 {
		case 1:
			opts.AggressiveOPA = true
		case 2:
			opts.MaxOPAPasses = 3
		case 3:
			opts.LocalAcceptance = true
		}
		res, err := Solve(net, task, opts)
		if err != nil {
			return errors.Is(err, ErrNoFeasible)
		}
		ledgerCost, accepted := res.Stage1Cost, 0
		for _, e := range log {
			if e.Kind == EventMoveAccepted {
				ledgerCost = e.CostAfter
				accepted++
			}
		}
		totalAccepted += accepted
		if accepted != res.MovesAccepted {
			return false
		}
		return math.Abs(ledgerCost-res.FinalCost) <= 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
	if totalAccepted == 0 {
		t.Error("no stage-two move was accepted on any instance; the property checked nothing")
	}
}
