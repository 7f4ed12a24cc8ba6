package core

import (
	"fmt"
	"time"

	"sftree/internal/nfv"
)

// Result is the outcome of the two-stage algorithm.
type Result struct {
	// Embedding is the final, validated service function tree embedding.
	Embedding *nfv.Embedding
	// Stage1Cost is the traffic delivery cost after stage one (MSA).
	Stage1Cost float64
	// FinalCost is the traffic delivery cost after stage two (OPA);
	// always <= Stage1Cost.
	FinalCost float64
	// MovesAccepted counts the stage-two instance additions.
	MovesAccepted int
	// CandidatesTried counts the stage-one last-host candidates examined.
	CandidatesTried int
	// LastHost is the stage-one host of the final chain VNF.
	LastHost int
	// EarlyStop reports that Options.Ctx expired before the algorithm
	// ran to completion: the embedding is the best feasible solution
	// found by then (anytime semantics), valid but possibly short of
	// the unbounded result.
	EarlyStop bool
}

// Solve runs the full two-stage algorithm (MSA then OPA) and returns
// the resulting embedding, which is guaranteed to pass
// Network.Validate. The network is treated as read-only.
func Solve(net *nfv.Network, task nfv.Task, opts Options) (*Result, error) {
	if opts.Observer != nil {
		// A warm metric reports zero build time: the closure is cached
		// (and generation-valid), so this solve pays nothing for APSP.
		if net.MetricCached() {
			opts.emit(Event{Kind: EventAPSPBuild, Duration: 0, Warm: true})
		} else {
			t0 := time.Now()
			net.Metric()
			opts.emit(Event{Kind: EventAPSPBuild, Duration: time.Since(t0)})
		}
	}
	t1 := opts.now()
	opts.emit(Event{Kind: EventStage1Start})
	st, stats, err := runMSA(net, task, opts)
	if err != nil {
		return nil, err
	}
	stage1, err := st.cost()
	if err != nil {
		return nil, err
	}
	if opts.Observer != nil {
		opts.emit(Event{Kind: EventStage1End, Cost: stage1,
			Candidates: stats.CandidatesTried, Duration: time.Since(t1)})
	}
	t2 := opts.now()
	opts.emit(Event{Kind: EventStage2Start, Cost: stage1})
	moves, stopped, err := runOPA(st, opts)
	if err != nil {
		return nil, err
	}
	emb, err := st.embedding()
	if err != nil {
		return nil, err
	}
	final := net.Cost(emb).Total
	if opts.Observer != nil {
		opts.emit(Event{Kind: EventStage2End, Cost: final, Moves: moves, Duration: time.Since(t2)})
	}
	if err := net.Validate(emb); err != nil {
		return nil, fmt.Errorf("core: produced invalid embedding (bug): %w", err)
	}
	return &Result{
		Embedding:       emb,
		Stage1Cost:      stage1,
		FinalCost:       final,
		MovesAccepted:   moves,
		CandidatesTried: stats.CandidatesTried,
		LastHost:        stats.LastHost,
		EarlyStop:       stats.EarlyStop || stopped,
	}, nil
}

// SolveStageOne runs only MSA (Algorithm 2), for ablations and as the
// starting point that baseline strategies replace.
func SolveStageOne(net *nfv.Network, task nfv.Task, opts Options) (*Result, error) {
	t1 := opts.now()
	opts.emit(Event{Kind: EventStage1Start})
	st, stats, err := runMSA(net, task, opts)
	if err != nil {
		return nil, err
	}
	emb, err := st.embedding()
	if err != nil {
		return nil, err
	}
	cost := net.Cost(emb).Total
	if opts.Observer != nil {
		opts.emit(Event{Kind: EventStage1End, Cost: cost,
			Candidates: stats.CandidatesTried, Duration: time.Since(t1)})
	}
	if err := net.Validate(emb); err != nil {
		return nil, fmt.Errorf("core: produced invalid embedding (bug): %w", err)
	}
	return &Result{
		Embedding:       emb,
		Stage1Cost:      cost,
		FinalCost:       cost,
		CandidatesTried: stats.CandidatesTried,
		LastHost:        stats.LastHost,
		EarlyStop:       stats.EarlyStop,
	}, nil
}

// OptimizeEmbedding runs stage two (OPA) on an externally produced
// feasible solution expressed as chain hosts plus per-destination
// tails. Baseline strategies (SCA, RSA) share this optimization phase,
// matching the paper's "the optimization procedure at the second stage
// is the same" setup.
func OptimizeEmbedding(net *nfv.Network, task nfv.Task, hosts []int, tails [][]int, opts Options) (*Result, error) {
	if err := task.Validate(net); err != nil {
		return nil, err
	}
	if len(hosts) != task.K() {
		return nil, fmt.Errorf("%w: %d hosts for chain of length %d", ErrNoFeasible, len(hosts), task.K())
	}
	if len(tails) != len(task.Destinations) {
		return nil, fmt.Errorf("%w: %d tails for %d destinations", ErrNoFeasible, len(tails), len(task.Destinations))
	}
	st := newState(net, task)
	for di := range task.Destinations {
		for j := 1; j <= task.K(); j++ {
			st.serve[di][j] = hosts[j-1]
		}
		st.tail[di] = append([]int(nil), tails[di]...)
	}
	stage1, err := st.cost()
	if err != nil {
		return nil, err
	}
	t2 := opts.now()
	opts.emit(Event{Kind: EventStage2Start, Cost: stage1})
	moves, stopped, err := runOPA(st, opts)
	if err != nil {
		return nil, err
	}
	emb, err := st.embedding()
	if err != nil {
		return nil, err
	}
	final := net.Cost(emb).Total
	if opts.Observer != nil {
		opts.emit(Event{Kind: EventStage2End, Cost: final, Moves: moves, Duration: time.Since(t2)})
	}
	if err := net.Validate(emb); err != nil {
		return nil, fmt.Errorf("core: optimized embedding invalid: %w", err)
	}
	return &Result{
		Embedding:     emb,
		Stage1Cost:    stage1,
		FinalCost:     final,
		MovesAccepted: moves,
		LastHost:      hosts[len(hosts)-1],
		EarlyStop:     stopped,
	}, nil
}
