package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"sftree/internal/graph"
	"sftree/internal/mod"
	"sftree/internal/nfv"
	"sftree/internal/steiner"
)

// SteinerAlgo selects the Steiner-tree routine used by stage one.
type SteinerAlgo int

const (
	// SteinerKMB is the Kou-Markowsky-Berman 2-approximation (default).
	SteinerKMB SteinerAlgo = iota + 1
	// SteinerTM is the Takahashi-Matsuyama path-growing heuristic.
	SteinerTM
)

// Options tunes the two-stage algorithm. The zero value picks the
// paper's configuration: KMB trees, every server considered as the
// last-VNF host, and global-recompute move acceptance in stage two.
type Options struct {
	// Steiner selects the stage-one Steiner routine (default KMB).
	Steiner SteinerAlgo
	// MaxCandidateHosts, when positive, restricts stage one to the
	// cheapest-chain candidates instead of all servers (ablation).
	MaxCandidateHosts int
	// LocalAcceptance makes stage two accept moves on the paper's
	// local rule alone instead of verifying the recomputed global
	// cost (ablation). Capacity feasibility is still enforced.
	LocalAcceptance bool
	// MaxOPAPasses repeats the whole stage-two sweep (levels k..1)
	// until a pass accepts no move or the budget is exhausted,
	// implementing the paper's "repeat the above procedures until one
	// VNF cannot be deployed on multiple nodes". Zero means one pass.
	MaxOPAPasses int
	// AggressiveOPA is an extension beyond the paper: stage two also
	// considers dependent root-to-leaf paths (the paper discards them)
	// and probes the best candidate host even when the local rule is
	// not strictly satisfied. Every move is still gated on the
	// recomputed global cost, so the result can only improve; the
	// trade-off is more trial evaluations. Incompatible with
	// LocalAcceptance (which has no global gate) — ignored there.
	AggressiveOPA bool
	// Scaffolds, when non-nil, memoizes the stage-one MOD overlay keyed
	// by (source, chain signature, graph generation, deployment epoch):
	// same-signature solves against the same network version skip the
	// overlay construction entirely. Because the key pins the exact
	// version, results are bit-identical to building fresh. The dynamic
	// manager shares one cache across concurrent admissions.
	Scaffolds *mod.Cache
	// Observer, when non-nil, receives structured phase events from
	// every stage of the solve (see observe.go). Nil costs one pointer
	// check per emission site and nothing else.
	Observer Observer
	// Ctx, when non-nil, bounds the solve: the algorithm polls it at
	// the APSP build, at stage boundaries, between stage-one candidate
	// hosts and at every stage-two pass and level boundary. On expiry
	// the solve stops where it is and returns the best feasible
	// embedding found so far (anytime semantics), with
	// Result.EarlyStop set; only when no feasible solution exists yet
	// does it fail, wrapping the context error. Nil means unbounded.
	Ctx context.Context
}

// ctxErr polls the deadline context without blocking; nil when the
// solve may continue.
func (o Options) ctxErr() error {
	if o.Ctx == nil {
		return nil
	}
	select {
	case <-o.Ctx.Done():
		return o.Ctx.Err()
	default:
		return nil
	}
}

func (o Options) opaPasses() int {
	if o.MaxOPAPasses <= 0 {
		return 1
	}
	return o.MaxOPAPasses
}

func (o Options) steiner() SteinerAlgo {
	if o.Steiner == 0 {
		return SteinerKMB
	}
	return o.Steiner
}

// StageStats reports how stage one reached its feasible solution.
type StageStats struct {
	CandidatesTried int
	Stage1Cost      float64
	LastHost        int
	// EarlyStop reports that the deadline context expired and the
	// candidate sweep stopped at the best feasible solution found.
	EarlyStop bool
}

// runMSA implements Algorithm 2: embed the SFC via the expanded MOD
// network, repair capacity violations, and connect the last VNF host
// to all destinations with a Steiner tree, trying every candidate
// host and keeping the cheapest feasible combination.
func runMSA(net *nfv.Network, task nfv.Task, opts Options) (*state, *StageStats, error) {
	if err := task.Validate(net); err != nil {
		return nil, nil, err
	}
	var overlay *mod.Network
	var err error
	if opts.Scaffolds != nil {
		overlay, err = opts.Scaffolds.Get(net, task.Source, task.Chain)
	} else {
		overlay, err = mod.Build(net, task.Source, task.Chain)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: stage one: %w", err)
	}
	sol := overlay.SolveSFC()
	metric := net.Metric()

	candidates := net.Servers()
	sort.Slice(candidates, func(a, b int) bool {
		return sol.CostTo(candidates[a]) < sol.CostTo(candidates[b])
	})
	if opts.MaxCandidateHosts > 0 && len(candidates) > opts.MaxCandidateHosts {
		candidates = candidates[:opts.MaxCandidateHosts]
	}

	// Candidates are tried in sorted order; a strict < on total cost
	// picks the winner, and stateFromSolution runs only for improving
	// candidates (its failure skips the candidate without touching the
	// running best).
	var (
		bestState *state
		bestCost  = graph.Inf
		stats     StageStats
		expired   bool // a feasible candidate was priced after the deadline
	)
	for _, w := range candidates {
		// Anytime semantics: once the deadline has expired and a
		// solution is in hand, the sweep ends early. If every candidate
		// priced so far failed to assemble, keep going so the solve
		// fails only when no candidate is feasible.
		if expired && bestState != nil {
			stats.EarlyStop = true
			break
		}
		r := evalCandidate(net, task, overlay, sol, metric, opts.steiner(), w)
		if r.tried {
			stats.CandidatesTried++
		}
		if r.ok && opts.ctxErr() != nil {
			expired = true
		}
		if !r.ok || r.total >= bestCost {
			continue
		}
		st, err := stateFromSolution(net, task, r.hosts, r.tree)
		if err != nil {
			continue
		}
		bestCost = r.total
		bestState = st
		stats.LastHost = r.hosts[len(r.hosts)-1]
	}
	if bestState == nil {
		return nil, nil, fmt.Errorf("%w: no candidate last host admits a feasible solution", ErrNoFeasible)
	}
	stats.Stage1Cost = bestCost
	return bestState, &stats, nil
}

// candResult is one candidate last-host's evaluation.
type candResult struct {
	tried bool // counted by StageStats.CandidatesTried
	ok    bool // chain repaired and Steiner tree built
	hosts []int
	tree  steiner.Tree
	total float64
}

// evalCandidate prices candidate last-host w: decode the overlay's
// optimal chain ending at w, repair capacity, and connect w to every
// destination with a Steiner tree.
func evalCandidate(net *nfv.Network, task nfv.Task, overlay *mod.Network, sol *mod.SFCSolution, metric *graph.Metric, algo SteinerAlgo, w int) candResult {
	var r candResult
	if sol.CostTo(w) == graph.Inf {
		return r
	}
	hosts := sol.HostsTo(w)
	if hosts == nil {
		return r
	}
	r.tried = true
	hosts, ok := repairCapacity(net, task, hosts)
	if !ok {
		return r
	}
	chainCost := overlay.ChainCost(hosts)
	last := hosts[len(hosts)-1]
	tree, err := buildSteiner(net, metric, last, task.Destinations, algo)
	if err != nil {
		return r // some destination unreachable from this host
	}
	r.ok = true
	r.hosts = hosts
	r.tree = tree
	r.total = chainCost + tree.Cost
	return r
}

// BuildTails connects root to all destinations with the selected
// Steiner routine and returns the per-destination tree paths, the form
// OptimizeEmbedding consumes. Baseline strategies use it to finish
// their stage-one solutions the same way MSA does.
func BuildTails(net *nfv.Network, root int, dests []int, algo SteinerAlgo) ([][]int, float64, error) {
	tree, err := buildSteiner(net, net.Metric(), root, dests, algo)
	if err != nil {
		return nil, 0, err
	}
	paths, err := treePaths(net.Graph(), tree, root, dests)
	if err != nil {
		return nil, 0, err
	}
	return paths, tree.Cost, nil
}

// buildSteiner connects root to all destinations with the selected
// Steiner routine.
func buildSteiner(net *nfv.Network, metric *graph.Metric, root int, dests []int, algo SteinerAlgo) (steiner.Tree, error) {
	if algo == SteinerTM {
		return steiner.TakahashiMatsuyama(net.Graph(), metric, root, dests)
	}
	return steiner.KMB(net.Graph(), metric, append([]int{root}, dests...))
}

// RepairChainHosts exposes the stage-one capacity-repair rule so that
// external reference solvers sweep candidate hosts under the same
// feasibility policy. It returns the repaired host sequence and
// whether a feasible placement exists.
func RepairChainHosts(net *nfv.Network, task nfv.Task, hosts []int) ([]int, bool) {
	return repairCapacity(net, task, hosts)
}

// TailsFromEdges converts an explicit tree edge set into the
// per-destination root paths OptimizeEmbedding consumes.
func TailsFromEdges(net *nfv.Network, root int, dests []int, edges []int) ([][]int, error) {
	return treePaths(net.Graph(), steiner.Tree{Edges: edges}, root, dests)
}

// repairCapacity walks the chain hosts in order, reserving capacity
// for each new instance, and relocates any VNF whose host is full to
// the feasible node minimizing connection-plus-setup cost (the paper's
// adjustment rule). It reports failure when some VNF fits nowhere.
func repairCapacity(net *nfv.Network, task nfv.Task, hosts []int) ([]int, bool) {
	k := len(hosts)
	out := append([]int(nil), hosts...)
	metric := net.Metric()
	sc := capPool.Get().(*capScratch)
	defer capPool.Put(sc)
	if n := net.NumNodes(); cap(sc.free) < n {
		sc.free = make([]float64, n)
	}
	free := sc.free[:net.NumNodes()]
	servers := net.ServerList()
	for _, v := range servers {
		free[v] = net.FreeCapacity(v)
	}
	for j := 0; j < k; j++ {
		f := task.Chain[j]
		h := out[j]
		vnf, err := net.VNF(f)
		if err != nil {
			return nil, false
		}
		if net.IsDeployed(f, h) {
			continue // reuse, no capacity consumed
		}
		// The scratch array is refreshed only at server indices; a
		// non-server host (possible via RepairChainHosts) has no
		// capacity and always relocates, as with the old map's zero.
		if net.IsServer(h) && free[h]+1e-9 >= vnf.Demand {
			free[h] -= vnf.Demand
			continue
		}
		// Relocate: choose the node minimizing link cost to both chain
		// neighbours plus setup cost, among nodes that can host f.
		prev := task.Source
		if j > 0 {
			prev = out[j-1]
		}
		best, bestCost := -1, graph.Inf
		for _, u := range servers {
			reuse := net.IsDeployed(f, u)
			if !reuse && free[u]+1e-9 < vnf.Demand {
				continue
			}
			c := metric.Dist[prev][u] + net.SetupCost(f, u)
			if j+1 < k {
				c += metric.Dist[u][out[j+1]]
			}
			if c < bestCost {
				best, bestCost = u, c
			}
		}
		if best == -1 {
			return nil, false
		}
		out[j] = best
		if !net.IsDeployed(f, best) {
			free[best] -= vnf.Demand
		}
	}
	return out, true
}

// capScratch is the pooled free-capacity array behind repairCapacity;
// only server-indexed entries are meaningful (refreshed per call).
type capScratch struct{ free []float64 }

var capPool = sync.Pool{New: func() any { return new(capScratch) }}

// stateFromSolution assembles the stage-one state: every destination
// is served by the single chain host sequence, and tails follow the
// Steiner tree from the last host.
func stateFromSolution(net *nfv.Network, task nfv.Task, hosts []int, tree steiner.Tree) (*state, error) {
	s := newState(net, task)
	k := task.K()
	last := hosts[k-1]
	paths, err := treePaths(net.Graph(), tree, last, task.Destinations)
	if err != nil {
		return nil, err
	}
	for di := range task.Destinations {
		for j := 1; j <= k; j++ {
			s.serve[di][j] = hosts[j-1]
		}
		s.tail[di] = paths[di]
	}
	return s, nil
}

// treePaths returns, for each destination, the unique path from root
// to it along the tree's edges.
func treePaths(g *graph.Graph, tree steiner.Tree, root int, dests []int) ([][]int, error) {
	parent := make(map[int]int)
	adj := make(map[int][]int)
	for _, id := range tree.Edges {
		e := g.Edge(id)
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	parent[root] = -1
	stack := []int{root}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if _, seen := parent[v]; !seen {
				parent[v] = u
				stack = append(stack, v)
			}
		}
	}
	out := make([][]int, len(dests))
	for i, d := range dests {
		if d == root {
			out[i] = []int{root}
			continue
		}
		if _, ok := parent[d]; !ok {
			return nil, fmt.Errorf("%w: destination %d not in the Steiner tree", ErrNoFeasible, d)
		}
		var rev []int
		for x := d; x != -1; x = parent[x] {
			rev = append(rev, x)
		}
		for a, b := 0, len(rev)-1; a < b; a, b = a+1, b-1 {
			rev[a], rev[b] = rev[b], rev[a]
		}
		out[i] = rev
	}
	return out, nil
}
