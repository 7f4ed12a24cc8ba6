// Package sftree is a from-scratch Go implementation of "Optimal
// Service Function Tree Embedding for NFV Enabled Multicast"
// (Ren, Guo, Tang, Lin, Qin — IEEE ICDCS 2018).
//
// Given a target network with VNF-capable server nodes, link costs,
// per-node capacities and optional pre-deployed VNF instances, plus a
// multicast task (source, destinations, service function chain), the
// package embeds a service function tree (SFT) that delivers the flow
// to every destination through the chain in order while minimizing the
// total traffic delivery cost (VNF setup cost + per-stage link cost
// with multicast deduplication).
//
// The primary entry point is the paper's two-stage approximation
// algorithm:
//
//	net, _ := sftree.GenerateNetwork(sftree.DefaultGenConfig(50, 2), 1)
//	task, _ := sftree.GenerateTask(net, 1, 5, 3)
//	res, _ := sftree.SolveTwoStage(net, task, sftree.Options{})
//	fmt.Println(res.FinalCost)
//
// Baselines (SolveSCA, SolveRSA), an exact ILP path backed by a
// built-in simplex/branch-and-bound stack (SolveILP), and a
// best-known-solution reference (SolveBestKnown) are provided for
// benchmarking, together with a per-figure experiment harness under
// cmd/sftbench.
package sftree

import (
	"fmt"
	"math/rand"
	"time"

	"sftree/internal/baseline"
	"sftree/internal/core"
	"sftree/internal/exact"
	"sftree/internal/graph"
	"sftree/internal/ilp"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
	"sftree/internal/sftilp"
	"sftree/internal/sim"
	"sftree/internal/topology"
	"sftree/internal/viz"
)

// Core domain types, re-exported from the internal model so that all
// solvers and the public API share one representation.
type (
	// Network is the NFV-enabled target network.
	Network = nfv.Network
	// Task is a multicast task (source, destinations, chain).
	Task = nfv.Task
	// SFC is a service function chain: VNF IDs in order.
	SFC = nfv.SFC
	// VNF is a catalog entry.
	VNF = nfv.VNF
	// Point is a 2-D node coordinate.
	Point = nfv.Point
	// Embedding is a solver result: instances plus per-destination walks.
	Embedding = nfv.Embedding
	// Instance is one placed VNF instance.
	Instance = nfv.Instance
	// Segment is one stage of a walk.
	Segment = nfv.Segment
	// Walk is a destination's full route.
	Walk = nfv.Walk
	// CostBreakdown splits a cost into setup and link parts.
	CostBreakdown = nfv.CostBreakdown
	// InstanceDoc is the JSON wire form of (network, task).
	InstanceDoc = nfv.InstanceDoc

	// Options tunes the two-stage algorithm and the baselines' shared
	// stage two.
	Options = core.Options
	// Result is a heuristic solver outcome.
	Result = core.Result

	// GenConfig controls random instance generation (paper Table I).
	GenConfig = netgen.Config

	// SimReport is the flow-level replay outcome.
	SimReport = sim.Report
)

// Steiner routine selectors for Options.Steiner.
const (
	SteinerKMB = core.SteinerKMB
	SteinerTM  = core.SteinerTM
)

// DefaultCatalog returns the built-in 30-entry VNF catalog.
func DefaultCatalog() []VNF { return nfv.DefaultCatalog() }

// DefaultGenConfig returns the paper's Table I generator settings for
// a network of the given size and setup-cost multiplier mu.
func DefaultGenConfig(nodes int, mu float64) GenConfig {
	return netgen.PaperConfig(nodes, mu)
}

// GenerateNetwork samples a connected ER network with full NFV
// metadata, deterministically from the seed.
func GenerateNetwork(cfg GenConfig, seed int64) (*Network, error) {
	return netgen.Generate(cfg, rand.New(rand.NewSource(seed)))
}

// GenerateTask samples a multicast task on the network.
func GenerateTask(net *Network, seed int64, numDest, chainLen int) (Task, error) {
	return netgen.GenerateTask(net, rand.New(rand.NewSource(seed)), numDest, chainLen)
}

// PalmettoNetwork materializes the reconstructed 45-node PalmettoNet
// backbone with the given generator settings (capacities, setup costs,
// deployments). Node coordinates and city names are included.
func PalmettoNetwork(cfg GenConfig, seed int64) (*Network, []string, error) {
	g, coords, names := topology.Palmetto()
	net, err := netgen.Materialize(g, coords, cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, nil, err
	}
	return net, names, nil
}

// SolveTwoStage runs the paper's two-stage algorithm (MSA + OPA). The
// returned embedding always passes Validate.
func SolveTwoStage(net *Network, task Task, opts Options) (*Result, error) {
	return core.Solve(net, task, opts)
}

// SolveStageOne runs only stage one (Algorithm 2), for ablations.
func SolveStageOne(net *Network, task Task, opts Options) (*Result, error) {
	return core.SolveStageOne(net, task, opts)
}

// SolveSCA runs the minimum-set-cover baseline with the shared stage
// two.
func SolveSCA(net *Network, task Task, opts Options) (*Result, error) {
	return baseline.SCA(net, task, opts)
}

// SolveRSA runs the random-selection baseline with the shared stage
// two, deterministically from the seed.
func SolveRSA(net *Network, task Task, seed int64, opts Options) (*Result, error) {
	return baseline.RSA(net, task, rand.New(rand.NewSource(seed)), opts)
}

// ILPOptions bounds the exact solver.
type ILPOptions struct {
	// MaxNodes caps branch-and-bound nodes (0: solver default).
	MaxNodes int
	// TimeLimit caps wall time (0: no limit). On expiry the solver
	// returns its best incumbent and bound instead of an optimum.
	TimeLimit time.Duration
	// WarmStart, when true, first runs the two-stage heuristic and uses
	// its cost as the initial incumbent.
	WarmStart bool
}

// ILPResult is the exact solver outcome.
type ILPResult struct {
	// Embedding is the best found integral solution (nil when none).
	Embedding *Embedding
	// Objective is its cost.
	Objective float64
	// Bound is the proven lower bound on the optimum.
	Bound float64
	// Proven reports whether Objective == optimum was proven.
	Proven bool
	// Nodes counts explored branch-and-bound nodes.
	Nodes int
}

// SolveILP solves the instance exactly with the built-in ILP stack
// (formulation 1a-1f over a two-phase simplex with branch and bound).
// Practical only for small instances; see DESIGN.md.
func SolveILP(net *Network, task Task, opts ILPOptions) (*ILPResult, error) {
	iopts := ilp.Options{MaxNodes: opts.MaxNodes, TimeLimit: opts.TimeLimit}
	if opts.WarmStart {
		if h, err := core.Solve(net, task, core.Options{}); err == nil {
			iopts.Incumbent = h.FinalCost + 1e-6
			iopts.HasIncumbent = true
		}
	}
	res, err := sftilp.SolveExact(net, task, iopts)
	if err != nil {
		return nil, err
	}
	out := &ILPResult{
		Objective: res.Objective,
		Bound:     res.Bound,
		Proven:    res.Status == ilp.Optimal,
		Nodes:     res.Nodes,
	}
	out.Embedding = res.Embedding
	if res.Status == ilp.Infeasible {
		return nil, fmt.Errorf("sftree: %w", core.ErrNoFeasible)
	}
	return out, nil
}

// SolveBestKnown computes the repository's strongest reference
// solution (exact SFC + exact Steiner sweep with stage-two refinement
// where tractable); see DESIGN.md for how it substitutes the paper's
// CPLEX optima.
func SolveBestKnown(net *Network, task Task) (*Result, error) {
	res, err := exact.BestKnown(net, task)
	if err != nil {
		return nil, err
	}
	return res.Result, nil
}

// LinkViolation reports one overloaded link (see SolveCapacityAware).
type LinkViolation = nfv.LinkViolation

// SolveCapacityAware extends the two-stage algorithm with per-link
// copy bounds (set via Network.SetLinkCapacity or the builder): it
// iterates a penalty method that reroutes around overloaded links.
// maxRounds of 0 uses the default budget.
func SolveCapacityAware(net *Network, task Task, opts Options, maxRounds int) (*Result, error) {
	return core.SolveCapacityAware(net, task, opts, maxRounds)
}

// Replay drives an embedding through the flow-level simulator,
// re-deriving its cost from observed transmissions and reporting
// per-edge load.
func Replay(net *Network, e *Embedding) (*SimReport, error) {
	return sim.Replay(net, e)
}

// RenderSVG draws the network (and, when emb is non-nil, its service
// function tree, stage by stage) as a standalone SVG document. The
// network must carry node coordinates. names, when non-nil, labels
// nodes; title is drawn when non-empty.
func RenderSVG(net *Network, emb *Embedding, names []string, title string) ([]byte, error) {
	return viz.RenderSVG(net, emb, viz.Options{Names: names, Title: title})
}

// RenderDOT emits the network (and optional embedding) as a Graphviz
// DOT document, for post-processing with the graphviz toolchain.
func RenderDOT(net *Network, emb *Embedding, names []string, title string) []byte {
	return viz.RenderDOT(net, emb, viz.Options{Names: names, Title: title})
}

// NetworkBuilder assembles a custom Network step by step; errors are
// accumulated and reported by Build so call sites stay linear.
type NetworkBuilder struct {
	nodes   int
	catalog []VNF
	coords  []Point
	links   []struct {
		u, v int
		cost float64
	}
	servers []struct {
		v   int
		cap float64
	}
	setups []struct {
		f, v int
		cost float64
	}
	deploys  []struct{ f, v int }
	linkCaps []struct{ u, v, copies int }
}

// NewNetworkBuilder starts a builder for a network with the given node
// count and VNF catalog (nil selects DefaultCatalog).
func NewNetworkBuilder(nodes int, catalog []VNF) *NetworkBuilder {
	if catalog == nil {
		catalog = nfv.DefaultCatalog()
	}
	return &NetworkBuilder{nodes: nodes, catalog: catalog}
}

// AddLink adds an undirected link with the given cost.
func (b *NetworkBuilder) AddLink(u, v int, cost float64) *NetworkBuilder {
	b.links = append(b.links, struct {
		u, v int
		cost float64
	}{u, v, cost})
	return b
}

// SetServer marks a node as VNF-capable with the given capacity.
func (b *NetworkBuilder) SetServer(v int, capacity float64) *NetworkBuilder {
	b.servers = append(b.servers, struct {
		v   int
		cap float64
	}{v, capacity})
	return b
}

// SetSetupCost sets the deployment cost of VNF f on node v.
func (b *NetworkBuilder) SetSetupCost(f, v int, cost float64) *NetworkBuilder {
	b.setups = append(b.setups, struct {
		f, v int
		cost float64
	}{f, v, cost})
	return b
}

// Deploy records a pre-deployed instance of VNF f on node v.
func (b *NetworkBuilder) Deploy(f, v int) *NetworkBuilder {
	b.deploys = append(b.deploys, struct{ f, v int }{f, v})
	return b
}

// SetLinkCapacity bounds the flow copies link {u,v} may carry
// (capacity-aware solving only; 0 means unlimited).
func (b *NetworkBuilder) SetLinkCapacity(u, v, copies int) *NetworkBuilder {
	b.linkCaps = append(b.linkCaps, struct{ u, v, copies int }{u, v, copies})
	return b
}

// SetCoords attaches node coordinates (optional, for reporting).
func (b *NetworkBuilder) SetCoords(coords []Point) *NetworkBuilder {
	b.coords = append([]Point(nil), coords...)
	return b
}

// Build materializes the network, returning the first error hit while
// applying the recorded operations.
func (b *NetworkBuilder) Build() (*Network, error) {
	g := graph.New(b.nodes)
	for _, l := range b.links {
		if _, err := g.AddEdge(l.u, l.v, l.cost); err != nil {
			return nil, fmt.Errorf("sftree: link %d-%d: %w", l.u, l.v, err)
		}
	}
	net := nfv.NewNetwork(g, b.catalog)
	if b.coords != nil {
		net.SetCoords(b.coords)
	}
	for _, s := range b.servers {
		if err := net.SetServer(s.v, s.cap); err != nil {
			return nil, fmt.Errorf("sftree: server %d: %w", s.v, err)
		}
	}
	for _, s := range b.setups {
		if err := net.SetSetupCost(s.f, s.v, s.cost); err != nil {
			return nil, fmt.Errorf("sftree: setup cost (%d,%d): %w", s.f, s.v, err)
		}
	}
	for _, d := range b.deploys {
		if err := net.Deploy(d.f, d.v); err != nil {
			return nil, fmt.Errorf("sftree: deploy (%d,%d): %w", d.f, d.v, err)
		}
	}
	for _, lc := range b.linkCaps {
		if err := net.SetLinkCapacity(lc.u, lc.v, lc.copies); err != nil {
			return nil, fmt.Errorf("sftree: link capacity %d-%d: %w", lc.u, lc.v, err)
		}
	}
	return net, nil
}
