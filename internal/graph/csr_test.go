package graph

import (
	"math"
	"math/rand"
	"testing"
)

// TestCSRMatchesAdjacency checks that the CSR view preserves the
// adjacency lists exactly — same neighbors, costs, and edge ids in the
// same order — since Dijkstra tie-breaking depends on arc order.
func TestCSRMatchesAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := New(40)
	for i := 0; i < 120; i++ {
		u, v := rng.Intn(40), rng.Intn(40)
		if u == v {
			continue
		}
		if _, err := g.AddEdge(u, v, 1+rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	c := g.CSR()
	if c.N != g.NumNodes() {
		t.Fatalf("CSR has %d nodes, graph %d", c.N, g.NumNodes())
	}
	for u := 0; u < g.NumNodes(); u++ {
		arcs := g.Neighbors(u)
		row := c.Start[u+1] - c.Start[u]
		if int(row) != len(arcs) {
			t.Fatalf("node %d: CSR row %d arcs, adjacency %d", u, row, len(arcs))
		}
		for i, a := range arcs {
			p := c.Start[u] + int32(i)
			if int(c.To[p]) != a.To || c.Cost[p] != a.Cost || int(c.EdgeID[p]) != a.Edge {
				t.Fatalf("node %d arc %d: CSR (%d,%v,%d) != adjacency (%d,%v,%d)",
					u, i, c.To[p], c.Cost[p], c.EdgeID[p], a.To, a.Cost, a.Edge)
			}
		}
	}
}

// TestCSRGenerationInvalidation checks that mutating the graph after a
// CSR build produces a fresh CSR, while repeated calls without
// mutation return the cached one.
func TestCSRGenerationInvalidation(t *testing.T) {
	g := New(4)
	if _, err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	c1 := g.CSR()
	if c2 := g.CSR(); c2 != c1 {
		t.Fatal("unmutated graph rebuilt its CSR")
	}
	gen := g.Generation()
	if _, err := g.AddEdge(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if g.Generation() == gen {
		t.Fatal("AddEdge did not advance the generation")
	}
	c3 := g.CSR()
	if c3 == c1 {
		t.Fatal("mutated graph returned the stale CSR")
	}
	if c3.NumArcs() != c1.NumArcs()+2 {
		t.Fatalf("rebuilt CSR has %d arcs, want %d", c3.NumArcs(), c1.NumArcs()+2)
	}
}

// TestDCSRDijkstra checks the directed CSR builder end to end: exact
// arc counts, fill order, and a Dijkstra run against hand-computed
// distances on a small DAG.
func TestDCSRDijkstra(t *testing.T) {
	// 0 -> 1 (1), 0 -> 2 (4), 1 -> 2 (2), 2 -> 3 (1), 1 -> 3 (5)
	d := NewDCSR([]int32{2, 2, 1, 0})
	d.AddArc(0, 1, 1)
	d.AddArc(0, 2, 4)
	d.AddArc(1, 2, 2)
	d.AddArc(1, 3, 5)
	d.AddArc(2, 3, 1)
	if d.NumNodes() != 4 || d.NumArcs() != 5 {
		t.Fatalf("got %d nodes / %d arcs, want 4 / 5", d.NumNodes(), d.NumArcs())
	}
	tree := d.Dijkstra(0)
	want := []float64{0, 1, 3, 4}
	for v, dist := range want {
		if tree.Dist[v] != dist {
			t.Errorf("dist[%d] = %v, want %v", v, tree.Dist[v], dist)
		}
	}
	if path := tree.PathTo(3); len(path) != 4 || path[0] != 0 || path[1] != 1 || path[2] != 2 || path[3] != 3 {
		t.Errorf("PathTo(3) = %v, want [0 1 2 3]", path)
	}
}

// TestDigraphDijkstraRespectsDirection checks that Dijkstra over the
// directed CSR follows arcs only forward.
func TestDigraphDijkstraRespectsDirection(t *testing.T) {
	d := NewDCSR([]int32{1, 1, 0})
	d.AddArc(0, 1, 1)
	d.AddArc(1, 2, 1)
	fwd := d.Dijkstra(0)
	if fwd.Dist[2] != 2 {
		t.Errorf("dist 0->2 = %v, want 2", fwd.Dist[2])
	}
	back := d.Dijkstra(2)
	if !math.IsInf(back.Dist[0], 1) {
		t.Errorf("dist 2->0 = %v, want Inf (arcs are directed)", back.Dist[0])
	}
}

// TestDigraphDijkstraPath checks that a cheaper multi-hop route beats a
// direct arc that was added first.
func TestDigraphDijkstraPath(t *testing.T) {
	// Two routes 0->3: direct cost 10, via 1,2 cost 3.
	d := NewDCSR([]int32{2, 1, 1, 0})
	for _, arc := range []struct {
		u, v int
		c    float64
	}{{0, 3, 10}, {0, 1, 1}, {1, 2, 1}, {2, 3, 1}} {
		d.AddArc(arc.u, arc.v, arc.c)
	}
	tr := d.Dijkstra(0)
	if tr.Dist[3] != 3 {
		t.Fatalf("dist = %v, want 3", tr.Dist[3])
	}
	p := tr.PathTo(3)
	want := []int{0, 1, 2, 3}
	if len(p) != len(want) {
		t.Fatalf("path = %v, want %v", p, want)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path = %v, want %v", p, want)
		}
	}
}

// TestDCSROverfillPanics checks the arc-exact invariant: adding more
// arcs to a row than declared must panic instead of corrupting a
// neighboring row.
func TestDCSROverfillPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("over-filled DCSR row did not panic")
		}
	}()
	d := NewDCSR([]int32{1, 0})
	d.AddArc(0, 1, 1)
	d.AddArc(0, 1, 2) // one more than declared
}
