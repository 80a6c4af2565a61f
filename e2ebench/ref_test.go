package main

import (
	"math/rand"
	"testing"

	dynhl "repro"
)

// floyd is exhaustive all-pairs shortest paths, the yardstick the
// reference searches are tested against.
func floyd(g *refGraph) [][]uint32 {
	n := g.numVertices()
	d := make([][]uint32, n)
	for i := range d {
		d[i] = make([]uint32, n)
		for j := range d[i] {
			d[i][j] = inf
		}
		d[i][i] = 0
		for _, a := range g.out[i] {
			d[i][a.to] = min(d[i][a.to], a.w)
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if d[i][k] == inf {
				continue
			}
			for j := 0; j < n; j++ {
				if d[k][j] != inf && d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	return d
}

func randomRef(rng *rand.Rand, n, m int, v variant) *refGraph {
	g := newRefGraph(n, v == directed, v == weighted)
	for i := 0; i < m; i++ {
		g.addEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)), uint32(1+rng.Intn(8)))
	}
	return g
}

func TestDistancesMatchAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, v := range []variant{undirected, directed, weighted} {
		for trial := 0; trial < 20; trial++ {
			n := 5 + rng.Intn(40)
			g := randomRef(rng, n, rng.Intn(3*n), v)
			want := floyd(g)
			var dist []uint32
			for s := 0; s < n; s++ {
				dist = g.distancesFrom(uint32(s), dist)
				for x := 0; x < n; x++ {
					if dist[x] != want[s][x] {
						t.Fatalf("%v trial %d: d(%d,%d) = %d, all-pairs says %d", v, trial, s, x, dist[x], want[s][x])
					}
				}
			}
		}
	}
}

func TestApplyFollowsUpdateSemantics(t *testing.T) {
	g := newRefGraph(3, true, false)
	for _, op := range []dynhl.Op{
		dynhl.InsertEdgeOp(0, 1, 0),
		dynhl.InsertEdgeOp(1, 2, 0),
		dynhl.InsertVertexOp(dynhl.Arc{To: 2, In: true}, dynhl.Arc{To: 0}),
	} {
		if _, err := g.apply(op); err != nil {
			t.Fatal(err)
		}
	}
	// 0→1→2→3→0: the new vertex 3 has the arcs 2→3 and 3→0.
	d := floyd(g)
	if d[0][3] != 3 || d[3][2] != 3 || d[3][0] != 1 {
		t.Fatalf("distances after insert_vertex: %v", d)
	}
	if _, err := g.apply(dynhl.InsertEdgeOp(0, 1, 0)); err == nil {
		t.Fatal("inserting an existing edge succeeded")
	}
	if _, err := g.apply(dynhl.DeleteEdgeOp(1, 0)); err == nil {
		t.Fatal("deleting the reverse of a directed arc succeeded")
	}
	if _, err := g.apply(dynhl.DeleteEdgeOp(0, 1)); err != nil {
		t.Fatal(err)
	}
	if d := floyd(g); d[0][1] != inf {
		t.Fatalf("d(0,1) = %d after deleting the only path", d[0][1])
	}
}

// TestCheckAnswersReplaysEpochs feeds the checker the exact answers of
// sample pairs at every epoch of a random sequence, then one wrong answer
// and one from an epoch past the sequence, which it must catch.
func TestCheckAnswersReplaysEpochs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, v := range []variant{undirected, directed, weighted} {
		in := &inputs{spec: spec{name: "test", variant: v, maxWeight: 8, insertEdges: 12, insertVertices: 4, deletes: 6}}
		in.base = randomRef(rng, 30, 60, v)
		ops, err := in.sequence(rng, 10)
		if err != nil {
			t.Fatal(err)
		}
		pool := pairs(rng, 4, 8, 30)
		const e0 = 5
		var ans []answer
		g := in.base.clone()
		for k := 0; k <= len(ops); k++ {
			d := floyd(g)
			for _, p := range pool {
				ans = append(ans, answer{p, uint32(e0 + k), d[p.U][p.V]})
			}
			if k < len(ops) {
				if _, err := g.apply(ops[k]); err != nil {
					t.Fatal(err)
				}
			}
		}
		n, err := checkAnswers(in.base, ops, e0, ans, len(ops)+1, len(pool))
		if err != nil || n != len(ans) {
			t.Fatalf("%v: checked %d of %d exact answers: %v", v, n, len(ans), err)
		}
		bad := append([]answer(nil), ans...)
		bad[len(bad)/2].d++
		if _, err := checkAnswers(in.base, ops, e0, bad, len(ops)+1, len(pool)); err == nil {
			t.Fatalf("%v: a wrong answer passed the checker", v)
		}
		late := append([]answer(nil), ans...)
		late[0].epoch = e0 + uint32(len(ops)) + 1
		if _, err := checkAnswers(in.base, ops, e0, late, len(ops)+2, len(pool)); err == nil {
			t.Fatalf("%v: an answer from an epoch past the sequence passed the checker", v)
		}
	}
}

// TestStoreAgreesWithChecker runs a small sequence through the program's
// Store and holds every pair of the final graph, the final-sample check
// and the minimality check against exhaustive all-pairs distances.
func TestStoreAgreesWithChecker(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, v := range []variant{undirected, directed, weighted} {
		in := &inputs{spec: spec{name: "test", variant: v, maxWeight: 8, insertEdges: 20, insertVertices: 5, deletes: 8}}
		in.base = randomRef(rng, 40, 120, v)
		var err error
		if in.ops, err = in.sequence(rng, 10); err != nil {
			t.Fatal(err)
		}
		in.final = in.base.clone()
		for _, op := range in.ops {
			if _, err := in.final.apply(op); err != nil {
				t.Fatal(err)
			}
		}
		o, err := in.base.toProgram(v).build([]uint32{0, 1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		st := dynhl.NewStore(o)
		if _, err := st.Apply(in.ops); err != nil {
			t.Fatal(err)
		}
		want := floyd(in.final)
		for u := range want {
			for x := range want[u] {
				if got := st.Query(uint32(u), uint32(x)); got != want[u][x] {
					t.Fatalf("%v: store d(%d,%d) = %d, all-pairs says %d", v, u, x, got, want[u][x])
				}
			}
		}
		in.check = pairs(rng, 4, 8, in.final.numVertices())
		if err := checkFinal(storeTarget{st}, in, 1); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if err := checkMinimal(st, in); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
	}
}
