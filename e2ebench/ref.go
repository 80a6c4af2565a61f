package main

import (
	"container/heap"
	"fmt"
	"slices"

	dynhl "repro"
)

// inf is the distance of a disconnected pair, the same sentinel the
// program answers with.
const inf = dynhl.Inf

// refArc is one outgoing arc of the reference graph.
type refArc struct{ to, w uint32 }

// refGraph is the benchmark's own copy of the graph: plain adjacency
// lists and textbook BFS/Dijkstra, sharing no code with the program, so
// that its distances are a computation made apart from the labelling
// under test. Undirected edges are stored as two arcs; unweighted graphs
// carry weight 1 on every arc.
type refGraph struct {
	directed bool
	weighted bool
	out      [][]refArc
}

func newRefGraph(n int, directed, weighted bool) *refGraph {
	return &refGraph{directed: directed, weighted: weighted, out: make([][]refArc, n)}
}

func (g *refGraph) numVertices() int { return len(g.out) }

func (g *refGraph) clone() *refGraph {
	c := &refGraph{directed: g.directed, weighted: g.weighted, out: make([][]refArc, len(g.out))}
	for v, as := range g.out {
		c.out[v] = append([]refArc(nil), as...)
	}
	return c
}

func (g *refGraph) hasArc(u, v uint32) bool {
	for _, a := range g.out[u] {
		if a.to == v {
			return true
		}
	}
	return false
}

func (g *refGraph) addArc(u, v, w uint32) { g.out[u] = append(g.out[u], refArc{v, w}) }

func (g *refGraph) removeArc(u, v uint32) bool {
	as := g.out[u]
	for i, a := range as {
		if a.to == v {
			as[i] = as[len(as)-1]
			g.out[u] = as[:len(as)-1]
			return true
		}
	}
	return false
}

// addEdge inserts u→v (and v→u when undirected); false when present.
func (g *refGraph) addEdge(u, v, w uint32) bool {
	if u == v || g.hasArc(u, v) {
		return false
	}
	if w == 0 || !g.weighted {
		w = 1
	}
	g.addArc(u, v, w)
	if !g.directed {
		g.addArc(v, u, w)
	}
	return true
}

func (g *refGraph) removeEdge(u, v uint32) bool {
	if !g.removeArc(u, v) {
		return false
	}
	if !g.directed {
		g.removeArc(v, u)
	}
	return true
}

// apply performs op with the program's update semantics, returning the
// new vertex id for insert_vertex.
func (g *refGraph) apply(op dynhl.Op) (uint32, error) {
	n := uint32(len(g.out))
	switch op.Kind {
	case dynhl.OpInsertEdge:
		if op.U >= n || op.V >= n || !g.addEdge(op.U, op.V, op.W) {
			return 0, fmt.Errorf("reference: insert_edge %d-%d is not a new edge", op.U, op.V)
		}
	case dynhl.OpDeleteEdge:
		if op.U >= n || op.V >= n || !g.removeEdge(op.U, op.V) {
			return 0, fmt.Errorf("reference: delete_edge %d-%d is not an edge", op.U, op.V)
		}
	case dynhl.OpInsertVertex:
		g.out = append(g.out, nil)
		for _, a := range op.Arcs {
			if a.To >= n {
				return 0, fmt.Errorf("reference: insert_vertex arc to unknown vertex %d", a.To)
			}
			u, v := n, a.To
			if a.In {
				u, v = v, u
			}
			if !g.addEdge(u, v, a.W) {
				return 0, fmt.Errorf("reference: insert_vertex repeats arc to %d", a.To)
			}
		}
		return n, nil
	default:
		return 0, fmt.Errorf("reference: unsupported op %v", op.Kind)
	}
	return 0, nil
}

// edges calls fn once per edge (once per undirected pair, u < v).
func (g *refGraph) edges(fn func(u, v, w uint32)) {
	for u, as := range g.out {
		for _, a := range as {
			if g.directed || uint32(u) < a.to {
				fn(uint32(u), a.to, a.w)
			}
		}
	}
}

func (g *refGraph) numEdges() int {
	m := 0
	g.edges(func(_, _, _ uint32) { m++ })
	return m
}

// distancesFrom fills dist (grown to the vertex count) with the distance
// from s to every vertex: BFS on unweighted graphs, Dijkstra otherwise.
func (g *refGraph) distancesFrom(s uint32, dist []uint32) []uint32 {
	n := len(g.out)
	if cap(dist) < n {
		dist = make([]uint32, n)
	}
	dist = dist[:n]
	for i := range dist {
		dist[i] = inf
	}
	dist[s] = 0
	if !g.weighted {
		q := []uint32{s}
		for len(q) > 0 {
			u := q[0]
			q = q[1:]
			for _, a := range g.out[u] {
				if dist[a.to] == inf {
					dist[a.to] = dist[u] + 1
					q = append(q, a.to)
				}
			}
		}
		return dist
	}
	pq := &distHeap{{s, 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.v] {
			continue
		}
		for _, a := range g.out[it.v] {
			if nd := it.d + a.w; nd < dist[a.to] {
				dist[a.to] = nd
				heap.Push(pq, distItem{a.to, nd})
			}
		}
	}
	return dist
}

type distItem struct{ v, d uint32 }

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// answer is one distance the program returned while being timed: the
// pair, the epoch it was served at and the distance.
type answer struct {
	p     dynhl.Pair
	epoch uint32
	d     uint32
}

// checkAnswers replays the write sequence on a copy of base and, at up to
// maxEpochs sampled epochs (always the first and the last epoch that
// served any), compares every answer from up to maxSources sources (the
// first to appear) against a fresh single-source search. Epoch e0+k is
// the graph after ops[:k]. It returns the number of answers checked.
func checkAnswers(base *refGraph, ops []dynhl.Op, e0 uint64, ans []answer, maxEpochs, maxSources int) (int, error) {
	byEpoch := make(map[uint32][]answer)
	var epochs []uint32
	for _, a := range ans {
		if _, ok := byEpoch[a.epoch]; !ok {
			epochs = append(epochs, a.epoch)
		}
		byEpoch[a.epoch] = append(byEpoch[a.epoch], a)
	}
	slices.Sort(epochs)
	picked := sampleEvenly(epochs, maxEpochs)
	g := base.clone()
	applied := 0
	checked := 0
	var dist []uint32
	for _, e := range picked {
		k := int(uint64(e) - e0)
		if uint64(e) < e0 || k > len(ops) {
			return checked, fmt.Errorf("answer served at epoch %d, outside the sequence's epochs %d..%d", e, e0, e0+uint64(len(ops)))
		}
		for ; applied < k; applied++ {
			if _, err := g.apply(ops[applied]); err != nil {
				return checked, err
			}
		}
		var sources []uint32
		bySource := make(map[uint32][]answer)
		for _, a := range byEpoch[e] {
			if _, ok := bySource[a.p.U]; !ok {
				if len(sources) == maxSources {
					continue
				}
				sources = append(sources, a.p.U)
			}
			bySource[a.p.U] = append(bySource[a.p.U], a)
		}
		for _, s := range sources {
			dist = g.distancesFrom(s, dist)
			for _, a := range bySource[s] {
				if want := dist[a.p.V]; a.d != want {
					return checked, fmt.Errorf("epoch %d: d(%d,%d) = %d, reference search says %d", e, a.p.U, a.p.V, a.d, want)
				}
				checked++
			}
		}
	}
	return checked, nil
}

// sampleEvenly returns at most k elements of xs spread evenly, always
// keeping the first and the last.
func sampleEvenly(xs []uint32, k int) []uint32 {
	if len(xs) <= k || k < 2 {
		return xs
	}
	out := make([]uint32, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, xs[i*(len(xs)-1)/(k-1)])
	}
	return out
}
