package main

import (
	"fmt"
	"math/rand"
	"time"

	dynhl "repro"
	"repro/internal/dataset"
)

// variant is the index family a workload drives.
type variant int

const (
	undirected variant = iota
	directed
	weighted
)

func (v variant) String() string {
	return [...]string{"undirected", "directed", "weighted"}[v]
}

// spec fixes everything about a workload except its seed.
type spec struct {
	name    string
	dataset string  // Table 2 proxy in internal/dataset
	scale   float64 // proxy scale factor
	variant variant

	reciprocal float64 // directed: share of edges kept in both directions
	maxWeight  int     // weighted: edge weights drawn from 1..maxWeight
	window     bool    // new arcs stay inside the generator's locality window

	// The write sequence: this many insert_edge, insert_vertex and
	// delete_edge ops, interleaved in rounds, with pause between them.
	insertEdges, insertVertices, deletes int
	pause                                time.Duration

	batchEvery int // every batchEvery-th read is a batch ...
	batchPairs int // ... of this many pairs

	// repairWorkers is the store's repair fan-out (0: GOMAXPROCS). The
	// paced workloads use 1, so that on a two-core host the reader and the
	// writer each keep a core; weighted-churn fans out and contends.
	repairWorkers int

	setups   int  // set-ups per run; setup_s is their median
	restarts int  // restarts per run; recover_s is their median
	http     bool // served over loopback HTTP with a WAL (fsync=always)
}

var specs = []spec{
	{
		name: "social-http", dataset: "Livejournal", scale: 2, variant: undirected,
		insertEdges: 480, insertVertices: 120, deletes: 160, pause: 5 * time.Millisecond,
		batchEvery: 64, batchPairs: 16, repairWorkers: 1, setups: 5, restarts: 11, http: true,
	},
	{
		name: "web-directed", dataset: "Indochina", scale: 1, variant: directed,
		reciprocal: 0.2, window: true,
		insertEdges: 1200, deletes: 250, pause: 2 * time.Millisecond,
		batchEvery: 64, batchPairs: 16, repairWorkers: 1, setups: 5, restarts: 11,
	},
	{
		name: "weighted-churn", dataset: "Livejournal", scale: 1, variant: weighted,
		maxWeight:   8,
		insertEdges: 1800, insertVertices: 400, deletes: 900,
		batchEvery: 64, batchPairs: 16, setups: 5, restarts: 11,
	},
}

func lookupSpec(name string) (spec, error) {
	var names []string
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// The final sample is checkSources × checkTargets pairs over the final
// graph; the probes use probePairs pairs over the initial vertices.
const (
	checkSources = 8
	checkTargets = 32
	probePairs   = 512
)

// inputs is everything a run generates from its seed before the program
// sees anything.
type inputs struct {
	spec
	seed  int64
	base  *refGraph    // the graph handed to the program
	final *refGraph    // base after the whole write sequence
	ops   []dynhl.Op   // the write sequence, valid in order against base
	check []dynhl.Pair // pairs checked after the phase and each restart
	probe []dynhl.Pair // pairs of the untimed probes: first queries, trace
}

// proxySeed fixes each workload's proxy graph, with its orientation or
// weights; the run's seed draws everything done to it. Seeded graphs
// moved the label size by up to ±10 % and the mean deletion cost by up to
// ±25 % between seeds (the weights and the few hub-to-hub edges decide
// which landmarks cover what), wider than any useful bound.
const proxySeed = 1

// generate builds a workload's inputs: the proxy graph, then from seed
// the write sequence and the sample pairs. The reader draws its own pairs
// from the same seed.
func generate(s spec, seed int64) (*inputs, error) {
	ds, err := dataset.Lookup(s.dataset)
	if err != nil {
		return nil, err
	}
	ug := dataset.Generate(ds, s.scale, proxySeed)
	rng := rand.New(rand.NewSource(proxySeed))
	n := ug.NumVertices()
	base := newRefGraph(n, s.variant == directed, s.variant == weighted)
	ug.Edges(func(u, v uint32) {
		switch s.variant {
		case directed:
			switch {
			case rng.Float64() < s.reciprocal:
				base.addEdge(u, v, 1)
				base.addEdge(v, u, 1)
			case rng.Intn(2) == 0:
				base.addEdge(u, v, 1)
			default:
				base.addEdge(v, u, 1)
			}
		case weighted:
			base.addEdge(u, v, s.weight(rng))
		default:
			base.addEdge(u, v, 1)
		}
	})
	in := &inputs{spec: s, seed: seed, base: base}
	rng = rand.New(rand.NewSource(seed*7919 + 17))
	span := int(float64(ds.WebSpan) * s.scale)
	if in.ops, err = in.sequence(rng, span); err != nil {
		return nil, err
	}
	in.final = base.clone()
	for _, op := range in.ops {
		if _, err := in.final.apply(op); err != nil {
			return nil, err
		}
	}
	in.probe = pairs(rng, probePairs, 1, n)
	in.check = pairs(rng, checkSources, checkTargets, in.final.numVertices())
	return in, nil
}

func (s spec) weight(rng *rand.Rand) uint32 {
	if s.variant != weighted {
		return 0
	}
	return uint32(1 + rng.Intn(s.maxWeight))
}

// sequence generates the write ops in rounds: each round holds its share
// of insert_edge and insert_vertex ops in seeded order, then its
// deletes, each removing an edge an earlier insert_edge of the sequence
// added and no later op has removed. Every op is valid in order, so none
// fails and every run with the same seed does the same repair work.
func (in *inputs) sequence(rng *rand.Rand, span int) ([]dynhl.Op, error) {
	const rounds = 10
	g := in.base.clone()
	var ops []dynhl.Op
	var live []dynhl.Op // inserted edges still present
	for r := 0; r < rounds; r++ {
		share := func(total int) int { return total*(r+1)/rounds - total*r/rounds }
		var kinds []dynhl.OpKind
		for i := share(in.insertEdges); i > 0; i-- {
			kinds = append(kinds, dynhl.OpInsertEdge)
		}
		for i := share(in.insertVertices); i > 0; i-- {
			kinds = append(kinds, dynhl.OpInsertVertex)
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		ws := in.weights(rng, share(in.insertEdges))
		for _, k := range kinds {
			var op dynhl.Op
			if k == dynhl.OpInsertEdge {
				op = in.newEdge(rng, g, span, ws[0])
				ws = ws[1:]
				live = append(live, op)
			} else {
				op = in.newVertex(rng, g)
			}
			if _, err := g.apply(op); err != nil {
				return nil, err
			}
			ops = append(ops, op)
		}
		for _, w := range in.weights(rng, share(in.deletes)) {
			if len(live) == 0 {
				return nil, fmt.Errorf("workload %s: no inserted edge left to delete", in.name)
			}
			j := pickLive(rng, live, w)
			op := dynhl.DeleteEdgeOp(live[j].U, live[j].V)
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			if _, err := g.apply(op); err != nil {
				return nil, err
			}
			ops = append(ops, op)
		}
	}
	return ops, nil
}

// weights returns n edge weights for a round: on the weighted workload
// every weight of 1..maxWeight equally often (up to n mod maxWeight), in
// seeded order, since an edge's weight decides most of what inserting or
// deleting it costs; 0 (unit) elsewhere.
func (in *inputs) weights(rng *rand.Rand, n int) []uint32 {
	ws := make([]uint32, n)
	if in.variant != weighted {
		return ws
	}
	extra := rng.Perm(in.maxWeight)
	for i := range ws {
		if i < n-n%in.maxWeight {
			ws[i] = uint32(1 + i%in.maxWeight)
		} else {
			ws[i] = uint32(1 + extra[i%in.maxWeight])
		}
	}
	rng.Shuffle(n, func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	return ws
}

// pickLive picks a random live edge of weight w, or any live edge when
// none has it (or w is 0).
func pickLive(rng *rand.Rand, live []dynhl.Op, w uint32) int {
	var idx []int
	for i, op := range live {
		if w != 0 && op.W == w {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return rng.Intn(len(live))
	}
	return idx[rng.Intn(len(idx))]
}

// newEdge picks an edge of weight w absent from g: uniform endpoints, or
// on a windowed workload a source and a target at most span positions
// before it in crawl order, oriented by a coin.
func (in *inputs) newEdge(rng *rand.Rand, g *refGraph, span int, w uint32) dynhl.Op {
	n := g.numVertices()
	for {
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if in.window {
			back := 1 + rng.Intn(span)
			if int(u) < back {
				continue
			}
			v = u - uint32(back)
			if rng.Intn(2) == 0 {
				u, v = v, u
			}
		}
		if u != v && !g.hasArc(u, v) {
			return dynhl.InsertEdgeOp(u, v, w)
		}
	}
}

// newVertex joins a new vertex to three distinct existing vertices.
func (in *inputs) newVertex(rng *rand.Rand, g *refGraph) dynhl.Op {
	n := g.numVertices()
	arcs := make([]dynhl.Arc, 0, 3)
	for len(arcs) < 3 {
		to := uint32(rng.Intn(n))
		dup := false
		for _, a := range arcs {
			dup = dup || a.To == to
		}
		if !dup {
			arcs = append(arcs, dynhl.Arc{To: to, W: in.weight(rng), In: in.variant == directed && rng.Intn(2) == 0})
		}
	}
	return dynhl.InsertVertexOp(arcs...)
}

// pairs draws sources × targets pairs over vertices 0..n-1, grouped by
// source.
func pairs(rng *rand.Rand, sources, targets, n int) []dynhl.Pair {
	out := make([]dynhl.Pair, 0, sources*targets)
	for i := 0; i < sources; i++ {
		u := uint32(rng.Intn(n))
		for j := 0; j < targets; j++ {
			out = append(out, dynhl.Pair{U: u, V: uint32(rng.Intn(n))})
		}
	}
	return out
}

// oracleGraph is the base graph converted into the program's own graph
// type, made before set-up is timed.
type oracleGraph struct {
	g  *dynhl.Graph
	dg *dynhl.Digraph
	wg *dynhl.WeightedGraph
}

// toProgram converts g into the program's graph type for its variant.
func (g *refGraph) toProgram(v variant) oracleGraph {
	n := g.numVertices()
	var og oracleGraph
	switch v {
	case directed:
		og.dg = dynhl.NewDigraph(n)
		for i := 0; i < n; i++ {
			og.dg.AddVertex()
		}
		g.edges(func(u, w, _ uint32) { og.dg.MustAddEdge(u, w) })
	case weighted:
		og.wg = dynhl.NewWeightedGraph(n)
		for i := 0; i < n; i++ {
			og.wg.AddVertex()
		}
		g.edges(func(u, w, wt uint32) { og.wg.MustAddEdge(u, w, wt) })
	default:
		og.g = dynhl.NewGraph(n)
		for i := 0; i < n; i++ {
			og.g.AddVertex()
		}
		g.edges(func(u, w, _ uint32) { og.g.MustAddEdge(u, w) })
	}
	return og
}

// build runs the program's index construction on og: with the default
// landmark choice when lms is nil, else with exactly lms.
func (og oracleGraph) build(lms []uint32) (dynhl.Oracle, error) {
	opt := dynhl.Options{Landmarks: 20}
	switch {
	case og.dg != nil && lms == nil:
		return dynhl.BuildDirected(og.dg, opt)
	case og.dg != nil:
		return dynhl.BuildDirectedWithLandmarks(og.dg, lms, opt)
	case og.wg != nil && lms == nil:
		return dynhl.BuildWeighted(og.wg, opt)
	case og.wg != nil:
		return dynhl.BuildWeightedWithLandmarks(og.wg, lms, opt)
	case lms == nil:
		return dynhl.Build(og.g, opt)
	default:
		return dynhl.BuildWithLandmarks(og.g, lms, opt)
	}
}

// landmarksOf returns the landmark set of a program index.
func landmarksOf(o dynhl.Oracle) ([]uint32, error) {
	if l, ok := o.(interface{ Landmarks() []uint32 }); ok {
		return l.Landmarks(), nil
	}
	return nil, fmt.Errorf("oracle %T does not report its landmarks", o)
}
