package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	dynhl "repro"
	"repro/internal/bfs"
	"repro/internal/dhcl"
	"repro/internal/hcl"
	"repro/internal/obs"
	"repro/internal/wgraph"
	"repro/internal/whcl"
)

// scrape reads the Prometheus exposition of the given registries into a
// map from series (name plus rendered labels) to value.
func scrape(regs []*obs.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := obs.WriteAll(&buf, regs...); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is the change of the store's own counters over the timed phase.
type delta struct{ before, after map[string]float64 }

func (d delta) get(series string) float64 { return d.after[series] - d.before[series] }

// mean is the average per observation of a histogram over the phase, in
// the histogram's unit (seconds for durations); 0 when it saw nothing.
func (d delta) mean(name, labels string) float64 {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	n := d.get(name + "_count" + labels)
	if n == 0 {
		return 0
	}
	return d.get(name+"_sum"+labels) / n
}

// handlerTimer times the HTTP handler from outside it: a wrapper around
// Server.Handler() in the benchmark, not tracing in the program.
type handlerTimer struct {
	readNs, readN, updNs, updN atomic.Int64
}

func (h *handlerTimer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		el := time.Since(t0).Nanoseconds()
		switch r.URL.Path {
		case "/distance":
			h.readNs.Add(el)
			h.readN.Add(1)
		case "/updates":
			h.updNs.Add(el)
			h.updN.Add(1)
		}
	})
}

type handlerCounts struct{ readNs, readN, updNs, updN int64 }

func (h *handlerTimer) counts() handlerCounts {
	return handlerCounts{h.readNs.Load(), h.readN.Load(), h.updNs.Load(), h.updN.Load()}
}

func perOp(ns, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

// discardWriter is a ResponseWriter that keeps nothing, so that the
// allocation probe counts only the handler's own allocations.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// allocsPerRead calls the /distance handler without a socket over the
// probe pairs and returns the heap allocations per call.
func allocsPerRead(h http.Handler, in *inputs) float64 {
	const n = 512
	reqs := make([]*http.Request, n)
	for i := range reqs {
		p := in.probe[i%len(in.probe)]
		reqs[i] = httptest.NewRequest(http.MethodGet, fmt.Sprintf("/distance?u=%d&v=%d", p.U, p.V), nil)
	}
	w := &discardWriter{h: make(http.Header)}
	serve := func() {
		for _, r := range reqs {
			clear(w.h)
			h.ServeHTTP(w, r)
		}
	}
	serve() // warm
	before := memStats()
	serve()
	after := memStats()
	return float64(after.Mallocs-before.Mallocs) / n
}

// kernelProbe times the two halves of a query on a fresh index of the
// final graph with the store's landmarks: the Eq. 2 upper bound
// (UpperBound) and the bounded search under it (Sparsified), each per
// read over the probe pairs and timed as a loop, not per call. The search
// runs only where the program's Query runs it, and its answers are
// checked against the reference first.
func kernelProbe(in *inputs, lms []uint32) (boundUS, searchUS float64, err error) {
	const boundPasses = 20
	ps := in.probe
	og := in.final.toProgram(in.variant)
	var bound func(u, v uint32) dynhl.Dist
	var search func(u, v uint32, top dynhl.Dist) dynhl.Dist
	var needsSearch func(u, v uint32, top dynhl.Dist) bool
	switch in.variant {
	case directed:
		idx, err := dhcl.Build(og.dg, lms)
		if err != nil {
			return 0, 0, err
		}
		idx.Pack()
		isL := func(x uint32) bool { _, ok := idx.Rank(x); return ok }
		var pool bfs.SpacePool
		bound = idx.UpperBound
		needsSearch = func(u, v uint32, top dynhl.Dist) bool { return !isL(u) && !isL(v) && top > 1 }
		search = func(u, v uint32, top dynhl.Dist) dynhl.Dist {
			s := pool.Get(og.dg.NumVertices())
			d := og.dg.Sparsified(u, v, top, isL, s)
			pool.Put(s)
			return d
		}
	case weighted:
		idx, err := whcl.Build(og.wg, lms)
		if err != nil {
			return 0, 0, err
		}
		idx.Pack()
		isL := func(x uint32) bool { _, ok := idx.Rank(x); return ok }
		var pool wgraph.SpacePool
		bound = idx.UpperBound
		needsSearch = func(u, v uint32, _ dynhl.Dist) bool { return !isL(u) && !isL(v) }
		search = func(u, v uint32, top dynhl.Dist) dynhl.Dist {
			s := pool.Get(og.wg.NumVertices())
			d := og.wg.Sparsified(u, v, top, isL, s)
			pool.Put(s)
			return d
		}
	default:
		idx, err := hcl.Build(og.g, lms)
		if err != nil {
			return 0, 0, err
		}
		idx.Pack()
		var pool bfs.SpacePool
		bound = idx.UpperBound
		needsSearch = func(u, v uint32, top dynhl.Dist) bool {
			return top > 1 && !idx.IsLandmark(u) && !idx.IsLandmark(v)
		}
		search = func(u, v uint32, top dynhl.Dist) dynhl.Dist {
			s := pool.Get(og.g.NumVertices())
			d := bfs.Sparsified(og.g, u, v, top, idx.IsLandmark, s)
			pool.Put(s)
			return d
		}
	}
	tops := make([]dynhl.Dist, len(ps))
	t0 := time.Now()
	for pass := 0; pass < boundPasses; pass++ {
		for i, p := range ps {
			if p.U != p.V {
				tops[i] = bound(p.U, p.V)
			}
		}
	}
	boundUS = float64(time.Since(t0).Microseconds()) / float64(boundPasses*len(ps))
	var dist []uint32
	for i, p := range ps {
		if p.U != p.V && needsSearch(p.U, p.V, tops[i]) {
			dist = in.final.distancesFrom(p.U, dist)
			if d := min(search(p.U, p.V, tops[i]), tops[i]); d != dist[p.V] {
				return 0, 0, fmt.Errorf("kernel probe: d(%d,%d) = %d on a fresh index, reference search says %d", p.U, p.V, d, dist[p.V])
			}
		}
	}
	// The checked pass above warmed the caches; time a second pass, as
	// the reader's loop runs hot.
	t1 := time.Now()
	for i, p := range ps {
		if p.U != p.V && needsSearch(p.U, p.V, tops[i]) {
			search(p.U, p.V, tops[i])
		}
	}
	searchUS = float64(time.Since(t1).Microseconds()) / float64(len(ps))
	return boundUS, searchUS, nil
}
