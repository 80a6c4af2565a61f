package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	dynhl "repro"
	"repro/internal/httpapi"
	"repro/internal/wal"
)

const (
	warmUpTime     = 500 * time.Millisecond
	checkedEpochs  = 24 // epochs whose timed answers the checker replays
	checkedSources = 96 // sources per sampled epoch whose answers it checks
	shutdownBudget = 10 * time.Second
)

// env is one run: its inputs, settings and the resources it must release.
type env struct {
	in      *inputs
	seconds int
	trace   bool
	tmp     string // scratch directory inside the checkout
	client  *http.Client
	ht      *handlerTimer // non-nil when tracing an HTTP workload
	logf    func(format string, args ...any)
}

// timing collects what runSocial and runInProc measure around the phase.
type timing struct {
	setups, builds, recovers []float64 // seconds
	ph                       *phase
	dlt                      delta
	hc                       handlerCounts // handler time over the phase
	heapMB, indexMB, diskMB  float64
	entriesPerVertex         float64
	mappedMB                 float64
	checkpointMS             float64
	allocsPerRead            float64
	boundUS, searchUS        float64
}

// server is one boot of the HTTP service over a durable store.
type server struct {
	d    *wal.Durable
	api  *httpapi.Server
	hs   *http.Server
	done chan error
	t    httpTarget
}

func (e *env) walOptions() wal.Options {
	return wal.Options{Fsync: wal.SyncAlways, Logf: e.logf}
}

// serve puts d behind the HTTP API on a fresh loopback listener. On
// error d is closed.
func (e *env) serve(d *wal.Durable) (*server, error) {
	d.Store().SetRepairWorkers(e.in.repairWorkers)
	api := httpapi.New(d.Store(), httpapi.WithDurability(d))
	h := api.Handler()
	if e.ht != nil {
		h = e.ht.wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, d.Close())
	}
	s := &server{
		d:    d,
		api:  api,
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: shutdownBudget},
		done: make(chan error, 1),
		t:    httpTarget{c: e.client, base: "http://" + ln.Addr().String()},
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close shuts the server down gracefully, waits for Serve to return and
// closes the durable store (which takes its final checkpoint).
func (e *env) close(s *server) error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownBudget)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	e.client.CloseIdleConnections()
	return errors.Join(err, s.d.Close())
}

// runSocial drives social-http: a durable store behind the HTTP API,
// timed, checked, then closed and recovered from its data dir.
func runSocial(e *env) (_ *timing, err error) {
	in := e.in
	tm := &timing{}
	var srv *server
	defer func() {
		if srv != nil {
			err = errors.Join(err, e.close(srv))
		}
	}()
	var dir string
	for i := 0; i < in.setups; i++ {
		if srv != nil {
			if err := e.close(srv); err != nil {
				return nil, err
			}
			srv = nil
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		og := in.base.toProgram(undirected)
		dir = filepath.Join(e.tmp, fmt.Sprintf("data%d", i))
		runtime.GC()
		t0 := time.Now()
		o, err := og.build(nil)
		if err != nil {
			return nil, err
		}
		tm.builds = append(tm.builds, time.Since(t0).Seconds())
		d, err := wal.Create(dir, o, e.walOptions())
		if err != nil {
			return nil, err
		}
		if srv, err = e.serve(d); err != nil {
			return nil, err
		}
		if _, _, err := srv.t.query(in.probe[0]); err != nil {
			return nil, fmt.Errorf("first query: %w", err)
		}
		tm.setups = append(tm.setups, time.Since(t0).Seconds())
	}

	st := srv.d.Store()
	e0 := st.Epoch()
	warmUp(srv.t, in, warmUpTime)
	if err := e.timedPhase(tm, srv.t, st, e0); err != nil {
		return tm, err
	}
	final := e0 + uint64(len(in.ops))
	if err := checkFinal(srv.t, in, final); err != nil {
		return tm, err
	}
	if err := e.probes(tm, st); err != nil {
		return tm, err
	}
	if e.trace {
		tm.allocsPerRead = allocsPerRead(srv.api.Handler(), in)
		t0 := time.Now()
		if _, err := srv.d.Checkpoint(); err != nil {
			return tm, err
		}
		tm.checkpointMS = float64(time.Since(t0).Microseconds()) / 1e3
	}
	err = e.close(srv)
	srv = nil
	if err != nil {
		return tm, err
	}

	for r := 0; r < in.restarts; r++ {
		runtime.GC()
		t0 := time.Now()
		d, err := wal.Recover(dir, e.walOptions())
		if err != nil {
			return tm, fmt.Errorf("restart %d: %w", r, err)
		}
		if srv, err = e.serve(d); err != nil {
			return tm, err
		}
		if _, _, err := srv.t.query(in.probe[0]); err != nil {
			return tm, fmt.Errorf("restart %d: first query: %w", r, err)
		}
		tm.recovers = append(tm.recovers, time.Since(t0).Seconds())
		if got := d.Epoch(); got != final {
			return tm, fmt.Errorf("restart %d recovered epoch %d, want %d", r, got, final)
		}
		if err := checkFinal(srv.t, in, final); err != nil {
			return tm, fmt.Errorf("restart %d: %w", r, err)
		}
		tm.mappedMB = float64(d.Store().Stats().MappedBytes) / 1e6
		err = e.close(srv)
		srv = nil
		if err != nil {
			return tm, err
		}
	}
	size, err := dirBytes(dir)
	tm.diskMB = float64(size) / 1e6
	return tm, err
}

// runInProc drives web-directed and weighted-churn: a Store called
// in-process, timed and checked, then saved (edge list plus mappable
// labels) and restarted from the saved files.
func runInProc(e *env) (*timing, error) {
	in := e.in
	tm := &timing{}
	var st *dynhl.Store
	for i := 0; i < in.setups; i++ {
		st = nil // let the previous set-up go before building the next
		og := in.base.toProgram(in.variant)
		runtime.GC()
		t0 := time.Now()
		o, err := og.build(nil)
		if err != nil {
			return nil, err
		}
		tm.builds = append(tm.builds, time.Since(t0).Seconds())
		st = dynhl.NewStore(o)
		st.SetRepairWorkers(in.repairWorkers)
		st.Snapshot().Query(in.probe[0].U, in.probe[0].V)
		tm.setups = append(tm.setups, time.Since(t0).Seconds())
	}

	t := storeTarget{st}
	e0 := st.Epoch()
	warmUp(t, in, warmUpTime)
	if err := e.timedPhase(tm, t, st, e0); err != nil {
		return tm, err
	}
	final := e0 + uint64(len(in.ops))
	if err := checkFinal(t, in, final); err != nil {
		return tm, err
	}
	if err := e.probes(tm, st); err != nil {
		return tm, err
	}

	dir := filepath.Join(e.tmp, "saved")
	graphPath, labelPath := filepath.Join(dir, "graph.txt"), filepath.Join(dir, "labels.bin")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return tm, err
	}
	if err := saveGraph(st.Unwrap(), graphPath); err != nil {
		return tm, err
	}
	if err := writeFile(labelPath, st.SaveMappable); err != nil {
		return tm, err
	}
	size, err := dirBytes(dir)
	if err != nil {
		return tm, err
	}
	tm.diskMB = float64(size) / 1e6

	for r := 0; r < in.restarts; r++ {
		runtime.GC()
		t0 := time.Now()
		o, err := loadSaved(in.variant, graphPath, labelPath)
		if err != nil {
			return tm, fmt.Errorf("restart %d: %w", r, err)
		}
		st2 := dynhl.NewStoreAt(o, final)
		st2.SetRepairWorkers(in.repairWorkers)
		st2.Snapshot().Query(in.probe[0].U, in.probe[0].V)
		tm.recovers = append(tm.recovers, time.Since(t0).Seconds())
		if n := st2.NumVertices(); n != in.final.numVertices() {
			return tm, fmt.Errorf("restart %d: %d vertices, want %d", r, n, in.final.numVertices())
		}
		if err := checkFinal(storeTarget{st2}, in, final); err != nil {
			return tm, fmt.Errorf("restart %d: %w", r, err)
		}
		tm.mappedMB = float64(st2.Stats().MappedBytes) / 1e6
	}
	return tm, nil
}

// timedPhase runs the phase on t, then measures the heap and checks every
// answer served at the sampled epochs.
func (e *env) timedPhase(tm *timing, t target, st *dynhl.Store, e0 uint64) error {
	var before map[string]float64
	var hc0 handlerCounts
	if e.trace {
		var err error
		if before, err = scrape(st.MetricsRegistries()); err != nil {
			return err
		}
		if e.ht != nil {
			hc0 = e.ht.counts()
		}
	}
	ph := runPhase(t, e.in, e0, e.seconds)
	tm.ph = ph
	if e.trace {
		after, err := scrape(st.MetricsRegistries())
		if err != nil {
			return err
		}
		tm.dlt = delta{before, after}
		if e.ht != nil {
			hc := e.ht.counts()
			tm.hc = handlerCounts{hc.readNs - hc0.readNs, hc.readN - hc0.readN, hc.updNs - hc0.updNs, hc.updN - hc0.updN}
		}
	}
	// Live heap at the end of the phase, less the benchmark's own sample
	// buffers, whose size follows throughput. The second GC empties the
	// sync.Pool victim caches the first one only demotes.
	runtime.GC()
	runtime.GC()
	ms := memStats()
	own := cap(ph.answers)*16 + (cap(ph.reads)+cap(ph.batches)+cap(ph.writes))*24
	tm.heapMB = float64(int64(ms.HeapAlloc)-int64(own)) / 1e6
	if ph.writeErr != nil {
		return ph.writeErr
	}
	n, err := checkAnswers(e.in.base, e.in.ops, e0, ph.answers, checkedEpochs, checkedSources)
	e.logf("checked %d of %d timed answers (%d sampled epochs, up to %d sources each)", n, len(ph.answers), checkedEpochs, checkedSources)
	return err
}

// probes checks the final labelling (Verify, minimality) and, when
// tracing, times the label kernel and the bounded search apart.
func (e *env) probes(tm *timing, st *dynhl.Store) error {
	if err := checkMinimal(st, e.in); err != nil {
		return err
	}
	stats := st.Stats()
	tm.indexMB = float64(stats.PackedBytes) / 1e6
	tm.entriesPerVertex = stats.AvgLabelSize
	if !e.trace {
		return nil
	}
	lms, err := landmarksOf(st.Unwrap())
	if err != nil {
		return err
	}
	tm.boundUS, tm.searchUS, err = kernelProbe(e.in, lms)
	return err
}

// saveGraph writes the program's current graph as an edge list its
// readers accept ("u v" or "u v w" per line).
func saveGraph(o dynhl.Oracle, path string) error {
	return writeFile(path, func(f io.Writer) error {
		w := bufio.NewWriter(f)
		switch x := o.(type) {
		case *dynhl.DirectedIndex:
			g := x.Graph()
			for u := 0; u < g.NumVertices(); u++ {
				for _, v := range g.Out(uint32(u)) {
					fmt.Fprintf(w, "%d %d\n", u, v)
				}
			}
		case *dynhl.WeightedIndex:
			g := x.Graph()
			for u := 0; u < g.NumVertices(); u++ {
				for _, a := range g.Neighbors(uint32(u)) {
					if uint32(u) < a.To {
						fmt.Fprintf(w, "%d %d %d\n", u, a.To, a.W)
					}
				}
			}
		case *dynhl.Index:
			if err := dynhl.WriteGraph(w, x.Graph()); err != nil {
				return err
			}
		default:
			return fmt.Errorf("cannot save the graph of %T", o)
		}
		return w.Flush()
	})
}

// loadSaved restarts an index the way a server without a WAL does: read
// the edge list, then serve the labels out of an mmap of the label file.
func loadSaved(v variant, graphPath, labelPath string) (dynhl.Oracle, error) {
	f, err := os.Open(graphPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	switch v {
	case directed:
		g, err := dynhl.ReadDigraph(r)
		if err != nil {
			return nil, err
		}
		return dynhl.MapDirectedIndexFile(labelPath, g)
	case weighted:
		g, err := dynhl.ReadWeightedGraph(r)
		if err != nil {
			return nil, err
		}
		return dynhl.MapWeightedIndexFile(labelPath, g)
	default:
		g, err := dynhl.ReadGraph(r)
		if err != nil {
			return nil, err
		}
		return dynhl.MapIndexFile(labelPath, g)
	}
}

// writeFile creates path, lets fill write it, and syncs and closes it.
func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}
