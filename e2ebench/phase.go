package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	dynhl "repro"
)

// phase is what one timed phase measured: one closed-loop reader and one
// writer working through the fixed write sequence.
type phase struct {
	start time.Time
	wall  time.Duration

	reads      []sample // single-pair reads
	batches    []sample // batch reads; n is the pair count
	readFailed int

	writes   []sample // one per op of the sequence, in order
	sums     []dynhl.UpdateSummary
	writeErr error

	answers   []answer
	gc, gcEnd runtime.MemStats // GC counters at the start and the end
}

// sample is one timed request: when it completed (from the phase start),
// how long it took, and for a batch how many pairs it carried.
type sample struct {
	at, lat time.Duration
	n       int
}

// reader sends closed-loop reads to t for uniformly random pairs of the
// initial vertices: single pairs, with every batchEvery-th request a
// batch of batchPairs pairs.
type reader struct {
	t   target
	in  *inputs
	rng *rand.Rand
	buf []dynhl.Pair
}

// one sends the i-th request and records it into ph (nil: warm-up).
func (r *reader) one(i int, ph *phase) {
	if i%r.in.batchEvery == r.in.batchEvery-1 {
		r.buf = r.buf[:0]
		for k := 0; k < r.in.batchPairs; k++ {
			r.buf = append(r.buf, r.pair())
		}
		t0 := time.Now()
		ds, epoch, err := r.t.queryBatch(r.buf)
		t1 := time.Now()
		if ph == nil {
			return
		}
		if err != nil {
			ph.readFailed++
			return
		}
		ph.batches = append(ph.batches, sample{t1.Sub(ph.start), t1.Sub(t0), len(ds)})
		for k, d := range ds {
			ph.answers = append(ph.answers, answer{r.buf[k], uint32(epoch), d})
		}
		return
	}
	p := r.pair()
	t0 := time.Now()
	d, epoch, err := r.t.query(p)
	t1 := time.Now()
	if ph == nil {
		return
	}
	if err != nil {
		ph.readFailed++
		return
	}
	ph.reads = append(ph.reads, sample{t1.Sub(ph.start), t1.Sub(t0), 1})
	ph.answers = append(ph.answers, answer{p, uint32(epoch), d})
}

func (r *reader) pair() dynhl.Pair {
	n := r.in.base.numVertices()
	return dynhl.Pair{U: uint32(r.rng.Intn(n)), V: uint32(r.rng.Intn(n))}
}

// warmUp runs the reader untimed, then forces a GC, so that the timed
// phase starts with warm caches and a clean heap.
func warmUp(t target, in *inputs, d time.Duration) {
	r := &reader{t: t, in: in, rng: rand.New(rand.NewSource(in.seed + 1))}
	for i, t0 := 0, time.Now(); time.Since(t0) < d; i++ {
		r.one(i, nil)
	}
	runtime.GC()
}

// runPhase times the reader and the writer together. The phase lasts
// `seconds`, and longer if the write sequence has not finished by then,
// so every run does the whole sequence. e0 is the epoch before the first
// write; write k must publish epoch e0+k+1.
func runPhase(t target, in *inputs, e0 uint64, seconds int) *phase {
	ph := &phase{}
	runtime.ReadMemStats(&ph.gc)
	ph.start = time.Now()
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := &reader{t: t, in: in, rng: rand.New(rand.NewSource(in.seed + 2))}
		for i := 0; !stop.Load(); i++ {
			r.one(i, ph)
		}
	}()
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		ph.writeErr = writeSequence(t, in, e0, ph)
	}()
	select {
	case <-writerDone:
		time.Sleep(time.Until(ph.start.Add(time.Duration(seconds) * time.Second)))
	case <-time.After(time.Duration(seconds) * time.Second):
		<-writerDone
	}
	stop.Store(true)
	wg.Wait()
	ph.wall = time.Since(ph.start)
	runtime.ReadMemStats(&ph.gcEnd)
	return ph
}

// writeSequence applies the write ops one request at a time, pausing
// between them, and checks that each publishes the next epoch (and, for
// insert_vertex, the next vertex id).
func writeSequence(t target, in *inputs, e0 uint64, ph *phase) error {
	nextVertex := uint32(in.base.numVertices())
	for k, op := range in.ops {
		t0 := time.Now()
		sum, epoch, err := t.apply(op)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("write %d (%v): %w", k, op.Kind, err)
		}
		if epoch != e0+uint64(k)+1 {
			return fmt.Errorf("write %d published epoch %d, want %d", k, epoch, e0+uint64(k)+1)
		}
		if op.Kind == dynhl.OpInsertVertex {
			if sum.NewVertex == nil || *sum.NewVertex != nextVertex {
				return fmt.Errorf("write %d: insert_vertex did not return id %d", k, nextVertex)
			}
			nextVertex++
		}
		ph.writes = append(ph.writes, sample{t1.Sub(ph.start), t1.Sub(t0), 1})
		ph.sums = append(ph.sums, sum)
		if in.pause > 0 {
			time.Sleep(in.pause)
		}
	}
	return nil
}

// checkFinal compares the program's answers for the fixed final sample
// against the reference graph after the whole sequence.
func checkFinal(t target, in *inputs, wantEpoch uint64) error {
	ds, epoch, err := t.queryBatch(in.check)
	if err != nil {
		return fmt.Errorf("final sample: %w", err)
	}
	if epoch != wantEpoch {
		return fmt.Errorf("final sample served at epoch %d, want %d", epoch, wantEpoch)
	}
	var dist []uint32
	for i, p := range in.check {
		if i == 0 || p.U != in.check[i-1].U {
			dist = in.final.distancesFrom(p.U, dist)
		}
		if ds[i] != dist[p.V] {
			return fmt.Errorf("final sample: d(%d,%d) = %d, reference search says %d", p.U, p.V, ds[i], dist[p.V])
		}
		// The single-pair path must agree with the batch path.
		d, _, err := t.query(p)
		if err != nil {
			return fmt.Errorf("final sample: %w", err)
		}
		if d != ds[i] {
			return fmt.Errorf("final sample: d(%d,%d) single %d, batch %d", p.U, p.V, d, ds[i])
		}
	}
	return nil
}

// checkMinimal verifies the paper's minimality theorem on the final
// labelling: a fresh build of the final graph with the same landmarks has
// exactly as many entries, and the labelling passes its own audit.
func checkMinimal(st *dynhl.Store, in *inputs) error {
	if err := st.Verify(); err != nil {
		return fmt.Errorf("Verify: %w", err)
	}
	lms, err := landmarksOf(st.Unwrap())
	if err != nil {
		return err
	}
	fresh, err := in.final.toProgram(in.variant).build(lms)
	if err != nil {
		return fmt.Errorf("fresh build: %w", err)
	}
	got, want := st.Stats().LabelEntries, fresh.Stats().LabelEntries
	if got != want {
		return fmt.Errorf("minimality: maintained labelling has %d entries, a fresh build has %d", got, want)
	}
	return nil
}
