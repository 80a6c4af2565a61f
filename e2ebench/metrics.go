package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	dynhl "repro"
)

// timeSlices is the number of equal time slices of the phase that
// read_p90_us, read_qps and batch_pairs_s take their median over, so that
// a burst of load from outside the benchmark moves at most a few slices.
const timeSlices = 10

// endToEnd derives the user-visible metrics from an untraced run.
func endToEnd(tm *timing, in *inputs) (metrics, error) {
	ph := tm.ph
	lat := make([]time.Duration, len(ph.reads))
	for i, r := range ph.reads {
		lat[i] = r.lat
	}
	slices.Sort(lat)
	width := ph.wall / timeSlices
	var p90, qps, batch []float64
	for i, sl := range bySlice(ph.reads, width) {
		if len(sl) < 100 {
			return nil, fmt.Errorf("slice %d of the phase has %d single-pair reads; read_p90_us needs 100", i, len(sl))
		}
		lat := make([]time.Duration, len(sl))
		for i, r := range sl {
			lat[i] = r.lat
		}
		slices.Sort(lat)
		p90 = append(p90, us(percentile(lat, 90)))
		qps = append(qps, float64(len(sl))/width.Seconds())
	}
	for _, sl := range bySlice(ph.batches, width) {
		var pairs int
		var t time.Duration
		for _, b := range sl {
			pairs += b.n
			t += b.lat
		}
		batch = append(batch, float64(pairs)/t.Seconds())
	}
	ins, del := roundMeans(ph, in.ops)
	return metrics{
		"setup_s":       {median(tm.setups), "s"},
		"read_p50_us":   {us(percentile(lat, 50)), "us"},
		"read_p90_us":   {median(p90), "us"},
		"read_qps":      {median(qps), "1/s"},
		"batch_pairs_s": {median(batch), "1/s"},
		"insert_ms":     {median(ins), "ms"},
		"delete_ms":     {median(del), "ms"},
		"index_mb":      {tm.indexMB, "MB"},
		"heap_mb":       {tm.heapMB, "MB"},
		"disk_mb":       {tm.diskMB, "MB"},
	}, nil
}

// bySlice splits samples (in completion order) into the phase's time
// slices of the given width; samples past the last slice join it.
func bySlice(ss []sample, width time.Duration) [][]sample {
	out := make([][]sample, timeSlices)
	for _, s := range ss {
		i := min(int(s.at/width), timeSlices-1)
		out[i] = append(out[i], s)
	}
	return out
}

// roundMeans splits the sequence into tenths and returns each tenth's mean
// acknowledged time in ms of its insertions (insert_edge and
// insert_vertex) and of its deletions. The metrics take the median over
// the tenths: a stall from outside, such as an fsync queued behind another
// tenant's writes, then moves one tenth instead of the figure.
func roundMeans(ph *phase, ops []dynhl.Op) (ins, del []float64) {
	const parts = 10
	var insT, delT [parts]time.Duration
	var nIns, nDel [parts]int
	for k, w := range ph.writes {
		r := k * parts / len(ops)
		if ops[k].Kind == dynhl.OpDeleteEdge {
			delT[r] += w.lat
			nDel[r]++
		} else {
			insT[r] += w.lat
			nIns[r]++
		}
	}
	for r := 0; r < parts; r++ {
		if nIns[r] > 0 {
			ins = append(ins, ms(insT[r])/float64(nIns[r]))
		}
		if nDel[r] > 0 {
			del = append(del, ms(delT[r])/float64(nDel[r]))
		}
	}
	return ins, del
}

// writeMeans returns the mean acknowledged time in ms of all insertions
// and of all deletions of the sequence.
func writeMeans(ph *phase, ops []dynhl.Op) (ins, del float64) {
	var insT, delT time.Duration
	var nIns, nDel int
	for k, w := range ph.writes {
		if ops[k].Kind == dynhl.OpDeleteEdge {
			delT += w.lat
			nDel++
		} else {
			insT += w.lat
			nIns++
		}
	}
	return ms(insT) / float64(max(nIns, 1)), ms(delT) / float64(max(nDel, 1))
}

// tails describes the spread of the read and acknowledged write times
// over the whole phase, for reference next to the metrics.
func tails(ph *phase, ops []dynhl.Op) string {
	var reads, ins, del []time.Duration
	for _, r := range ph.reads {
		reads = append(reads, r.lat)
	}
	for k, w := range ph.writes {
		if ops[k].Kind == dynhl.OpDeleteEdge {
			del = append(del, w.lat)
		} else {
			ins = append(ins, w.lat)
		}
	}
	out := "tails"
	for _, c := range []struct {
		name string
		lat  []time.Duration
	}{{"read", reads}, {"insert", ins}, {"delete", del}} {
		if len(c.lat) == 0 {
			continue
		}
		slices.Sort(c.lat)
		out += fmt.Sprintf(" %s n=%d p50=%.3fms p99=%.3fms max=%.3fms", c.name, len(c.lat),
			ms(percentile(c.lat, 50)), ms(percentile(c.lat, 99)), ms(c.lat[len(c.lat)-1]))
	}
	return out
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
