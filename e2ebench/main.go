// Command e2ebench is the repository's benchmark: it drives the dynamic
// distance-labelling store through its public entry points on one of three
// workloads, checks the answers it times against its own BFS/Dijkstra,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// ones) as one JSON object on the last line of standard output. See
// README.md for the workloads and the layer → metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// runDeadline bounds a whole run: past it the benchmark fails rather
// than hangs.
const runDeadline = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload name: social-http, web-directed or weighted-churn")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: report per-layer metrics instead of end-to-end ones")
	workdir := flag.String("workdir", ".bench_build/work", "directory for the run's temporary data")
	flag.Parse()
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...) }

	s, err := lookupSpec(*workload)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		logf("bad arguments: %v", err)
		flag.Usage()
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		logf("%v", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		logf("%v", err)
		return 1
	}
	watchdog := time.AfterFunc(runDeadline, func() {
		logf("run exceeded %v; giving up", runDeadline)
		os.RemoveAll(tmp)
		os.Exit(3)
	})
	defer watchdog.Stop()
	defer os.RemoveAll(tmp)
	baseline := runtime.NumGoroutine()
	fmt.Println(fingerprint())

	in, err := generate(s, *seed)
	if err != nil {
		logf("generating inputs: %v", err)
		return 1
	}
	fmt.Printf("inputs workload=%s seed=%d proxy=%s scale=%g variant=%s vertices=%d edges=%d ops=%d\n",
		s.name, *seed, s.dataset, s.scale, s.variant, in.base.numVertices(), in.base.numEdges(), len(in.ops))

	tr := &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}
	e := &env{in: in, seconds: *seconds, trace: *trace == 1, tmp: tmp,
		client: &http.Client{Transport: tr, Timeout: time.Minute}, logf: logf}
	if e.trace && s.http {
		e.ht = &handlerTimer{}
	}
	var tm *timing
	if s.http {
		tm, err = runSocial(e)
	} else {
		tm, err = runInProc(e)
	}
	tr.CloseIdleConnections()

	res := result{Correct: err == nil, Metrics: metrics{}}
	if tm != nil && tm.ph != nil {
		ph := tm.ph
		writesFailed := 0
		if ph.writeErr != nil {
			writesFailed = 1
		}
		reads := len(ph.reads) + len(ph.batches) + ph.readFailed
		writes := len(ph.writes) + writesFailed
		res.Attempted, res.Failed = reads+writes, ph.readFailed+writesFailed
		fmt.Printf("ops reads=%d (failed %d) writes=%d (failed %d) of a %d-op sequence\n",
			reads, ph.readFailed, writes, writesFailed, len(in.ops))
		fmt.Println(tails(ph, in.ops))
	}
	if tm != nil {
		logf("set-ups %.3f s, builds %.3f s, restarts %.3f s", tm.setups, tm.builds, tm.recovers)
	}
	if err == nil {
		if e.trace {
			res.Metrics = perLayer(tm, in)
		} else {
			res.Metrics, err = endToEnd(tm, in)
		}
	}
	if err == nil {
		err = waitGoroutines(baseline)
	}
	if err != nil {
		logf("%v", err)
		res.Correct = false
	}
	out, jerr := json.Marshal(res)
	if jerr != nil {
		logf("%v", jerr)
		return 1
	}
	fmt.Println(string(out))
	if err != nil {
		return 1
	}
	return 0
}

// waitGoroutines checks that every goroutine the run started has ended,
// allowing a few seconds for connection and pipeline goroutines to wind
// down after their owners closed.
func waitGoroutines(baseline int) error {
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			return fmt.Errorf("%d goroutines still running, %d at start:\n%s", runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil
}

// fingerprint names the host and build the figures come from.
func fingerprint() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}
