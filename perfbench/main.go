// Command perfbench is UniStore's benchmark: it runs one workload in
// one process, checks every answer against the internal/algebra
// reference executor, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as the last line of standard output:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
//
// It drives the system only through the public functions of
// unistore/internal/… and times those calls from outside. See
// README.md for the workloads and the metric table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

var workloads = map[string]func(*run) error{
	"tcp-lookup":   runTCPLookup,
	"sim-analytic": runSimAnalytic,
	"tcp-ingest":   runTCPIngest,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type record struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: tcp-lookup, sim-analytic or tcp-ingest")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	traceFlag := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	work := flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory for WAL data and traces")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, names)
		os.Exit(2)
	}
	// The load comes from at most GOMAXPROCS client goroutines; the
	// runtime default already equals the CPUs this process may use, and
	// the benchmark never raises it.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	absWork, err := filepath.Abs(*work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r := &run{
		workload: *name, seed: *seed, seconds: *seconds, traced: *traceFlag == 1,
		work: absWork, vals: map[string]float64{},
	}
	r.tr = newTracer(r.traced)
	if err := wl(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	r.tr.finish(r)

	out := record{Metrics: map[string]metricOut{}}
	for _, m := range catalogue {
		if m.e2e == r.traced {
			continue
		}
		v, ok := r.vals[m.name]
		if !ok && m.e2e {
			r.fail("end-to-end metric %s was not measured", m.name)
		}
		out.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
		fmt.Printf("%-34s %14.4f %s\n", m.name, v, m.unit)
	}
	// Set after the metrics: a missing end-to-end metric is a failure.
	out.Attempted, out.Failed = r.attempted, r.failed
	out.Correct = r.failed == 0 && r.attempted > 0
	fmt.Printf("%s: %d ops checked, %d failed\n", *name, r.attempted, r.failed)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
