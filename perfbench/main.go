// Command perfbench is the repository's end-to-end benchmark. It drives
// a Prism store from outside — through the public store API in-process,
// or through a loopback RESP server — runs one named workload from a
// seed, checks every output, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// end of the measured phase is traced and the metrics are the per-layer
// ones. README.md lists both sets.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (wire-mixed, read-uniform, scan-update)")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1) {
		err = fmt.Errorf("want -seconds >= 1 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d nproc=%d go=%s\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	res, err := run(&w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, m := range res.metrics {
		fmt.Printf("%-40s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	// The failure summary goes to standard error, where a caller that
	// reads standard output only as the result line still sees it.
	for c, n := range res.fails {
		if n > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: %d\n", failNames[c], n)
		}
	}
	if res.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: first error: %v\n", res.firstErr)
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]map[string]any{}}
	for _, m := range res.metrics {
		if !m.info {
			out.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
