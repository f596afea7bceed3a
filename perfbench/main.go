// Command perfbench is nexsort's end-to-end benchmark.
//
// Run it from the root of a checkout (perfbench/run.sh builds it first):
//
//	perfbench --workload merge --seed 7 --seconds 55 --trace 0
//	perfbench --workload flat --seed 7 --seconds 55 --trace 1
//	perfbench --smoke
//
// Each workload is a seeded pair of generated documents plus a memory size
// M (B is always 64 KiB and the criterion is *=@key). The load is a closed
// loop: one client, one operation at a time, back to back. A round is four
// operations through the public API on the file backend — SortFile with
// NEXSORT, with key-path merge sort and with the in-memory sort, then
// MergeFiles of the sorted document with its merge partner — and every
// output is checked before the next round starts. Rounds repeat until the
// next one would overrun --seconds. The rates and setup_s are scaled to a
// nominal host speed, measured by a fixed reference computation that runs
// before every operation and every setup (speed.go).
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
// alternates untraced rounds with traced ones, in which the same work is
// driven through the layers' own entry points (core.Sort,
// extsort.SortXML, xmltree, xmltok, merge.Documents) with timed readers,
// writers and a timing em.Backend around them, and reports the per-layer
// metrics, a span file and the tracing overhead.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A failed operation or
// check makes the run exit with status 1 after printing it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func main() {
	var (
		wlName  = flag.String("workload", "", "workload name: flat | merge")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same documents")
		seconds = flag.Float64("seconds", 55, "how long the closed loop runs, in seconds")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
		smoke   = flag.Bool("smoke", false, "run every workload once at tiny scale and check the metric names and the correctness gate")
	)
	flag.Parse()

	if *smoke {
		if err := runSmoke("BENCHMARK.json", ".bench_build/smoke"); err != nil {
			fmt.Fprintln(os.Stderr, "smoke: FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("smoke: PASS")
		return
	}

	w, ok := workloadByName(*wlName)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wlName)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		os.Exit(2)
	}
	cfg := runConfig{
		w:       w,
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		root:    ".bench_build",
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of the run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printResult prints every metric by name with its unit, then the JSON
// result as the last line.
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("metric %-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runConfig is one invocation's settings.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	root    string // directory that holds every file the run writes
}

func run(cfg runConfig) (*result, error) {
	host, err := newHostProbe(cfg.root)
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s seed %d: %s\n", cfg.w.name, cfg.seed, cfg.w.describe())
	fmt.Printf("load: closed loop, 1 client, 1 process, GOMAXPROCS=%d, nexsort Parallelism=default\n",
		runtime.GOMAXPROCS(0))

	k := newRefKernel()
	prep, setupTimes, setupPasses, err := setupRepeated(cfg.w, cfg.seed, cfg.root, k)
	if err != nil {
		return nil, err
	}
	defer prep.remove()

	var res *result
	if cfg.trace {
		if res, err = runTraced(cfg, prep, k); err != nil {
			return nil, err
		}
	} else {
		res = runE2E(cfg, prep, k)
		scale := speedScale(setupPasses)
		fmt.Printf("setup speed: reference pass median %.5fs, nominal %.5fs; setup_s is the raw median %.5fs * %.4f\n",
			median(setupPasses), refNominal, median(setupTimes), scale)
		res.Metrics["setup_s"] = metric{median(setupTimes) * scale, "s"}
	}
	steal := host.report()
	if cfg.trace {
		res.Metrics["host.steal_frac"] = metric{steal, "frac"}
	}
	return res, nil
}
