package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"nexsort"
)

// benchSpec is the part of BENCHMARK.json the self-test checks against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// smokeElements is the tiny document size of the self-test.
const smokeElements = 3000

// runSmoke runs every workload once at tiny scale, untraced and traced,
// and checks that each run passes its correctness gate and emits exactly
// the metrics BENCHMARK.json lists, with the listed units. It then checks
// that the gate catches deliberately corrupted outputs.
func runSmoke(benchJSON, root string) error {
	raw, err := os.ReadFile(benchJSON)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", benchJSON, err)
	}
	if len(spec.Workloads) != len(workloads) {
		return fmt.Errorf("%s lists %d workloads, the benchmark has %d", benchJSON, len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := workloadByName(sw.Name)
		if !ok {
			return fmt.Errorf("%s lists workload %q, which the benchmark lacks", benchJSON, sw.Name)
		}
		w.elements = smokeElements
		for _, trace := range []bool{false, true} {
			res, err := run(runConfig{w: w, seed: 1, seconds: 0, trace: trace, root: root})
			if err != nil {
				return fmt.Errorf("%s (trace %v): %w", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s (trace %v): %d of %d operations failed", w.name, trace, res.Failed, res.Attempted)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if err := sameMetrics(res.Metrics, want); err != nil {
				return fmt.Errorf("%s (trace %v): %w", w.name, trace, err)
			}
		}
	}
	if err := smokeGate(root); err != nil {
		return fmt.Errorf("correctness gate: %w", err)
	}
	return nil
}

// sameMetrics reports any difference between the emitted metrics and the
// listed ones, by name and by unit.
func sameMetrics(got map[string]metric, want []specMetric) error {
	var problems []string
	listed := map[string]bool{}
	for _, m := range want {
		listed[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+m.Name)
		case g.Unit != m.Unit:
			problems = append(problems, fmt.Sprintf("%s has unit %q, listed as %q", m.Name, g.Unit, m.Unit))
		}
	}
	for name := range got {
		if !listed[name] {
			problems = append(problems, "unlisted "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metrics differ from BENCHMARK.json: %s", strings.Join(problems, "; "))
	}
	return nil
}

// smokeGate corrupts outputs of a tiny flat workload three ways and
// requires the gate to reject each: an unsorted first output, a later
// output that differs by one byte, and a merge report whose counts
// disagree with the construction.
func smokeGate(root string) error {
	w, _ := workloadByName("flat")
	w.elements = smokeElements
	p, err := setup(w, 1, filepath.Join(root, "work", "gate"))
	if err != nil {
		return err
	}
	defer p.remove()
	g := newGate(p)
	if rr := runRound(p, g, newRefKernel()); rr.failed != 0 {
		return fmt.Errorf("clean round failed %d operations", rr.failed)
	}
	sorted := p.path("nexsort.out.xml")
	doc, err := os.ReadFile(sorted)
	if err != nil {
		return err
	}

	// The root's first child gets the largest possible key, which puts it
	// out of order with its next sibling.
	unsorted := append([]byte(nil), doc...)
	first := strings.Index(string(unsorted), `key="`)
	second := first + 1 + strings.Index(string(unsorted[first+1:]), `key="`)
	copy(unsorted[second+len(`key="`):], "99999999")
	bad := p.path("corrupt.xml")
	if err := os.WriteFile(bad, unsorted, 0o644); err != nil {
		return err
	}
	if err := newGate(p).checkSort("nexsort", bad, 0); err == nil {
		return fmt.Errorf("an unsorted output passed")
	}

	// One filler byte changed: still sorted, but not the reference bytes.
	flipped := append([]byte(nil), doc...)
	flipped[strings.Index(string(flipped), "xxx")] = 'y'
	if err := os.WriteFile(bad, flipped, 0o644); err != nil {
		return err
	}
	if err := g.checkSort("mergesort", bad, g.ios["mergesort"]); err == nil {
		return fmt.Errorf("an output differing from the reference passed")
	}

	rep := &nexsort.MergeReport{Matched: p.expMatched - 1, OutputElements: p.expMergeOut}
	if err := g.checkMerge(p.path("merge.out.xml"), rep); err == nil {
		return fmt.Errorf("a merge report with the wrong match count passed")
	}
	fmt.Println("smoke: the gate rejected an unsorted output, a changed output and a wrong merge count")
	return nil
}
