package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runAA runs the same binary as two interleaved sets (A B B A ...) of n
// untraced runs per workload, every run with its own seed, and prints for
// each workload and end-to-end metric both medians, both spreads (the
// distance between the quartiles as a share of the median), how much worse
// the second set's median is than the first's, and whether all of that is
// within the metric's bound. Two sets of the same code that do not agree
// mean the benchmark cannot resolve a regression of that size.
func runAA(n int, seconds float64, only string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	allPass := true
	for _, w := range workloads {
		if only != "" && only != w.name {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		seed := 0
		for i := 0; i < n; i++ {
			order := [2]int{0, 1}
			if i%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, set := range order {
				seed++
				res, err := runChild(self, w.name, seed, seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				for name, v := range res.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
				fmt.Fprintf(os.Stderr, "aa: %s set %c seed %d done\n", w.name, 'A'+set, seed)
			}
		}
		fmt.Printf("%-13s %-17s %12s %12s %8s %8s %8s %6s  %s\n",
			"workload", "metric", "median A", "median B", "iqr A", "iqr B", "B worse", "bound", "")
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			pass := worse <= d.Bound && (d.Name == "setup_s" || (sa <= d.Bound && sb <= d.Bound))
			allPass = allPass && pass
			verdict := "PASS"
			if !pass {
				verdict = "FAIL"
			}
			fmt.Printf("%-13s %-17s %12.5g %12.5g %7.1f%% %7.1f%% %+7.1f%% %5.0f%%  %s\n",
				w.name, d.Name, ma, mb, 100*sa, 100*sb, 100*worse, 100*d.Bound, verdict)
		}
	}
	if !allPass {
		return fmt.Errorf("A/A: two sets of runs of the same code disagree beyond a bound")
	}
	return nil
}

// runChild runs one untraced run in a child process and parses its result
// line. Peak memory and set-up are per process, so a run must be one.
func runChild(self, workload string, seed int, seconds float64) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		// Keep what the failed run reported: its invariants say why.
		kept := fmt.Sprintf("benchmark/out/aa-failed-%s-%d.json", workload, seed)
		if os.MkdirAll("benchmark/out", 0o755) == nil && os.WriteFile(kept, out, 0o644) == nil {
			err = fmt.Errorf("%w (report kept in %s)", err, kept)
		}
		return nil, err
	}
	out = bytes.TrimSpace(out)
	var res result
	if err := json.Unmarshal(out[bytes.LastIndexByte(out, '\n')+1:], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("run not clean: correct=%t failed=%d", res.Correct, res.Failed)
	}
	return &res, nil
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles Python's statistics.quantiles(v, n=4) gives.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		m := len(s) + 1
		j, delta := i*m/4, i*m%4
		j = min(max(j, 1), len(s)-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (quartile(3) - quartile(1)) / median(s)
}
