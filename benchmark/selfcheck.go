package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkDecl is the part of BENCHMARK.json -selfcheck reads.
type benchmarkDecl struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDecl(path string) (benchmarkDecl, error) {
	var d benchmarkDecl
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// runOnce re-executes this binary for one workload and seed and parses the
// result line, so every sample comes from a fresh process exactly as the
// acceptance driver takes it.
func runOnce(workload string, seed, seconds int) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return res, nil
}

// runSelfcheck runs every workload n times with seeds 1..n, round-robin
// across workloads so that machine drift lands on all of them alike, and
// prints per metric and workload the median, the quartiles and two spreads:
// (q3-q1)/median, which the acceptance driver holds to the metric's bound,
// and (max-min)/median. It fails when a quartile spread exceeds its bound.
func runSelfcheck(n int) error {
	if n < 2 {
		return fmt.Errorf("-selfcheck needs at least 2 runs for quartiles")
	}
	decl, err := readDecl("BENCHMARK.json")
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{} // workload → metric → samples
	for seed := 1; seed <= n; seed++ {
		for _, w := range decl.Workloads {
			res, err := runOnce(w.Name, seed, decl.RunSeconds)
			if err != nil {
				return err
			}
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("%s seed %d: %d of %d ops failed", w.Name, seed, res.Failed, res.Attempted)
			}
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w.Name][name] = append(values[w.Name][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "selfcheck: %s seed %d: %d ops\n", w.Name, seed, res.Attempted)
		}
	}
	fmt.Printf("%-17s %-16s %14s %14s %14s %8s %8s %6s\n",
		"workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound")
	var over []string
	for _, w := range decl.Workloads {
		for _, d := range decl.EndToEnd {
			xs := values[w.Name][d.Name]
			if len(xs) != n {
				return fmt.Errorf("%s: metric %s reported %d of %d times", w.Name, d.Name, len(xs), n)
			}
			s := sortedCopy(xs)
			med := median(s)
			q1, q3 := quartiles(s)
			iqr, rng := (q3-q1)/med, (s[n-1]-s[0])/med
			fmt.Printf("%-17s %-16s %14.4f %14.4f %14.4f %8.4f %8.4f %6.2f\n",
				w.Name, d.Name, med, q1, q3, iqr, rng, d.Bound)
			// The driver does not hold setup_s to its spread, only its median.
			if iqr > d.Bound && d.Name != "setup_s" {
				over = append(over, fmt.Sprintf("%s/%s %.4f > %.2f", w.Name, d.Name, iqr, d.Bound))
			}
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("spread over bound: %v", over)
	}
	return nil
}
