package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness check reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runSteady runs each workload (or only the named one) n times, with
// seeds firstSeed..firstSeed+n-1, as separate processes of this binary,
// and prints each end-to-end metric's median, quartiles and relative
// spread (interquartile distance over median) next to its bound. It
// returns non-zero if a run failed, a spread exceeds its bound, or the
// failed share differs between runs.
func runSteady(n int, firstSeed int64, seconds float64, only string) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady: run from the repository root:", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "steady: BENCHMARK.json:", err)
		return 2
	}
	if seconds <= 0 {
		seconds = float64(bf.RunSeconds)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 2
	}
	code := 0
	for _, w := range bf.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		values := map[string][]float64{}
		shares := map[string]bool{}
		for i := 0; i < n; i++ {
			seed := firstSeed + int64(i)
			args := []string{"--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0"}
			out, err := exec.Command(self, args...).Output()
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var r result
			if err != nil || json.Unmarshal([]byte(lines[len(lines)-1]), &r) != nil || !r.Correct {
				fmt.Printf("%s seed %d: run failed: %v\n", w.Name, seed, err)
				code = 1
				continue
			}
			shares[fmt.Sprintf("%d/%d", r.Failed*1_000_000/r.Attempted, 1_000_000)] = true
			var row bytes.Buffer
			fmt.Fprintf(&row, "%s seed %d:", w.Name, seed)
			for _, m := range bf.EndToEnd {
				v := r.Metrics[m.Name].Value
				values[m.Name] = append(values[m.Name], v)
				fmt.Fprintf(&row, " %s=%.6g", m.Name, v)
			}
			fmt.Println(row.String())
		}
		if len(shares) > 1 {
			fmt.Printf("%s: failed share differs between runs: %v\n", w.Name, shares)
			code = 1
		}
		fmt.Printf("%-11s %-18s %12s %12s %12s %8s %8s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
		for _, m := range bf.EndToEnd {
			xs := values[m.Name]
			if len(xs) < 2 {
				continue
			}
			q1, q3 := quartiles(xs)
			med := median(xs)
			spread := (q3 - q1) / med
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "OVER BOUND"
				code = 1
			case spread > m.Bound/3:
				verdict = "over a third"
			}
			fmt.Printf("%-11s %-18s %12.6g %12.6g %12.6g %8.4f %8.3f %s\n", w.Name, m.Name, q1, med, q3, spread, m.Bound, verdict)
		}
	}
	return code
}

// quartiles returns the first and third quartiles as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
