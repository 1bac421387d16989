package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness command reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steady runs a workload in two alternated sets of runs, set A on seeds 1
// to N and set B on the N seeds after, each run in its own process for
// run_seconds of BENCHMARK.json in the checkout root, and prints every
// run's end-to-end metrics and, for each metric, each set's median and
// quartiles, the spread (third minus first quartile, as a share of the
// median) of each set and of all runs together, and the shift between the
// two medians, each against the metric's bound. These figures are the evidence for the
// bounds in BENCHMARK.json.
func steady(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 5, "runs per set; two alternated sets are made")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, ok := workloads[*wl]; !ok {
		return fmt.Errorf("unknown workload %q", *wl)
	}
	body, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	seconds := spec.RunSeconds
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sets := [2][]report{}
	for i := 0; i < *runs; i++ {
		for set := 0; set < 2; set++ {
			seed := int64(1 + set**runs + i)
			rep, err := runChild(self, *wl, seed, seconds)
			if err != nil {
				return fmt.Errorf("set %c seed %d: %w", 'A'+set, seed, err)
			}
			sets[set] = append(sets[set], rep)
			fmt.Fprintf(out, "run set %c seed %d: correct=%v attempted=%d failed=%d",
				'A'+set, seed, rep.Correct, rep.Attempted, rep.Failed)
			for _, m := range spec.EndToEnd {
				fmt.Fprintf(out, " %s=%.4g", m.Name, rep.Metrics[m.Name].Value)
			}
			fmt.Fprintln(out)
		}
	}
	fmt.Fprintf(out, "\nworkload %s, %d runs per set, %d s per run\n", *wl, *runs, seconds)
	fmt.Fprintf(out, "%-18s %6s | %-34s %7s | %-34s %7s | %7s | %7s\n",
		"metric", "bound", "set A median [q1, q3]", "spread", "set B median [q1, q3]", "spread", "all", "shift")
	for _, m := range spec.EndToEnd {
		var spreads [2]float64
		var meds [2]float64
		cells := [2]string{}
		var all []float64
		for set := 0; set < 2; set++ {
			var vals []float64
			for _, r := range sets[set] {
				vals = append(vals, r.Metrics[m.Name].Value)
			}
			all = append(all, vals...)
			q1, q2, q3 := quartiles(vals)
			meds[set], spreads[set] = q2, (q3-q1)/q2
			cells[set] = fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
		}
		q1, q2, q3 := quartiles(all)
		spreadAll := (q3 - q1) / q2
		shift := (meds[1] - meds[0]) / meds[0]
		if m.Better == "higher" {
			shift = -shift
		}
		fmt.Fprintf(out, "%-18s %6.3f | %-34s %7.3f | %-34s %7.3f | %7.3f | %+7.3f  %s\n",
			m.Name, m.Bound, cells[0], spreads[0], cells[1], spreads[1], spreadAll, shift,
			verdict(m.Bound, math.Max(spreadAll, math.Max(spreads[0], spreads[1])), shift))
	}
	for set := 0; set < 2; set++ {
		var a, f int64
		for _, r := range sets[set] {
			a += r.Attempted
			f += r.Failed
		}
		fmt.Fprintf(out, "set %c: %d attempted, %d failed\n", 'A'+set, a, f)
	}
	return nil
}

// verdict grades a metric: the spread should stay under a third of the
// bound, and the worsening of set B against set A under the bound.
func verdict(bound, spread, shift float64) string {
	var notes []string
	switch {
	case spread <= bound/3:
		notes = append(notes, "steady")
	case spread <= bound:
		notes = append(notes, "spread within bound")
	default:
		notes = append(notes, "SPREAD OVER BOUND")
	}
	if shift > bound {
		notes = append(notes, "SHIFT OVER BOUND")
	}
	return strings.Join(notes, ", ")
}

// runChild runs one benchmark run in a child process and parses the report
// on its last line of output.
func runChild(self, wl string, seed int64, seconds int) (report, error) {
	var stdout bytes.Buffer
	cmd := exec.Command(self, "--workload", wl, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return report{}, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return rep, fmt.Errorf("parse report: %w", err)
	}
	if !rep.Correct || rep.Failed > 0 {
		return rep, fmt.Errorf("run reported incorrect outputs or %d failed operations", rep.Failed)
	}
	return rep, nil
}
