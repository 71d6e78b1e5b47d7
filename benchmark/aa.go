package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runAA is the A/A self-check: the same binary plays both sides. It runs
// the untraced suite 2K times in the order A B B A A B …, each workload in
// a process of its own as the driver runs it, with a different seed every
// time, and compares the two sides' medians with the committed bounds. A
// bound that two sets of runs of identical code cannot stay within would
// reject every later change, so this exits non-zero when a gap exceeds its
// bound.
func runAA(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// side[ab][workload][metric] collects one value per suite run.
	var side [2]map[string]map[string][]float64
	for ab := range side {
		side[ab] = make(map[string]map[string][]float64)
		for i := range specs {
			side[ab][specs[i].name] = make(map[string][]float64)
		}
	}
	for i := 0; i < 2*o.aa; i++ {
		ab := (i + 1) / 2 % 2 // A B B A A B B A …
		for s := range specs {
			name := specs[s].name
			seed := o.seed + int64(i)
			fmt.Printf("aa     run %d/%d side %c workload %s seed %d loadavg1=%.2f\n", i+1, 2*o.aa, 'A'+ab, name, seed, loadavg())
			args := []string{
				"-workload", name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-dir", o.dir,
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				os.Stdout.Write(out)
				return fmt.Errorf("run %d of %s: %w", i+1, name, err)
			}
			rep, err := lastReport(out)
			if err != nil {
				return fmt.Errorf("run %d of %s: %w", i+1, name, err)
			}
			if !rep.Correct || rep.Failed != 0 {
				return fmt.Errorf("run %d of %s: correct=%v failed=%d", i+1, name, rep.Correct, rep.Failed)
			}
			for m, v := range rep.Metrics {
				side[ab][name][m] = append(side[ab][name][m], v.Value)
			}
		}
	}
	fmt.Printf("\n%-14s %-16s %12s %12s %8s %7s\n", "workload", "metric", "median A", "median B", "gap", "bound")
	exceeded := 0
	for s := range specs {
		name := specs[s].name
		for _, d := range endToEnd {
			a, b := median(side[0][name][d.name]), median(side[1][name][d.name])
			gap := math.Abs(b-a) / math.Min(a, b)
			mark := ""
			if gap > d.bound {
				mark = "  EXCEEDS BOUND"
				exceeded++
			}
			fmt.Printf("%-14s %-16s %12.6g %12.6g %7.2f%% %6.0f%%%s\n", name, d.name, a, b, gap*100, d.bound*100, mark)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metric(s) differ between two sets of runs of the same code by more than their bound", exceeded)
	}
	return nil
}

// lastReport decodes the last line of a run's output.
func lastReport(out []byte) (*report, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	rep := new(report)
	if err := json.Unmarshal(last, rep); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return rep, nil
}
