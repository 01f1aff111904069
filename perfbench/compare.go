package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// savedOutput is the environment header and the result of one saved
// run.
type savedOutput struct {
	env envHeader
	res result
}

func readOutput(path string) (savedOutput, error) {
	var out savedOutput
	f, err := os.Open(path)
	if err != nil {
		return out, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, `{"env"`) {
			var h map[string]envHeader
			if err := json.Unmarshal([]byte(line), &h); err != nil {
				return out, fmt.Errorf("%s: environment header: %w", path, err)
			}
			out.env = h["env"]
		}
		if line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	if out.env.NProc == 0 {
		return out, fmt.Errorf("%s: no environment header", path)
	}
	if err := json.Unmarshal([]byte(last), &out.res); err != nil {
		return out, fmt.Errorf("%s: result line: %w", path, err)
	}
	return out, nil
}

// compareOutputs prints each metric of two saved outputs side by side.
// It refuses, with exit code 2, to compare runs taken on different core
// counts or GOMAXPROCS: their timings are not comparable.
func compareOutputs(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -compare a.out b.out")
		return 2
	}
	a, err := readOutput(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	b, err := readOutput(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if a.env.NProc != b.env.NProc || a.env.GOMAXPROCS != b.env.GOMAXPROCS {
		fmt.Fprintf(os.Stderr, "perfbench: REFUSING TO COMPARE: %s ran on %d cores (GOMAXPROCS %d), %s on %d cores (GOMAXPROCS %d)\n",
			args[0], a.env.NProc, a.env.GOMAXPROCS, args[1], b.env.NProc, b.env.GOMAXPROCS)
		return 2
	}
	if a.env.Workload != b.env.Workload || a.env.Trace != b.env.Trace {
		fmt.Fprintf(os.Stderr, "perfbench: REFUSING TO COMPARE: workload/trace %s/%v vs %s/%v\n",
			a.env.Workload, a.env.Trace, b.env.Workload, b.env.Trace)
		return 2
	}
	names := make([]string, 0, len(a.res.Metrics))
	for n := range a.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-34s %14s %14s %9s\n", "metric", a.env.Commit, b.env.Commit, "change")
	for _, n := range names {
		x, y := a.res.Metrics[n], b.res.Metrics[n]
		change := "n/a"
		if x.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(y.Value-x.Value)/x.Value)
		}
		fmt.Printf("%-34s %14.6g %14.6g %9s %s\n", n, x.Value, y.Value, change, x.Unit)
	}
	return 0
}
