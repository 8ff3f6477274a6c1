package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// verdict classifies one (workload, metric) pair between two sets of runs.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictImproved   verdict = "improved"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// classify compares the runs of one metric. With a bound of 0 any change of
// the median counts: simulated metrics repeat exactly for a seed. Otherwise
// the change regresses when its median is worse than the old median by more
// than the bound. When either side's quartile spread, as a share of its
// median, is wider than the bound, the pair is unresolved unless every new
// run beats every old run (improved) or every new run is worse and the
// medians differ by more than the bound (regressed). An improvement needs
// the medians to differ by more than the old side's spread.
func classify(old, cur []float64, better string, bound float64) verdict {
	sign := 1.0 // positive worse means the new side is worse
	if better == "higher" {
		sign = -1
	}
	oq1, omed, oq3 := quartiles(old)
	nq1, nmed, nq3 := quartiles(cur)
	if bound == 0 {
		switch d := sign * (nmed - omed); {
		case d > 0:
			return verdictRegressed
		case d < 0:
			return verdictImproved
		}
		return verdictOK
	}
	worse := sign * (nmed - omed) / math.Abs(omed)
	oldSpread := (oq3 - oq1) / math.Abs(omed)
	spread := max(oldSpread, (nq3-nq1)/math.Abs(nmed))
	if spread > bound {
		switch {
		case allBeat(cur, old, sign):
			return verdictImproved
		case allBeat(old, cur, sign) && worse > bound:
			return verdictRegressed
		}
		return verdictUnresolved
	}
	switch {
	case worse > bound:
		return verdictRegressed
	case -worse > oldSpread:
		return verdictImproved
	}
	return verdictOK
}

// allBeat reports whether every value of a is better than every value of b.
func allBeat(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(x-y) >= 0 {
				return false
			}
		}
	}
	return true
}

// loadRuns reads the runs of a results file; "FILE#N" selects set N only.
func loadRuns(arg string) ([]runResult, error) {
	path, sel := arg, -1
	if i := strings.LastIndexByte(arg, '#'); i >= 0 {
		n, err := strconv.Atoi(arg[i+1:])
		if err != nil {
			return nil, fmt.Errorf("%s: bad set index: %w", arg, err)
		}
		path, sel = arg[:i], n
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if sel >= len(f.Sets) {
		return nil, fmt.Errorf("%s has %d sets, no set %d", path, len(f.Sets), sel)
	}
	var runs []runResult
	for i, s := range f.Sets {
		if sel < 0 || i == sel {
			runs = append(runs, s.Runs...)
		}
	}
	return runs, nil
}

// benchmarkBounds reads the end-to-end bounds of the BENCHMARK.json found in
// the working directory or the nearest directory above it.
func benchmarkBounds() (map[string]float64, string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, "", err
	}
	for {
		path := filepath.Join(dir, "BENCHMARK.json")
		data, err := os.ReadFile(path)
		if err == nil {
			var b struct {
				EndToEnd []struct {
					Name  string  `json:"name"`
					Bound float64 `json:"bound"`
				} `json:"end_to_end"`
			}
			if err := json.Unmarshal(data, &b); err != nil {
				return nil, "", fmt.Errorf("%s: %w", path, err)
			}
			bounds := map[string]float64{}
			for _, m := range b.EndToEnd {
				bounds[m.Name] = m.Bound
			}
			return bounds, path, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, "", fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// compareFiles prints, per workload and metric of the untraced runs, both
// sides' median and quartiles and the change, with a verdict for every
// end-to-end and simulated metric. It returns 1 when any pair regressed or a
// workload's simulated digest changed.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := loadRuns(oldPath)
	if err == nil {
		var cur []runResult
		if cur, err = loadRuns(newPath); err == nil {
			var bounds map[string]float64
			var src string
			if bounds, src, err = benchmarkBounds(); err == nil {
				fmt.Fprintf(stdout, "bounds from %s\n", src)
				return compareRuns(old, cur, bounds, stdout)
			}
		}
	}
	fmt.Fprintln(stderr, err)
	return 2
}

func compareRuns(old, cur []runResult, bounds map[string]float64, w io.Writer) int {
	status := 0
	olds, curs := summarize(old), summarize(cur)
	for _, o := range olds {
		var n *workloadSummary
		for _, c := range curs {
			if c.workload == o.workload {
				n = c
			}
		}
		if n == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s (old %d runs, new %d runs)\n", o.workload, len(o.untraced), len(n.untraced))
		if len(o.untraced) > 0 && len(n.untraced) > 0 && o.untraced[0].Digest != n.untraced[0].Digest {
			fmt.Fprintf(w, "  SIMULATED DIGEST CHANGED: %.16s -> %.16s\n", o.untraced[0].Digest, n.untraced[0].Digest)
			status = 1
		}
		for _, d := range metricDefs {
			ov, nv := o.values(d.name), n.values(d.name)
			if d.better == "" || len(ov) == 0 || len(nv) == 0 {
				continue
			}
			// Per-layer metrics have no bound: shown, never judged.
			bound, v := "     -", verdict("-")
			if d.kind != perLayer {
				b := d.bound
				if jb, listed := bounds[d.name]; listed {
					b = jb
				}
				bound, v = fmt.Sprintf("%5.0f%%", 100*b), classify(ov, nv, d.better, b)
			}
			if v == verdictRegressed {
				status = 1
			}
			oq1, om, oq3 := quartiles(ov)
			nq1, nm, nq3 := quartiles(nv)
			delta := 0.0
			if om != 0 {
				delta = 100 * (nm - om) / math.Abs(om)
			}
			fmt.Fprintf(w, "  %-24s %14.4f [%.4f %.4f] -> %14.4f [%.4f %.4f] %-6s %+7.2f%%  bound %s  %s\n",
				d.name, om, oq1, oq3, nm, nq1, nq3, d.unit, delta, bound, v)
		}
	}
	return status
}
