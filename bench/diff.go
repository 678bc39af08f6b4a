package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

// spread is a cell's own run-to-run spread: the distance between its
// quartiles as a share of its median; 0 for a single run.
func (c cell) spread() float64 {
	if len(c.Runs) < 2 || c.Value == 0 {
		return 0
	}
	return (c.Q3 - c.Q1) / math.Abs(c.Value)
}

// verdict applies a metric's direction and bound to two cells. When
// either side's own repeats spread wider than the bound, a difference of
// that size cannot be told from noise, so the answer is unresolved.
func verdict(d metricDef, old, new cell) string {
	if old.spread() > d.Bound || new.spread() > d.Bound {
		return unresolved
	}
	change := (new.Value - old.Value) / math.Abs(old.Value)
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case change > d.Bound:
		return worse
	case change < -d.Bound:
		return better
	}
	return same
}

func readResult(path string) (resultFile, error) {
	var r resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// diffFiles prints one row per workload × end-to-end metric and reports
// whether anything got worse: a metric beyond its bound, or a higher share
// of failed operations.
func diffFiles(w io.Writer, oldPath, newPath string) (bool, error) {
	old, err := readResult(oldPath)
	if err != nil {
		return false, err
	}
	new, err := readResult(newPath)
	if err != nil {
		return false, err
	}
	return diffResults(w, old, new), nil
}

func diffResults(w io.Writer, old, new resultFile) bool {
	news := map[string]workloadResult{}
	for _, wr := range new.Workloads {
		news[wr.Workload] = wr
	}
	anyWorse := false
	fmt.Fprintf(w, "%-19s %-16s %14s %14s %8s %6s  %s\n", "workload", "metric", "old", "new", "change", "bound", "verdict")
	for _, o := range old.Workloads {
		n, ok := news[o.Workload]
		if !ok {
			continue
		}
		for _, d := range endToEnd {
			oc, ok1 := o.Metrics[d.Name]
			nc, ok2 := n.Metrics[d.Name]
			if !ok1 || !ok2 {
				continue
			}
			v := verdict(d, oc, nc)
			anyWorse = anyWorse || v == worse
			fmt.Fprintf(w, "%-19s %-16s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n", o.Workload, d.Name, oc.Value, nc.Value,
				100*(nc.Value-oc.Value)/math.Abs(oc.Value), 100*d.Bound, v)
		}
		if o.OpsAttempted > 0 && n.OpsAttempted > 0 {
			of := float64(o.OpsFailed) / float64(o.OpsAttempted)
			nf := float64(n.OpsFailed) / float64(n.OpsAttempted)
			if nf > of {
				anyWorse = true
				fmt.Fprintf(w, "%-19s %-16s %14.4f %14.4f %29s\n", o.Workload, "failed/attempted", of, nf, worse)
			}
		}
	}
	return anyWorse
}
