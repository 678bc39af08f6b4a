// Command bench is the repository's benchmark: seven named workloads, four
// end-to-end metrics measured with tracing off, and a traced pass that
// attributes time to layers by timing calls into their public functions
// from outside the engine. See README.md.
//
//	go run ./bench                         every workload, one child process each
//	go run ./bench -trace 1                the per-layer pass
//	go run ./bench -workload agg_cached    one workload, in this process
//	go run ./bench -repeat 5 > new.json    median and quartiles per cell
//	go run ./bench -diff old.json new.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"repro/internal/cluster/sqlexec"
)

// scratchDir holds every file the benchmark writes; it lives in the
// working directory because a run may not write outside its checkout.
const scratchDir = ".bench_tmp"

func main() {
	// cluster_shuffle re-executes this binary as its worker processes.
	sqlexec.RunIfWorker()

	var c runConfig
	name := flag.String("workload", "", "run this one workload in-process and print the contract's result line ("+strings.Join(workloadNames(), ", ")+")")
	seed := flag.Uint64("seed", 11, "seed every input is generated from")
	flag.Float64Var(&c.seconds, "seconds", 10, "length of the timed window; warm-up is a fifth of it")
	trace := flag.Int("trace", 0, "1 = traced pass: per-layer metrics instead of end-to-end ones")
	flag.StringVar(&c.traceOut, "trace-out", "", "with -trace 1 and -workload: write the spans to this file as JSON lines")
	smoke := flag.Bool("smoke", false, "tiny tables, for a quick check of the harness itself")
	repeat := flag.Int("repeat", 1, "run the whole set this many times and report median and quartiles")
	diff := flag.Bool("diff", false, "compare two result files: -diff old.json new.json")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -diff old.json new.json"))
		}
		worse, err := diffFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	c.seed, c.trace, c.sz = *seed, *trace != 0, fullSizes
	if *smoke {
		c.sz = smokeSizes
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fatal(err)
	}
	c.tmpRoot = scratchDir
	if *name == "" {
		if err := runAll(c, *repeat, *smoke); err != nil {
			fatal(err)
		}
		return
	}

	// A signal must not leave scratch files or worker processes behind:
	// the workers die with this process, the files are removed here.
	c.workload = *name
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(scratchDir)
		os.Exit(130)
	}()
	rep, err := runOne(c)
	os.Remove(scratchDir) // succeeds only if no other run shares it
	if err != nil {
		fatal(err)
	}
	if rep.detail.FirstError != "" {
		fmt.Fprintln(os.Stderr, "bench:", rep.detail.FirstError)
	}
	out := json.NewEncoder(os.Stdout)
	out.Encode(rep.detail)
	out.Encode(rep)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// header records what a result was measured on.
type header struct {
	GitRev     string  `json:"git_rev"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Repeat     int     `json:"repeat"`
	Sizes      sizes   `json:"sizes"`
}

// cell is one workload × metric entry of a result file: the median over
// the repeats, and their quartiles and values when there were several.
type cell struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Q1    float64   `json:"q1,omitempty"`
	Q3    float64   `json:"q3,omitempty"`
	Runs  []float64 `json:"runs,omitempty"`
}

// workloadResult is one workload's section of a result file.
type workloadResult struct {
	Workload     string          `json:"workload"`
	OpsAttempted int             `json:"ops_attempted"`
	OpsFailed    int             `json:"ops_failed"`
	Metrics      map[string]cell `json:"metrics"`
	Detail       detail          `json:"detail"`
}

type resultFile struct {
	Header header `json:"header"`
	// Layers maps each per-layer metric of a traced pass to its module.
	Layers    map[string]string `json:"layers,omitempty"`
	Workloads []workloadResult  `json:"workloads"`
}

// runAll runs every workload in a fresh child process, repeat times over,
// and prints one result file on standard output.
func runAll(c runConfig, repeat int, smoke bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rev := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	res := resultFile{Header: header{
		GitRev: rev, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: c.seed, Seconds: c.seconds, Trace: c.trace, Repeat: repeat, Sizes: c.sz,
	}}
	if c.trace {
		res.Layers = map[string]string{}
		for _, d := range layerMetrics {
			res.Layers[d.Name] = d.Layer
		}
	}
	hdr, _ := json.Marshal(res.Header)
	fmt.Fprintf(os.Stderr, "bench: %s\n", hdr)

	runs := map[string]map[string][]float64{}
	byName := map[string]*workloadResult{}
	for r := 0; r < repeat; r++ {
		for _, w := range workloads {
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(c.seed), "-seconds", fmt.Sprint(c.seconds)}
			if c.trace {
				args = append(args, "-trace", "1")
			}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			var d detail
			var rep report
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			if len(lines) < 2 || json.Unmarshal(lines[len(lines)-2], &d) != nil || json.Unmarshal(lines[len(lines)-1], &rep) != nil {
				return fmt.Errorf("%s: unreadable result %q", w.name, out)
			}
			wr := byName[w.name]
			if wr == nil {
				wr = &workloadResult{Workload: w.name, Metrics: map[string]cell{}}
				byName[w.name] = wr
				runs[w.name] = map[string][]float64{}
			}
			wr.OpsAttempted += rep.Attempted
			wr.OpsFailed += rep.Failed
			wr.Detail = d
			for name, m := range rep.Metrics {
				runs[w.name][name] = append(runs[w.name][name], m.Value)
				wr.Metrics[name] = cell{Unit: m.Unit}
			}
			fmt.Fprintf(os.Stderr, "bench: %-18s run %d/%d: %d ops, %d failed\n", w.name, r+1, repeat, rep.Attempted, rep.Failed)
		}
	}
	for _, w := range workloads {
		wr := byName[w.name]
		for name, c := range wr.Metrics {
			v := runs[w.name][name]
			c.Q1, c.Value, c.Q3 = quartiles(v)
			if len(v) > 1 {
				c.Runs = v
			}
			wr.Metrics[name] = c
		}
		res.Workloads = append(res.Workloads, *wr)
	}
	os.Remove(scratchDir)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
