// Command perfbench is the end-to-end and per-layer benchmark of secmon.
//
// It runs one named workload from a seed in a single process, checks every
// output against computations made apart from the solver, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the last
// line of its standard output:
//
//	bash perfbench/run.sh --workload solve-batch --seed 1 --seconds 30 --trace 0
//
// The steady subcommand runs a workload repeatedly and prints the run-to-run
// spread of every end-to-end metric against its bound in BENCHMARK.json:
//
//	bash perfbench/run.sh steady --workload serve-mixed --runs 5
//
// See README.md for the workloads, metrics and reference figures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workDir holds everything a run writes: state directories, traces and the
// built binary. It is relative to the checkout root, where run.sh starts the
// benchmark, and is listed in the repository's .gitignore.
const workDir = ".bench_build/perfbench"

// setupRepeats is how often a run performs its set-up; setup_s is the
// median, and the last session is the one that runs. A single set-up
// lasts well under a second, where a shared machine's noise is large.
const setupRepeats = 9

// benchProcs is the processor count (GOMAXPROCS) the benchmark runs on, on
// every workload; solver and campaign worker counts follow it. On a 2-vCPU
// virtual machine shared with other tenants, four interleaved pairs of
// runs at 2 and at 1 varied in throughput by 15% against 6% on
// solve-batch and by 12% against 9% on serve-mixed, and a campaign-loop run
// at 2 lost a third of its throughput to a burst of 30% steal time: work
// split across both vCPUs waits for the slower one, where one busy
// processor's work can move to the other.
const benchProcs = 1

// options are the command-line settings of one run.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	fullCheck bool
	tmp       string // per-run scratch directory under workDir
}

// workload builds sessions of one workload.
type workload interface {
	// setup performs all work before the first timed operation. Spans
	// recorded on tr (nil when untraced) feed the set-up per-layer metrics.
	setup(o *options, tr *tracer) (session, error)
}

// preparer is a workload with inputs written once per run, before the
// set-ups, such as the state directory a server restarts from.
type preparer interface {
	prepare(o *options) error
}

// session is one set-up workload, ready to run.
type session interface {
	// run executes whole rounds of operations until the deadline passes,
	// recording each operation in ph.
	run(deadline time.Time, ph *phase) error
	// layers writes the workload's per-layer metrics for the traced phase.
	layers(ph *phase, m map[string]float64)
	// check verifies every output recorded during the runs.
	check(o *options) error
	close() error
}

var workloads = map[string]workload{
	"solve-batch":   solveBatch{},
	"serve-mixed":   serveMixed{},
	"campaign-loop": campaignLoop{},
}

// phase collects what one timed phase measured. Safe for concurrent use.
type phase struct {
	tr     *tracer // nil when untraced
	solver solverTally

	mu    sync.Mutex
	lat   []float64 // per-operation latency, ms
	kinds map[string]*opCount
	errs  []string
	opSeq int64
}

type opCount struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
}

func newPhase(tr *tracer) *phase {
	return &phase{tr: tr, kinds: make(map[string]*opCount)}
}

// nextOp hands out operation ids for spans.
func (p *phase) nextOp() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.opSeq++
	return p.opSeq
}

// record books one finished operation. A failed operation counts against
// attempted but contributes no latency sample.
func (p *phase) record(kind string, d time.Duration, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.kinds[kind]
	if c == nil {
		c = &opCount{}
		p.kinds[kind] = c
	}
	c.Attempted++
	if err != nil {
		c.Failed++
		if len(p.errs) < 5 {
			p.errs = append(p.errs, fmt.Sprintf("%s: %v", kind, err))
		}
		return
	}
	p.lat = append(p.lat, float64(d.Nanoseconds())/1e6)
}

func (p *phase) totals() (attempted, failed int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.kinds {
		attempted += c.Attempted
		failed += c.Failed
	}
	return attempted, failed
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	runtime.GOMAXPROCS(benchProcs)
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench steady:", err)
			os.Exit(1)
		}
		return
	}
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseOptions(args []string) (*options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.workload, "workload", "", "workload: solve-batch, serve-mixed or campaign-loop")
	fs.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 30, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	fs.BoolVar(&o.fullCheck, "full-check", false, "certify every solve, not a seeded subset")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive")
	}
	o.trace = *traceFlag == 1
	return o, nil
}

// run performs one benchmark run and prints its report. Untraced, it
// measures one session for the whole run time. Traced, it measures three
// sessions, each from a fresh preparation and set-up: an untraced warm-up
// for a quarter of the run time, then an untraced and a traced session for
// half the run time each. The throughput difference between the last two
// is the tracing overhead, and the traced session sees the same workload
// as an untraced run. Without the warm-up, the first session of a process
// ran up to 13% slower than an identical second one on serve-mixed, which
// the overhead would have credited to tracing.
func run(o *options, out io.Writer) error {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return fmt.Errorf("work dir: %w", err)
	}
	tmp, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return fmt.Errorf("run dir: %w", err)
	}
	defer os.RemoveAll(tmp)
	o.tmp = tmp
	printEnv(out, o)

	var ms []*measurement
	if o.trace {
		warm, err := measure(o, o.seconds/4, false, out)
		if err != nil {
			return err
		}
		plain, err := measure(o, o.seconds/2, false, out)
		if err != nil {
			return err
		}
		traced, err := measure(o, o.seconds/2, true, out)
		if err != nil {
			return err
		}
		ms = []*measurement{warm, plain, traced}
		if err := reportTrace(o, plain, traced, out); err != nil {
			return err
		}
	} else {
		m, err := measure(o, o.seconds, false, out)
		if err != nil {
			return err
		}
		ms = []*measurement{m}
	}

	rep := report{Correct: true, Metrics: make(map[string]metric)}
	for i, m := range ms {
		a, f := m.ph.totals()
		rep.Attempted += a
		rep.Failed += f
		// Every operation must succeed and every solve end proven: a failed
		// one makes the run incorrect, not merely slower.
		if f > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed\n", f, a)
		}
		rep.Correct = rep.Correct && m.correct && f == 0
		label := "timed"
		if o.trace {
			label = [3]string{"warm-up", "untraced", "traced"}[i]
		}
		for _, k := range sortedKinds(m.ph) {
			c := m.ph.kinds[k]
			fmt.Fprintf(out, "# ops %s %-10s attempted %d failed %d\n", label, k, c.Attempted, c.Failed)
		}
	}
	m := ms[len(ms)-1]
	fig := m.fig
	fmt.Fprintf(out, "# %d latency samples behind p50 and the tail p%s (%d beyond it)\n",
		fig.ops, perMilleLabel(fig.tailPM), fig.ops*(1000-fig.tailPM)/1000)
	fmt.Fprintf(out, "# set-up times %v s\n", fmtFloats(m.setupS))
	if o.trace {
		for _, pl := range perLayer {
			rep.Metrics[pl.name] = metric{Value: fig.layer[pl.name], Unit: pl.unit}
		}
	} else {
		rep.Metrics["setup_s"] = metric{Value: median(m.setupS), Unit: "s"}
		rep.Metrics["throughput_ops_s"] = metric{Value: fig.throughput, Unit: "ops/s"}
		rep.Metrics["latency_p50_ms"] = metric{Value: fig.p50, Unit: "ms"}
		rep.Metrics["latency_tail_ms"] = metric{Value: fig.tail, Unit: "ms"}
		rep.Metrics["cpu_ms_per_op"] = metric{Value: fig.cpuPerOp, Unit: "ms"}
		rep.Metrics["peak_rss_mb"] = metric{Value: fig.peakRSS, Unit: "MB"}
	}
	body, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(body))
	return nil
}

// measurement is what one prepared and set-up session measured.
type measurement struct {
	setupS  []float64
	ph      *phase
	fig     phaseFigures
	correct bool
}

// measure prepares the workload's inputs, sets it up setupRepeats times,
// runs the last session for seconds and checks every output it produced.
// With traced set, spans are recorded from the set-ups on and the figures
// carry the per-layer metrics.
func measure(o *options, seconds float64, traced bool, out io.Writer) (*measurement, error) {
	w := workloads[o.workload]
	if p, ok := w.(preparer); ok {
		if err := p.prepare(o); err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
	}
	var setupTr *tracer
	ph := newPhase(nil)
	if traced {
		setupTr, ph = newTracer(), newPhase(newTracer())
	}

	// Set up several times; the median is setup_s and the last session runs.
	m := &measurement{ph: ph}
	var sess session
	var err error
	for i := 0; i < setupRepeats; i++ {
		if sess != nil {
			if err := sess.close(); err != nil {
				return nil, fmt.Errorf("close set-up %d: %w", i, err)
			}
			// Collect the closed session before the next set-up, so the
			// repeats measure set-up time without piling up each other's
			// garbage in the peak RSS.
			runtime.GC()
		}
		t := time.Now()
		if sess, err = w.setup(o, setupTr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setupS = append(m.setupS, time.Since(t).Seconds())
	}
	defer sess.close()
	runtime.GC()

	mark := readMem()
	if m.fig, err = timed(sess, ph, seconds); err != nil {
		return nil, err
	}
	if traced {
		mem := readMem()
		m.fig.layer = make(map[string]float64)
		attempted, _ := ph.totals()
		fillRuntime(m.fig.layer, mark, mem, int(attempted))
		ph.solver.fill(m.fig.layer)
		sess.layers(ph, m.fig.layer)
		setupLayers(setupTr.snapshot(), m.fig.layer)
	}

	for _, e := range ph.errs {
		fmt.Fprintln(os.Stderr, "perfbench: operation failed:", e)
	}
	m.correct = true
	checkStart := time.Now()
	if err := sess.check(o); err != nil {
		m.correct = false
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", err)
	}
	fmt.Fprintf(out, "# output checks passed=%v in %.2fs\n", m.correct, time.Since(checkStart).Seconds())
	if err := sess.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	return m, nil
}

// reportTrace prints the throughput difference between the untraced and
// the traced session as the tracing overhead, and the measured cost of
// recording the traced session's spans, and writes those spans.
func reportTrace(o *options, plain, traced *measurement, out io.Writer) error {
	p, t := plain.fig, traced.fig
	spans := traced.ph.tr.snapshot()
	fmt.Fprintf(out, "# trace overhead: %.2f%% (untraced %.3f ops/s over %d ops, traced %.3f ops/s over %d ops)\n",
		100*(1-t.throughput/p.throughput), p.throughput, p.ops, t.throughput, t.ops)
	// The throughput difference between the sessions also carries their
	// run-to-run noise; the recording cost itself, per operation against
	// the CPU an operation takes, is the part tracing adds.
	perOp, cost := float64(len(spans))/float64(t.ops), spanCost(100000)
	fmt.Fprintf(out, "# trace recording: %.1f spans per op at %.0f ns each, %.4f%% of the CPU per op\n",
		perOp, cost, 100*perOp*cost/(t.cpuPerOp*1e6))
	path, err := writeTrace(workDir, o.workload, o.seed, spans)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# trace written to %s\n", path)
	return nil
}

// phaseFigures are the end-to-end figures of one timed phase.
type phaseFigures struct {
	ops        int
	throughput float64
	p50, tail  float64
	tailPM     int
	cpuPerOp   float64
	peakRSS    float64
	layer      map[string]float64
}

// timed runs one timed phase of about seconds and derives its figures.
func timed(sess session, ph *phase, seconds float64) (phaseFigures, error) {
	ru0 := rusage()
	t0 := time.Now()
	if err := sess.run(t0.Add(time.Duration(seconds*float64(time.Second))), ph); err != nil {
		return phaseFigures{}, err
	}
	wall := time.Since(t0).Seconds()
	ru1 := rusage()

	ph.mu.Lock()
	lat := append([]float64(nil), ph.lat...)
	ph.mu.Unlock()
	sort.Float64s(lat)
	f := phaseFigures{ops: len(lat)}
	if f.ops == 0 {
		return f, errors.New("timed phase completed no operation")
	}
	f.throughput = float64(f.ops) / wall
	f.p50 = percentile(lat, 0.5)
	f.tailPM = tailPerMille(f.ops)
	f.tail = percentile(lat, float64(f.tailPM)/1000)
	f.cpuPerOp = (cpuMS(ru1) - cpuMS(ru0)) / float64(f.ops)
	f.peakRSS = float64(ru1.Maxrss) / 1024 // Linux reports kilobytes
	return f, nil
}

// setupLayers writes the per-layer metrics measured during set-up: the
// model layer's indexing and the state layer's replay, per set-up.
func setupLayers(spans []span, m map[string]float64) {
	agg := aggregate(spans)
	m["model.index_ms"] = float64(agg["model.index"].SelfNS) / 1e6 / setupRepeats
	m["state.replay_s"] = agg["state.replay"].wallMS() / 1000
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

func cpuMS(ru syscall.Rusage) float64 {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// printEnv prints the run's self-description: seed, workload and the
// machine, read from the running process and /proc/cpuinfo.
func printEnv(out io.Writer, o *options) {
	fmt.Fprintf(out, "# workload %s seed %d seconds %g trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(out, "# env nproc=%d gomaxprocs=%d go=%s os=%s/%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
}

func cpuModel() string {
	body, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(body), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func sortedKinds(p *phase) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	ks := make([]string, 0, len(p.kinds))
	for k := range p.kinds {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func perMilleLabel(pm int) string {
	s := fmt.Sprintf("%.1f", float64(pm)/10)
	return strings.TrimSuffix(s, ".0")
}

func fmtFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// runDir returns a fresh directory under the run's scratch directory.
func runDir(o *options, name string) (string, error) {
	dir := filepath.Join(o.tmp, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
