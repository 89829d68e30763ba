// Command benchmark is the repository benchmark. Each run drives one
// workload through the public APIs of internal/serve, internal/scan,
// internal/train, internal/active and internal/layout, gates on correct
// outputs before any timing, and prints every metric by name with its
// unit and sample count. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 they are its per-layer metrics, measured in a separate
// traced pass. See README.md for the metric → layer → workload map.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --workload serve-bulk --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// config is one benchmark invocation.
type config struct {
	seed    int64
	seconds int
	trace   bool
	tiny    bool      // test and probe size: a few operations per phase
	log     io.Writer // detail lines
}

// opNames names a workload's end-to-end metrics the way its users read
// them; the JSON result carries them under the generic BENCHMARK.json
// names (latency_p50_ms, latency_tail_ms, throughput_per_s).
type opNames struct {
	p50, tail string  // e.g. predict_p50_ms
	latUnit   string  // unit of p50 and tail
	latScale  float64 // multiplies a latency in ms into latUnit
	work      string  // e.g. bulk_clips_per_s
	workUnit  string
}

// outcome is what one workload run measured.
type outcome struct {
	names     opNames
	setupS    []float64 // one entry per set-up repetition
	latencyMS []float64 // one entry per measured operation
	work      float64   // units of work the measured phase completed
	workS     float64   // seconds the work took; throughput is work/workS
	workNote  string    // what work and workS are
	rssMB     float64   // peak RSS read right after the measured phase
	phases    []counts
	checksums map[string]string
	extra     []string // further workload metrics, preformatted detail lines

	// busyS is the untraced measured phase's busy time; tracedBusyS the
	// traced phase's. Their ratio is trace.overhead_share.
	busyS, tracedBusyS float64
	layers             map[string]float64 // per-layer metrics (traced runs)
	spans              []spanRec
	root               int64    // the traced phase's root span
	wrong              []string // output checks that failed after timing
}

func (o *outcome) attempted() (n, failed int) {
	for _, p := range o.phases {
		n += p.Sent
		failed += p.Failed
	}
	return n, failed
}

// workload is one benchmark traffic mix.
type workload struct {
	name string
	why  string
	run  func(c *config) (*outcome, error)
	// native lists the per-layer groups the workload measures on its own
	// traffic; a traced run fills every other group from a tiny probe
	// run of the workload that does exercise it.
	native []string
}

// workloads are the workloads BENCHMARK.json names.
var workloads = []workload{
	{name: "serve-bulk", run: runBulk, native: []string{"serve"},
		why: "2 closed-loop clients posting 64-clip batches, half repeats: full micro-batches, parallel extract, fused infer, cache hits; latency = bulk_p50/tail_ms, throughput = clips/s"},
	{name: "die-scan", run: runDieScan, native: []string{"scan"},
		why: "cold Scan of a seeded 6x6-cell die, then 400-1200 nm edits each followed by Rescan: block-plane cache, fused infer, no HTTP; latency = rescan, throughput = windows/s"},
	{name: "learn", run: runLearn, native: []string{"learn"},
		why: "MGD on a litho-labelled suite, then active.Loop rounds: layered forward/backward, k-center selection, litho labels; latency = active round, throughput = MGD samples/s"},
}

// interactive runs by name and fills the loadgen layer group of traced
// runs, but BENCHMARK.json does not name it: on a shared 2-vCPU VM its
// tail followed the machine's speed from run to run, with an IQR/median
// of 0.31–0.36 over ten seeds, above the largest bound the benchmark may
// set (see README.md).
var interactive = workload{name: "serve-interactive", run: runInteractive, native: []string{"serve", "loadgen"},
	why: "open-loop single-clip /v1/predict at 40 req/s, distinct clips: decode, raster, MaxWait queue floor, batch-of-1 infer; latency = predict_p50/tail_ms"}

// layerGroups lists the per-layer metrics by the layer group that
// produces them. Group "replay" is measured by every workload on its own
// inputs.
var layerGroups = []struct {
	group   string
	metrics []string
}{
	{"serve", []string{"serve.queue_p50_ms", "serve.queue_p99_ms", "serve.batch_size_mean", "serve.batch_p50_ms",
		"serve.extract_p50_ms", "serve.infer_p50_ms", "serve.request_p50_ms", "serve.cache_hit_ratio", "serve.refused_share"}},
	{"loadgen", []string{"loadgen.late_p99_ms"}},
	{"replay", []string{"feature.raster_us", "feature.dct_us", "feature.block_encode_us",
		"fused.forward_us", "fused.conv1-1.us", "fused.conv1-2_pool.us", "fused.conv2-1.us", "fused.conv2-2_pool.us",
		"fused.fc1.us", "fused.fc2.us", "eval.predict_us_per_clip",
		"runtime.alloc_kb_per_op", "runtime.gc_cycles", "trace.unattributed_share", "trace.overhead_share"}},
	{"scan", []string{"scan.cold_s", "scan.block_dcts", "scan.block_gathers", "scan.cache_hit_rate",
		"scan.rescan_windows_mean", "scan.rescan_dirty_blocks_mean", "layout.apply_edit_us"}},
	{"learn", []string{"train.step_ms",
		"nn.conv1-1.fwd_us", "nn.conv1-1.bwd_us", "nn.conv1-2.fwd_us", "nn.conv1-2.bwd_us",
		"nn.conv2-1.fwd_us", "nn.conv2-1.bwd_us", "nn.conv2-2.fwd_us", "nn.conv2-2.bwd_us",
		"nn.fc1.fwd_us", "nn.fc1.bwd_us",
		"active.score_ms", "active.select_ms", "active.tune_s", "litho.label_ms_p50", "litho.labels"}},
}

// probeFor names the workload whose tiny run fills a layer group.
var probeFor = map[string]string{"serve": "serve-bulk", "loadgen": "serve-interactive", "scan": "die-scan", "learn": "learn"}

// unit returns a per-layer metric's unit, read off its name.
func unit(name string) string {
	switch {
	case name == "litho.labels" || name == "runtime.gc_cycles" || name == "scan.block_dcts" ||
		name == "scan.block_gathers" || name == "scan.rescan_windows_mean" || name == "scan.rescan_dirty_blocks_mean" ||
		name == "serve.batch_size_mean":
		return "count"
	case name == "runtime.alloc_kb_per_op":
		return "KiB"
	case strings.HasSuffix(name, "_us"), strings.HasSuffix(name, ".us"), name == "eval.predict_us_per_clip":
		return "us"
	case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, "_ms_p50"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	default:
		return "share"
	}
}

// traced runs phase under a fresh tracer, with the phase's root span named
// after the workload, and starts o.layers with the metrics every workload
// measures the same way. phase returns how many operations it ran. The
// memory statistics are read outside the root span: ReadMemStats stops
// the world, and no child span would explain that time.
func (o *outcome) traced(c *config, name string, phase func(tr *tracer, root span) (ops int, err error)) error {
	tr := newTracer()
	mem := startMem()
	root := tr.start(c.workloadName(name), span{})
	ops, err := phase(tr, root)
	root.end()
	alloc, gcs := mem.stop()
	if err != nil {
		return err
	}
	o.spans, o.root = tr.spans, root.rec.ID
	o.layers = map[string]float64{
		"runtime.alloc_kb_per_op":  float64(alloc) / 1024 / float64(max(ops, 1)),
		"runtime.gc_cycles":        float64(gcs),
		"trace.unattributed_share": unattributed(tr.spans, root.rec.ID),
	}
	return nil
}

// setups is how many set-ups a run times, n, or one at test size. The
// median is reported as setup_s.
func (c *config) setups(n int) int {
	if c.tiny {
		return 1
	}
	return n
}

// workloadName names a traced phase's root span.
func (c *config) workloadName(name string) string {
	if c.tiny {
		return name + "(probe)"
	}
	return name
}

// gateError is a correctness failure found before any timing.
type gateError struct{ msg string }

func (e *gateError) Error() string { return "correctness gate failed: " + e.msg }

func gatef(format string, args ...any) error { return &gateError{msg: fmt.Sprintf(format, args...)} }

func findWorkload(name string) (workload, bool) {
	for _, w := range append(workloads, interactive) {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: serve-interactive, serve-bulk, die-scan or learn")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "nominal measured seconds; operation counts scale with it")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "benchmark: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	c := &config{seed: *seed, seconds: *seconds, trace: *traced == 1, log: stdout}
	fp := machine()
	fp.Workload, fp.Seed, fp.Seconds, fp.Trace = w.name, c.seed, c.seconds, c.trace
	fpJSON, _ := json.Marshal(fp)
	logf(stdout, "fingerprint %s", fpJSON)
	logf(stdout, "why %s: %s", w.name, w.why)

	o, err := w.run(c)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if c.trace {
		if err := fillLayers(c, w, o); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
	}
	res, err := report(c, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if err := saveRecord(fp, o, res); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "benchmark: %s: output checks failed: %v\n", w.name, o.wrong)
		return 1
	}
	return 0
}

// fillLayers completes a traced run's per-layer metrics: groups the
// workload does not exercise come from tiny probe runs of the workloads
// that do (listed in the detail lines, so no number is mistaken for the
// workload's own).
func fillLayers(c *config, w workload, o *outcome) error {
	native := map[string]bool{"replay": true}
	for _, g := range w.native {
		native[g] = true
	}
	probes := map[string]*outcome{}
	for _, lg := range layerGroups {
		if native[lg.group] {
			continue
		}
		pname := probeFor[lg.group]
		p := probes[pname]
		if p == nil {
			pw, _ := findWorkload(pname)
			var err error
			p, err = pw.run(&config{seed: c.seed, seconds: 1, trace: true, tiny: true})
			if err != nil {
				return fmt.Errorf("probe %s: %w", pname, err)
			}
			o.wrong = append(o.wrong, p.wrong...)
			probes[pname] = p
		}
		for _, m := range lg.metrics {
			o.layers[m] = p.layers[m]
		}
		logf(c.log, "layers %s: from a tiny %s probe (not exercised by this workload)", lg.group, pname)
	}
	return nil
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// report prints the detail lines and builds the result object.
func report(c *config, o *outcome, out io.Writer) (resultJSON, error) {
	n, failed := o.attempted()
	res := resultJSON{Correct: len(o.wrong) == 0, Attempted: n, Failed: failed, Metrics: map[string]metricJSON{}}
	if n < 1 {
		return res, errors.New("no operation attempted")
	}
	for _, p := range o.phases {
		logf(out, "phase %-12s sent=%d succeeded=%d failed=%d refused=%d", p.Phase, p.Sent, p.Succeeded, p.Failed, p.Refused)
	}
	keys := make([]string, 0, len(o.checksums))
	for k := range o.checksums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		logf(out, "checksum %s %s", k, o.checksums[k])
	}

	nm := o.names
	setup := median(o.setupS)
	p50, tl, pct := latency(o.latencyMS)
	thr := o.work / o.workS
	rss := o.rssMB
	logf(out, "metric setup_s = %.6g s (median of %d set-ups)", setup, len(o.setupS))
	logf(out, "metric %s = %.6g %s (p50; n=%d)", nm.p50, p50*nm.latScale, nm.latUnit, len(o.latencyMS))
	logf(out, "metric %s = %.6g %s (p%.4g; n=%d)", nm.tail, tl*nm.latScale, nm.latUnit, pct, len(o.latencyMS))
	logf(out, "metric %s = %.6g %s (%.6g over %.6g s: %s)", nm.work, thr, nm.workUnit, o.work, o.workS, o.workNote)
	logf(out, "metric failed_share = %.6g share (%d of %d)", float64(failed)/float64(n), failed, n)
	logf(out, "metric peak_rss_mb = %.6g MB", rss)
	for _, e := range o.extra {
		logf(out, "metric %s", e)
	}
	if !c.trace {
		res.Metrics["setup_s"] = metricJSON{setup, "s"}
		res.Metrics["latency_p50_ms"] = metricJSON{p50, "ms"}
		res.Metrics["latency_tail_ms"] = metricJSON{tl, "ms"}
		res.Metrics["throughput_per_s"] = metricJSON{thr, "1/s"}
		res.Metrics["peak_rss_mb"] = metricJSON{rss, "MB"}
		return res, nil
	}

	if o.busyS > 0 {
		o.layers["trace.overhead_share"] = o.tracedBusyS/o.busyS - 1
	}
	for _, s := range summarize(o.spans) {
		logf(out, "self %-24s count=%-6d self=%.6gs wall=%.6gs", s.Name, s.Count, s.SelfS, s.WallS)
	}
	u := o.layers["trace.unattributed_share"]
	g := largestGap(o.spans, o.root)
	logf(out, "trace unattributed=%.4g largest gap %.6gs at +%.6gs, after %q, before %q", u, float64(g.hi-g.lo)/1e9, float64(g.lo)/1e9, g.after, g.before)
	if u > unattributedLimit {
		o.wrong = append(o.wrong, fmt.Sprintf("trace: %.3f of the traced phase is outside every span (limit %.2f); largest gap %.6gs after %q, before %q",
			u, unattributedLimit, float64(g.hi-g.lo)/1e9, g.after, g.before))
		res.Correct = false
	}
	for _, lg := range layerGroups {
		for _, m := range lg.metrics {
			v, ok := o.layers[m]
			if !ok {
				return res, fmt.Errorf("per-layer metric %s was not measured", m)
			}
			res.Metrics[m] = metricJSON{v, unit(m)}
			logf(out, "layer %s = %.6g %s", m, v, unit(m))
		}
	}
	return res, nil
}

// unattributedLimit bounds the share of a traced phase's wall time that
// may fall outside every recorded span.
const unattributedLimit = 0.05

// saveRecord writes the full result — fingerprint, accounting, checksums,
// spans — under .bench_build/results in the working directory.
func saveRecord(fp fingerprint, o *outcome, res resultJSON) error {
	dir := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if fp.Trace {
		mode = "trace"
	}
	rec := map[string]any{
		"fingerprint": fp, "result": res, "phases": o.phases, "checksums": o.checksums,
		"setup_s": o.setupS, "latency_ms": o.latencyMS, "self": summarize(o.spans), "spans": o.spans,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", fp.Workload, fp.Seed, mode)), b, 0o644)
}
