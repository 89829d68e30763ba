// Command hsd-active runs the budgeted batch active-learning loop: it
// generates a shared clip pool, then alternates scoring the unlabeled
// pool, selecting a batch by hybrid uncertainty + k-center diversity (or
// uniformly at random with -strategy random, the baseline), labeling the
// batch through the litho oracle while charging a simulated ODST-seconds
// budget, and fine-tuning the detector warm-started from the previous
// round's weights.
//
// Example:
//
//	hsd-active -pool 200 -eval 80 -rounds 4 -batch 16 -budget 600 -out active.gob
//	hsd-active -pool 200 -eval 80 -rounds 4 -batch 16 -strategy random -seed 1
//	hsd-active -init model.gob -pool 400 -rounds 2 -batch 32 -manifest active.jsonl
//
// For a fixed seed, pool and budget the selected clip sequences and the
// final weights are bit-identical under any -workers value. -manifest
// emits the run as JSONL (one "manifest" event, one "round" event per
// round, one "result" event); -metrics-out dumps the process metrics
// registry (budget meter, selection/scoring stage timings) at exit.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"hotspot/internal/active"
	"hotspot/internal/feature"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/litho"
	"hotspot/internal/nn"
	"hotspot/internal/obs"
	"hotspot/internal/obs/trace"
	"hotspot/internal/parallel"
	"hotspot/internal/train"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hsd-active: ")
	var (
		styleName  = flag.String("style", "ICCAD", "layout style for pool generation (ICCAD, Industry1..3)")
		poolN      = flag.Int("pool", 200, "unlabeled pool size (clips)")
		evalN      = flag.Int("eval", 80, "held-out eval set size (labeled up front, free of budget)")
		rounds     = flag.Int("rounds", 4, "active-learning rounds")
		batch      = flag.Int("batch", 16, "clips selected per round")
		candidates = flag.Int("candidates", 0, "uncertainty shortlist fed to k-center (0 = 4×batch)")
		strategy   = flag.String("strategy", active.StrategyHybrid, "selection strategy: hybrid or random")
		budget     = flag.Float64("budget", 0, "total labeling budget in simulated ODST seconds (0 = unlimited)")
		labelCost  = flag.Float64("label-cost", 0, "simulated seconds charged per labeled clip (0 = litho default)")
		seed       = flag.Int64("seed", 1, "seed for pool generation and selection tie-breaking")
		workers    = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS); results are identical for any value")
		iters      = flag.Int("iters", 0, "override per-round fine-tune MGD iterations")
		blocks     = flag.Int("blocks", 0, "override feature tensor block grid (0 = paper default)")
		kcoef      = flag.Int("k", 0, "override DCT coefficients kept per block (0 = paper default)")
		initPath   = flag.String("init", "", "warm-start checkpoint: start the loop from this saved model")
		out        = flag.String("out", "", "save the final model to this file")
		manifest   = flag.String("manifest", "", "write JSONL run telemetry (manifest, per-round records, result) to this file")
		metricsOut = flag.String("metrics-out", "", "dump the metrics registry as scrape text to this file at exit")
		traceOut   = flag.String("trace-out", "", "record per-round trace trees and dump the flight recorder as JSONL to this file at exit")
	)
	flag.Parse()
	parallel.SetDefault(*workers)
	obs.SetBuildInfo(obs.Default(), obs.L("tool", "hsd-active"))

	style, err := layout.StyleByName(*styleName)
	if err != nil {
		log.Fatal(err)
	}
	fcfg := feature.DefaultTensorConfig()
	if *blocks > 0 {
		fcfg.Blocks = *blocks
	}
	if *kcoef > 0 {
		fcfg.K = *kcoef
	}

	var (
		mlog  *obs.EventLog
		mfile *os.File
	)
	if *manifest != "" {
		mfile, err = os.Create(*manifest)
		if err != nil {
			log.Fatal(err)
		}
		mlog = obs.NewEventLog(mfile)
	}

	// Generate the shared clip pool and the held-out eval clips from
	// disjoint per-index RNG streams (eval indices start at poolN), then
	// label the eval set up front through the litho oracle — eval labels
	// are free: the budget meters pool labeling only.
	labeler, err := layout.NewLabeler(style, litho.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	clips := genClips(style, *seed, 0, *poolN+*evalN)
	core := style.CoreRect()
	pool, err := active.NewPool(clips[:*poolN], core, fcfg, *workers)
	if err != nil {
		log.Fatal(err)
	}
	evalSet, err := labelSet(labeler, clips[*poolN:], core, fcfg, *workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pool %d clips, eval %d clips (style %s, %d×%d×%d features)\n",
		*poolN, *evalN, style.Name, fcfg.K, fcfg.Blocks, fcfg.Blocks)

	net, err := buildNet(*initPath, fcfg)
	if err != nil {
		log.Fatal(err)
	}

	tune := active.DefaultTune()
	if *iters > 0 {
		tune.Initial.MaxIters = *iters
		if *iters >= 2 {
			tune.Initial.DecayStep = *iters / 2
		}
	}
	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New(trace.Config{})
	}
	cfg := active.Config{
		Rounds:        *rounds,
		Batch:         *batch,
		Candidates:    *candidates,
		Strategy:      *strategy,
		LabelSeconds:  *labelCost,
		BudgetSeconds: *budget,
		Seed:          *seed,
		Workers:       *workers,
		Tune:          tune,
		Log:           mlog,
		Tracer:        tracer,
	}
	loop, err := active.NewLoop(cfg, net, pool, func(_ int, c geom.Clip) (bool, error) {
		rep, err := labeler.Label(c)
		if err != nil {
			return false, err
		}
		return rep.Hotspot, nil
	}, evalSet)
	if err != nil {
		log.Fatal(err)
	}
	reports, err := loop.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("round  scored  labeled  hotspots  budget-spent  accuracy  recall  false-alarms")
	for _, r := range reports {
		trunc := ""
		if r.Truncated {
			trunc = "  (budget exhausted)"
		}
		fmt.Printf("%5d  %6d  %7d  %8d  %12.1f  %7.1f%%  %5.1f%%  %12d%s\n",
			r.Round, r.Scored, r.Labeled, r.Hotspots, r.BudgetSpent,
			100*r.Eval.Accuracy, 100*r.Eval.Recall, r.Eval.FalseAlarms, trunc)
	}
	fmt.Printf("labeled %d clips for %.1f simulated ODST seconds; weight checksum %016x\n",
		len(loop.Labeled()), loop.Budget().Spent(), active.WeightChecksum(net))

	if *out != "" {
		if err := obs.WriteFile(*out, net.Save); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if mfile != nil {
		if err := mlog.Err(); err != nil {
			log.Fatal(err)
		}
		if err := mfile.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if *metricsOut != "" {
		if err := obs.WriteFile(*metricsOut, obs.Default().WriteText); err != nil {
			log.Fatal(err)
		}
	}
	if tracer != nil {
		if err := obs.WriteFile(*traceOut, tracer.WriteJSONL); err != nil {
			log.Fatal(err)
		}
	}
}

// genClips generates clips for indices base..base+n-1, each from its own
// index-keyed RNG stream (the suite-generation construction), so pools and
// eval sets are deterministic and disjoint for disjoint index ranges.
func genClips(style layout.Style, seed int64, base, n int) []geom.Clip {
	out := make([]geom.Clip, n)
	for i := range out {
		rng := rand.New(rand.NewSource(seed + int64(base+i)*0x9e3779b9))
		out[i] = layout.Generate(style, rng)
	}
	return out
}

// labelSet labels clips through the litho oracle and extracts their
// feature tensors, fanned across workers in index order.
func labelSet(labeler *layout.Labeler, clips []geom.Clip, core geom.Rect, fcfg feature.TensorConfig, workers int) ([]train.Sample, error) {
	ts, err := feature.ExtractTensors(clips, core, fcfg, workers)
	if err != nil {
		return nil, err
	}
	hots, err := parallel.Map(parallel.New(workers), len(clips), func(_, i int) (bool, error) {
		rep, err := labeler.Label(clips[i])
		if err != nil {
			return false, err
		}
		return rep.Hotspot, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]train.Sample, len(clips))
	for i := range out {
		out[i] = train.Sample{X: ts[i], Hotspot: hots[i]}
	}
	return out, nil
}

// buildNet returns the starting network: the paper architecture sized to
// the feature geometry, or a shape-validated warm-start checkpoint.
func buildNet(initPath string, fcfg feature.TensorConfig) (*nn.Network, error) {
	if initPath != "" {
		f, err := os.Open(initPath)
		if err != nil {
			return nil, err
		}
		net, err := train.LoadWarmStart(f, []int{fcfg.K, fcfg.Blocks, fcfg.Blocks})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		fmt.Printf("warm start from %s\n", initPath)
		return net, nil
	}
	ncfg := nn.DefaultPaperNetConfig()
	ncfg.InChannels = fcfg.K
	ncfg.SpatialSize = fcfg.Blocks
	return nn.NewPaperNet(ncfg)
}
