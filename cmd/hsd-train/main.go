// Command hsd-train trains the paper's detector (feature tensor + CNN +
// biased learning) on a generated suite and saves the model.
//
// Example:
//
//	hsd-gen -bench ICCAD -scale 0.02 -out iccad.gob
//	hsd-train -data iccad.gob -out model.gob -iters 2400
//	hsd-train -data iccad.gob -out model.gob -telemetry train.jsonl -metrics-out metrics.txt
//	hsd-train -data iccad.gob -init model.gob -out tuned.gob -rounds 1
//
// -init warm-starts from a saved checkpoint (shape-validated against the
// configured feature geometry) instead of fresh weights, so one fine-tune
// entry point serves both users and the hsd-active loop.
//
// With -telemetry the run emits structured JSONL: one "manifest" event
// (config, seed, worker count), one "epoch" event per validation
// checkpoint (loss, validation accuracy/recall/false alarms, learning
// rate, step latency), and one "result" event (model checksum, output
// path). With -metrics-out the process metrics registry (train/step,
// train/epoch, feature and worker-pool stages) is dumped as scrape text
// at exit. Both are observation only: the trained model bits are
// identical with or without them.
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"os"

	"hotspot/internal/core"
	"hotspot/internal/dataset"
	"hotspot/internal/obs"
	"hotspot/internal/obs/trace"
	"hotspot/internal/parallel"
	"hotspot/internal/train"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hsd-train: ")
	var (
		data       = flag.String("data", "", "suite file written by hsd-gen (required)")
		out        = flag.String("out", "model.gob", "output model file")
		initPath   = flag.String("init", "", "warm-start checkpoint: resume training from this saved model instead of fresh weights")
		iters      = flag.Int("iters", 0, "override initial-round MGD iterations")
		rounds     = flag.Int("rounds", 0, "override biased-learning rounds t")
		lr         = flag.Float64("lr", 0, "override initial learning rate λ")
		seed       = flag.Int64("seed", 0, "override training seed")
		workers    = flag.Int("workers", 0, "worker goroutines for extraction, gradients and validation (0 = GOMAXPROCS); the trained model is identical for any value")
		telemetry  = flag.String("telemetry", "", "write JSONL training telemetry (manifest, per-epoch records, result) to this file")
		metricsOut = flag.String("metrics-out", "", "dump the metrics registry as scrape text to this file at exit")
		traceOut   = flag.String("trace-out", "", "record per-epoch trace trees and dump the flight recorder as JSONL to this file at exit")
	)
	flag.Parse()
	parallel.SetDefault(*workers)
	obs.SetBuildInfo(obs.Default(), obs.L("tool", "hsd-train"))
	if *data == "" {
		log.Fatal("-data is required")
	}

	var (
		tlog  *obs.EventLog
		tfile *os.File
	)
	if *telemetry != "" {
		var err error
		tfile, err = os.Create(*telemetry)
		if err != nil {
			log.Fatal(err)
		}
		tlog = obs.NewEventLog(tfile)
	}

	f, err := os.Open(*data)
	if err != nil {
		log.Fatal(err)
	}
	ds, err := dataset.Load(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatal(err)
	}
	hs, nhs := dataset.Stats(ds.Train)
	fmt.Printf("suite %s: train %d HS / %d NHS\n", ds.Name, hs, nhs)

	cfg := core.DefaultConfig()
	cfg.Workers = *workers
	if *iters > 0 {
		cfg.Biased.Initial.MaxIters = *iters
		cfg.Biased.Initial.ValEvery = *iters / 10
		cfg.Biased.Initial.DecayStep = *iters / 3
	}
	if *rounds > 0 {
		cfg.Biased.Rounds = *rounds
	}
	if *lr > 0 {
		cfg.Biased.Initial.LearningRate = *lr
	}
	if *seed != 0 {
		cfg.Seed = *seed
		cfg.Biased.Initial.Seed = *seed
		cfg.Biased.FineTune.Seed = *seed + 1
		cfg.Net.Seed = *seed + 2
	}
	tlog.Emit("manifest", map[string]any{
		"tool":          "hsd-train",
		"suite":         ds.Name,
		"train_hs":      hs,
		"train_nhs":     nhs,
		"seed":          cfg.Seed,
		"workers":       parallel.Workers(*workers),
		"rounds":        cfg.Biased.Rounds,
		"max_iters":     cfg.Biased.Initial.MaxIters,
		"batch_size":    cfg.Biased.Initial.BatchSize,
		"learning_rate": cfg.Biased.Initial.LearningRate,
		"init":          *initPath,
	})
	if tlog != nil {
		cfg.OnEpoch = func(round int, eps float64, e train.EpochEvent) {
			tlog.Emit("epoch", map[string]any{
				"round":            round,
				"eps":              eps,
				"iter":             e.Iter,
				"loss":             e.TrainLoss,
				"val_accuracy":     e.ValAccuracy,
				"val_recall":       e.ValRecall,
				"val_false_alarms": e.ValFA,
				"learning_rate":    e.LearningRate,
				"step_p50_seconds": e.StepP50,
				"step_p99_seconds": e.StepP99,
				"elapsed_seconds":  e.Elapsed.Seconds(),
			})
		}
	}
	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New(trace.Config{})
		cfg.Biased.Initial.Tracer = tracer
		cfg.Biased.FineTune.Tracer = tracer
	}
	var det *core.Detector
	if *initPath != "" {
		// Warm start: resume from a saved checkpoint via the shared
		// train.LoadWarmStart entry point (shape-validated against the
		// configured feature geometry) instead of fresh weights.
		cf, err := os.Open(*initPath)
		if err != nil {
			log.Fatal(err)
		}
		det, err = core.LoadDetector(cf, cfg)
		if cerr := cf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("warm start from %s\n", *initPath)
	} else {
		var err error
		det, err = core.NewDetector(cfg)
		if err != nil {
			log.Fatal(err)
		}
	}

	report, err := det.Train(ds.Train, ds.Core())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %d samples (%d validation) in %v\n",
		report.TrainSamples, report.ValSamples, report.Elapsed)
	for _, r := range report.Rounds {
		fmt.Printf("  ε=%.1f: val recall %.1f%%, val FA %d\n",
			r.Eps, 100*r.Val.Recall, r.Val.FalseAlarms)
	}

	mf, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	// A failed Close on a file being written is silent data loss: check
	// it instead of deferring it into the void. The checkpoint bytes are
	// teed through FNV-1a so the telemetry names exactly what was written.
	sum := fnv.New64a()
	if err := det.Save(io.MultiWriter(mf, sum)); err != nil {
		log.Fatal(err)
	}
	if err := mf.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
	tlog.Emit("result", map[string]any{
		"model":           *out,
		"model_fnv64a":    fmt.Sprintf("%016x", sum.Sum64()),
		"train_samples":   report.TrainSamples,
		"val_samples":     report.ValSamples,
		"elapsed_seconds": report.Elapsed.Seconds(),
	})
	if tfile != nil {
		if err := tlog.Err(); err != nil {
			log.Fatal(err)
		}
		if err := tfile.Close(); err != nil {
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
