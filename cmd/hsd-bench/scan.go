package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"hotspot/internal/feature"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/nn"
	"hotspot/internal/nn/fused"
	"hotspot/internal/obs"
	"hotspot/internal/parallel"
	"hotspot/internal/scan"
	"hotspot/internal/train"
)

// The -exp scan suite benchmarks the full-layout scan engine on a
// city-scale synthetic die against the naive deployment baseline — every
// window extracted as a standalone clip and scored — and benchmarks
// incremental re-scan after a localized edit against a cold scan of the
// edited die. Before any timing it gates on bit parity: the shared-cache
// scan must reproduce the naive path's probability on every window, and
// the incremental re-scan must reproduce a cold scan of the edited die,
// or the run fails. Results go to -scan-out as JSON (BENCH_scan.json is
// the checked-in record).

// scanArm is one timed configuration's row of the JSON report.
type scanArm struct {
	// NsTotal is the mean wall time of one full pass.
	NsTotal float64 `json:"ns_total"`
	// NsPerWindow divides by the windows the pass scored.
	NsPerWindow float64 `json:"ns_per_window"`
	// BPerWindow is heap bytes allocated per scored window.
	BPerWindow float64 `json:"b_per_window"`
	// Windows is the number of windows the pass scored.
	Windows int `json:"windows"`
	// BlockDCTs is the number of block transforms the pass computed.
	BlockDCTs int `json:"block_dcts"`
	// Reps is the repetition count timed.
	Reps int `json:"reps"`
}

// scanReport is the -scan-out JSON document.
type scanReport struct {
	GOOS    string `json:"goos"`
	GOARCH  string `json:"goarch"`
	NumCPU  int    `json:"num_cpu"`
	Kernel  string `json:"kernel"`
	Workers int    `json:"workers"`

	DieCells int     `json:"die_cells"`
	DieNM    int     `json:"die_nm"`
	DieRects int     `json:"die_rects"`
	Blocks   int     `json:"blocks_per_side"`
	Windows  int     `json:"windows"`
	DirtyNM  int     `json:"dirty_nm"`
	DirtyPct float64 `json:"dirty_pct"`

	Naive       scanArm `json:"naive"`
	Shared      scanArm `json:"shared"`
	Incremental scanArm `json:"incremental"`

	CacheHitRate             float64 `json:"cache_hit_rate"`
	SpeedupSharedVsNaive     float64 `json:"speedup_shared_vs_naive"`
	SpeedupIncrementalVsCold float64 `json:"speedup_incremental_vs_cold"`
}

// scanEdit builds the benchmark's localized edit: a dirtyNM-sided region
// at the die centre, cleared and redrawn with one wire.
func scanEdit(die geom.Clip, dirtyNM int) layout.Edit {
	cx, cy := (die.Frame.X0+die.Frame.X1)/2, (die.Frame.Y0+die.Frame.Y1)/2
	region := geom.R(cx-dirtyNM/2, cy-dirtyNM/2, cx+dirtyNM/2, cy+dirtyNM/2)
	wire := geom.R(region.X0+40, region.Y0+40, region.X0+104, region.Y1-40)
	return layout.Edit{Region: region, Rects: []geom.Rect{wire}}
}

// naiveScan runs the deployment baseline: every window cut out as its own
// clip, rasterized, transformed and scored, fanned over the same worker
// count as the engine. Returns the per-window probabilities.
func naiveScan(s *scan.Scanner, ev *train.Evaluator, pool *parallel.Pool, fcfg feature.TensorConfig) ([]float64, error) {
	if err := ev.Prepare([]int{fcfg.K, fcfg.Blocks, fcfg.Blocks}); err != nil {
		return nil, err
	}
	wnx, wny := s.Windows()
	die := s.Die()
	return parallel.Map(pool, wnx*wny, func(worker, i int) (float64, error) {
		rect := s.WindowRect(i%wnx, i/wnx)
		ft, err := feature.ExtractTensor(geom.NewClip(rect, die.Rects), rect, fcfg)
		if err != nil {
			return 0, err
		}
		return ev.PredictOn(worker, ft)
	})
}

// timeScanArm times reps runs of pass, reporting mean wall time and heap
// traffic per scored window (windows is per-pass).
func timeScanArm(reps, windows, blockDCTs int, pass func() error) (scanArm, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	watch := obs.NewStopwatch()
	for r := 0; r < reps; r++ {
		if err := pass(); err != nil {
			return scanArm{}, err
		}
	}
	elapsed := watch.Elapsed()
	runtime.ReadMemStats(&after)
	ops := float64(reps)
	arm := scanArm{
		NsTotal:     float64(elapsed.Nanoseconds()) / ops,
		NsPerWindow: float64(elapsed.Nanoseconds()) / (ops * float64(windows)),
		BPerWindow:  float64(after.TotalAlloc-before.TotalAlloc) / (ops * float64(windows)),
		Windows:     windows,
		BlockDCTs:   blockDCTs,
		Reps:        reps,
	}
	return arm, nil
}

// checkScanParity fails unless two probability grids match bit for bit.
func checkScanParity(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d windows vs %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s: PARITY FAILURE window %d: %v != %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// runScan executes the suite and writes the JSON report to outPath.
func runScan(outPath string, cells, reps int, dirtyNM int, seed int64, workers int) error {
	if reps <= 0 {
		reps = 1
	}
	die, err := layout.GenerateDie(layout.DieConfig{CellsX: cells, CellsY: cells, Seed: seed, Workers: workers})
	if err != nil {
		return err
	}
	net, err := nn.NewPaperNet(nn.DefaultPaperNetConfig())
	if err != nil {
		return err
	}
	cfg := scan.DefaultConfig()
	cfg.Workers = workers
	s, err := scan.New(cfg, net, die)
	if err != nil {
		return err
	}
	if dirtyNM <= 0 {
		dirtyNM = die.Frame.W() / 10 // 1% of the die area
	}
	edit := scanEdit(die, dirtyNM)

	// Parity gates before any timing. The naive baseline needs its own
	// evaluator: the scanner owns its engines for the timed passes.
	ev, err := train.NewEvaluator(net, workers)
	if err != nil {
		return err
	}
	pool := parallel.New(workers)
	cold, err := s.Scan()
	if err != nil {
		return err
	}
	naiveProbs, err := naiveScan(s, ev, pool, cfg.Feature)
	if err != nil {
		return err
	}
	if err := checkScanParity("shared vs naive", cold.Probs, naiveProbs); err != nil {
		return err
	}
	inc, err := s.Rescan(edit)
	if err != nil {
		return err
	}
	edited, _, err := layout.ApplyEdit(die, edit)
	if err != nil {
		return err
	}
	s2, err := scan.New(cfg, net, edited)
	if err != nil {
		return err
	}
	coldEdited, err := s2.Scan()
	if err != nil {
		return err
	}
	if err := checkScanParity("incremental vs cold", inc.Probs, coldEdited.Probs); err != nil {
		return err
	}
	fmt.Printf("parity: ok (%d windows shared≡naive, %d windows incremental≡cold)\n", len(cold.Probs), len(inc.Probs))

	wnx, wny := s.Windows()
	nbx, nby := s.Blocks()
	rep := scanReport{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(),
		Kernel: fused.Vectorized(), Workers: pool.Size(),
		DieCells: cells, DieNM: die.Frame.W(), DieRects: len(die.Rects),
		Blocks: nbx, Windows: wnx * wny,
		DirtyNM:      dirtyNM,
		DirtyPct:     100 * float64(dirtyNM) * float64(dirtyNM) / (float64(die.Frame.W()) * float64(die.Frame.H())),
		CacheHitRate: cold.Stats.CacheHitRate,
	}

	// Timed passes. The incremental arm repeats the same edit, which is
	// idempotent on the layout and re-scores the same window set every rep.
	total := obs.NewStopwatch()
	if rep.Naive, err = timeScanArm(reps, wnx*wny, wnx*wny*cfg.Feature.Blocks*cfg.Feature.Blocks, func() error {
		_, err := naiveScan(s, ev, pool, cfg.Feature)
		return err
	}); err != nil {
		return err
	}
	if rep.Shared, err = timeScanArm(reps, wnx*wny, nbx*nby, func() error {
		_, err := s.Scan()
		return err
	}); err != nil {
		return err
	}
	incReps := reps * 5 // the fast arm affords more repetitions
	if rep.Incremental, err = timeScanArm(incReps, inc.Stats.Windows, inc.Stats.BlockDCTs, func() error {
		_, err := s.Rescan(edit)
		return err
	}); err != nil {
		return err
	}
	if rep.Shared.NsTotal > 0 {
		rep.SpeedupSharedVsNaive = rep.Naive.NsTotal / rep.Shared.NsTotal
	}
	if rep.Incremental.NsTotal > 0 {
		rep.SpeedupIncrementalVsCold = rep.Shared.NsTotal / rep.Incremental.NsTotal
	}

	fmt.Printf("die %d nm (%d cells, %d rects), %d blocks/side, %d windows, %d workers, %s kernel (timed in %v)\n",
		rep.DieNM, cells, rep.DieRects, rep.Blocks, rep.Windows, rep.Workers, rep.Kernel, total.Elapsed().Round(time.Millisecond))
	fmt.Printf("naive       %12.0f ns/pass %8.0f ns/win %8.0f B/win  %7d block DCTs\n",
		rep.Naive.NsTotal, rep.Naive.NsPerWindow, rep.Naive.BPerWindow, rep.Naive.BlockDCTs)
	fmt.Printf("shared-DCT  %12.0f ns/pass %8.0f ns/win %8.0f B/win  %7d block DCTs  hit rate %.4f  %.2fx vs naive\n",
		rep.Shared.NsTotal, rep.Shared.NsPerWindow, rep.Shared.BPerWindow, rep.Shared.BlockDCTs, rep.CacheHitRate, rep.SpeedupSharedVsNaive)
	fmt.Printf("incremental %12.0f ns/pass %8.0f ns/win %8.0f B/win  %7d block DCTs  (%.2f%% dirty)  %.2fx vs cold\n",
		rep.Incremental.NsTotal, rep.Incremental.NsPerWindow, rep.Incremental.BPerWindow, rep.Incremental.BlockDCTs, rep.DirtyPct, rep.SpeedupIncrementalVsCold)

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	return os.WriteFile(outPath, buf, 0o644)
}
