package feature

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"hotspot/internal/geom"
	"hotspot/internal/raster"
)

// fullFrameCore is the reference ExtractCoreImage replaced: rasterize the
// whole frame, then crop the core's pixel window.
func fullFrameCore(t *testing.T, clip geom.Clip, core geom.Rect, res int) *raster.Image {
	t.Helper()
	im, err := raster.Rasterize(clip, res)
	if err != nil {
		t.Fatal(err)
	}
	x0 := (core.X0 - clip.Frame.X0) / res
	y0 := (core.Y0 - clip.Frame.Y0) / res
	side := core.W() / res
	sub, err := im.SubImage(x0, y0, x0+side, y0+side)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func assertSameImage(t *testing.T, label string, got, want *raster.Image) {
	t.Helper()
	if got.W != want.W || got.H != want.H {
		t.Fatalf("%s: core image %dx%d, want %dx%d", label, got.W, got.H, want.W, want.H)
	}
	for i := range want.Pix {
		if math.Float64bits(got.Pix[i]) != math.Float64bits(want.Pix[i]) {
			t.Fatalf("%s: pixel (%d,%d) = %v, want %v", label, i%want.W, i/want.W, got.Pix[i], want.Pix[i])
		}
	}
}

// TestCoreWindowRasterMatchesFullFrame pins the core-window raster bit for
// bit against full-frame rasterization plus crop, on hand-picked edge
// cases and on random geometry: cores off the pixel grid, frame sides that
// are not multiples of the resolution, frames away from the origin, rects
// straddling every core edge, and overlapping rects that saturate at 1.
func TestCoreWindowRasterMatchesFullFrame(t *testing.T) {
	const res = 4
	cfg := TensorConfig{Blocks: 2, K: 1, ResNM: res}
	frame := geom.R(-37, 13, 482, 530) // 519 nm sides, odd origin
	straddle := geom.NewClip(frame, []geom.Rect{
		geom.R(-50, 100, 90, 103),  // crosses the frame's left edge and the core's
		geom.R(101, 0, 107, 600),   // crosses the core's bottom and top edges
		geom.R(150, 150, 250, 250), // overlaps the next two: saturates at 1
		geom.R(151, 149, 249, 251),
		geom.R(153, 153, 155, 155),
		geom.R(298, 297, 302, 303), // straddles the core's top-right corner
		geom.R(470, 500, 482, 530), // outside the core entirely
	})
	edge := []geom.Rect{
		geom.R(99, 99, 299, 299),   // off the pixel grid by 0 and 2 nm
		geom.R(100, 98, 300, 298),  // off by 1 and 1 nm
		geom.R(-37, 13, 463, 513),  // flush with the frame origin
		geom.R(-17, 30, 482, 529),  // flush with the frame's right edge
		geom.R(-35, 15, -35, 15),   // empty
		geom.R(200, 200, 202, 202), // smaller than a pixel
	}
	for i, core := range edge {
		if !frame.ContainsRect(core) {
			continue
		}
		got, err := ExtractCoreImage(straddle, core, cfg)
		if err != nil {
			t.Fatalf("core %d %v: %v", i, core, err)
		}
		assertSameImage(t, core.String(), got, fullFrameCore(t, straddle, core, res))
	}

	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		res := 1 + rng.Intn(8)
		fx, fy := rng.Intn(200)-100, rng.Intn(200)-100
		fw := 8 + rng.Intn(300)
		frame := geom.R(fx, fy, fx+fw, fy+fw+rng.Intn(7))
		rects := make([]geom.Rect, rng.Intn(12))
		for i := range rects {
			x, y := fx-20+rng.Intn(fw+40), fy-20+rng.Intn(fw+40)
			rects[i] = geom.R(x, y, x+1+rng.Intn(fw/2), y+1+rng.Intn(fw/2))
		}
		clip := geom.NewClip(frame, rects)
		side := 1 + rng.Intn(fw)
		cx := fx + rng.Intn(fw-side+1)
		cy := fy + rng.Intn(fw-side+1)
		core := geom.R(cx, cy, cx+side, cy+side)
		got, err := ExtractCoreImage(clip, core, TensorConfig{Blocks: 1, K: 1, ResNM: res})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertSameImage(t, core.String(), got, fullFrameCore(t, clip, core, res))
	}
}

// TestCoreWindowRasterAllocatesCore: a frame far larger than its core
// costs only the core window's pixels. At 4 nm/px a 400 µm frame is 10¹⁰
// pixels, which full-frame rasterization could never allocate.
func TestCoreWindowRasterAllocatesCore(t *testing.T) {
	cfg := DefaultTensorConfig()
	frame := geom.R(0, 0, 400_000, 400_000)
	core := geom.R(199_400, 199_400, 200_600, 200_600)
	clip := geom.NewClip(frame, []geom.Rect{geom.R(0, 199_900, 400_000, 200_100)})
	im, err := ExtractCoreImage(clip, core, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if im.W != 300 || im.H != 300 {
		t.Fatalf("core image %dx%d, want 300x300", im.W, im.H)
	}
	// The wire covers pixel rows [125, 175) of the core.
	if im.At(150, 150) != 1 || im.At(150, 100) != 0 {
		t.Fatalf("wire pixels %v/%v, want 1/0", im.At(150, 150), im.At(150, 100))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ExtractCoreImage(clip, core, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*300*300*8); got > limit {
		t.Fatalf("core extraction allocated %d B, want at most %d (twice the core's pixels)", got, limit)
	}
}

func TestExtractCoreImageErrors(t *testing.T) {
	c := testClip()
	if _, err := ExtractCoreImage(c, geom.R(100, 100, 500, 500), testCfg()); err == nil {
		t.Error("expected error for a core outside the frame")
	}
	if _, err := ExtractCoreImage(c, c.Frame, TensorConfig{Blocks: 12, K: 32}); err == nil {
		t.Error("expected error for zero resolution")
	}
}
