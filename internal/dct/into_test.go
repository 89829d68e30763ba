package dct

import (
	"math"
	"math/rand"
	"testing"
)

func TestForwardTruncated2DIntoMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct{ h, w, kh, kw int }{
		{8, 8, 8, 8},
		{25, 25, 8, 8},
		{12, 16, 3, 5},
		{5, 5, 1, 1},
	}
	for _, c := range cases {
		src := make([]float64, c.h*c.w)
		for i := range src {
			src[i] = rng.Float64()
		}
		want, err := ForwardTruncated2D(src, c.h, c.w, c.kh, c.kw)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, c.kh*c.kw)
		tmp := make([]float64, c.h*c.kw)
		if err := ForwardTruncated2DInto(dst, tmp, src, c.h, c.w, c.kh, c.kw); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			// Bit-identical, not approximately equal: the Into kernel is the
			// allocating path's body, and the scan engine's parity contract
			// rests on exact equality.
			if dst[i] != want[i] {
				t.Fatalf("%dx%d k=%dx%d: coefficient %d = %v, want %v", c.h, c.w, c.kh, c.kw, i, dst[i], want[i])
			}
		}
	}
}

func TestForwardTruncated2DIntoErrors(t *testing.T) {
	src := make([]float64, 64)
	good := func() ([]float64, []float64) { return make([]float64, 9), make([]float64, 8*3) }
	dst, tmp := good()
	if err := ForwardTruncated2DInto(dst, tmp, src[:63], 8, 8, 3, 3); err == nil {
		t.Error("expected error for short src")
	}
	if err := ForwardTruncated2DInto(dst, tmp, src, 8, 8, 0, 3); err == nil {
		t.Error("expected error for kh=0")
	}
	if err := ForwardTruncated2DInto(dst, tmp, src, 8, 8, 9, 3); err == nil {
		t.Error("expected error for kh>h")
	}
	if err := ForwardTruncated2DInto(dst[:8], tmp, src, 8, 8, 3, 3); err == nil {
		t.Error("expected error for short dst")
	}
	if err := ForwardTruncated2DInto(dst, tmp[:23], src, 8, 8, 3, 3); err == nil {
		t.Error("expected error for short tmp")
	}
}

// referenceTruncated is the one-sum-at-a-time truncated transform the
// multi-accumulator kernel replaced, kept verbatim as its bitwise oracle:
// each coefficient is a single left-to-right chain over its row, then its
// column.
func referenceTruncated(dst, tmp, src, ch, cw []float64, h, w, kh, kw int) {
	for y := 0; y < h; y++ {
		row := src[y*w : (y+1)*w]
		for v := 0; v < kw; v++ {
			basis := cw[v*w : (v+1)*w]
			s := 0.0
			for x, sv := range row {
				s += sv * basis[x]
			}
			tmp[y*kw+v] = s
		}
	}
	for u := 0; u < kh; u++ {
		basis := ch[u*h : (u+1)*h]
		for v := 0; v < kw; v++ {
			s := 0.0
			for y := 0; y < h; y++ {
				s += basis[y] * tmp[y*kw+v]
			}
			dst[u*kw+v] = s
		}
	}
}

// TestKernelMatchesReference pins the kernel bit for bit against the
// reference loop on random, binary and signed-zero blocks, for the block
// sides feature extraction uses and every corner CoefficientCorner yields
// for the K values the experiments sweep, plus rectangular corners.
func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	type shape struct{ h, w, kh, kw int }
	var shapes []shape
	for _, n := range []int{8, 16, 25} {
		for _, k := range []int{1, 10, 32, 36, 64} {
			if k > n*n {
				continue
			}
			c := CoefficientCorner(n, k)
			shapes = append(shapes, shape{n, n, c, c})
		}
		shapes = append(shapes, shape{n, n, n, n}, shape{n, n, 3, 7}, shape{n, n, 6, 5})
	}
	shapes = append(shapes, shape{12, 16, 3, 5}, shape{5, 9, 5, 9})
	fills := map[string]func(int) float64{
		"random":   func(int) float64 { return rng.Float64() },
		"signed":   func(int) float64 { return rng.NormFloat64() * 1e3 },
		"binary":   func(int) float64 { return float64(rng.Intn(2)) },
		"negzero":  func(int) float64 { return math.Copysign(0, -1) },
		"coverage": func(int) float64 { return float64(rng.Intn(17)) / 16 },
	}
	for _, sh := range shapes {
		for name, fill := range fills {
			src := make([]float64, sh.h*sh.w)
			for i := range src {
				src[i] = fill(i)
			}
			want := make([]float64, sh.kh*sh.kw)
			referenceTruncated(want, make([]float64, sh.h*sh.kw), src, Basis(sh.h), Basis(sh.w), sh.h, sh.w, sh.kh, sh.kw)
			got := make([]float64, sh.kh*sh.kw)
			if err := ForwardTruncated2DInto(got, make([]float64, sh.h*sh.kw), src, sh.h, sh.w, sh.kh, sh.kw); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s %dx%d corner %dx%d: coefficient %d = %v (%#x), want %v (%#x)",
						name, sh.h, sh.w, sh.kh, sh.kw, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}

// TestKernelZeroAlloc: the kernel and its validating wrapper allocate
// nothing once the basis memos are warm.
func TestKernelZeroAlloc(t *testing.T) {
	const n, c = 25, 8
	src := make([]float64, n*n)
	for i := range src {
		src[i] = float64(i%3) / 2
	}
	dst, tmp := make([]float64, c*c), make([]float64, n*c)
	if err := ForwardTruncated2DInto(dst, tmp, src, n, n, c, c); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() {
		_ = ForwardTruncated2DInto(dst, tmp, src, n, n, c, c)
	}); a != 0 {
		t.Fatalf("ForwardTruncated2DInto allocates %v times per call", a)
	}
}

// BenchmarkForwardTruncated2DInto times the serve/scan block shape: a
// 25×25 block truncated to the 8×8 corner K=32 needs.
func BenchmarkForwardTruncated2DInto(b *testing.B) {
	const n, c = 25, 8
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, n*n)
	for i := range src {
		src[i] = rng.Float64()
	}
	dst, tmp := make([]float64, c*c), make([]float64, n*c)
	for i := 0; i < b.N; i++ {
		_ = ForwardTruncated2DInto(dst, tmp, src, n, n, c, c)
	}
}

// BenchmarkReferenceTruncated times the oracle loop on the same shape,
// for comparison.
func BenchmarkReferenceTruncated(b *testing.B) {
	const n, c = 25, 8
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, n*n)
	for i := range src {
		src[i] = rng.Float64()
	}
	dst, tmp := make([]float64, c*c), make([]float64, n*c)
	ch, cw := Basis(n), Basis(n)
	for i := 0; i < b.N; i++ {
		referenceTruncated(dst, tmp, src, ch, cw, n, n, c, c)
	}
}
