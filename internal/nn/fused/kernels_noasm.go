//go:build !amd64

package fused

// useAVX2 is always false off amd64; the pure-Go blocked kernels run.
const useAVX2 = false

// convRowAVX2 is never called when useAVX2 is false; this stub keeps the
// package compiling on architectures without the assembly kernel.
//
//hsd:noalloc
func convRowAVX2(d, a, b *float64, k, nv, n int, bias float64, relu int64) {
	panic("fused: convRowAVX2 called without AVX2 support")
}
