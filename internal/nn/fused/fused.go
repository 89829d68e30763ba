// Package fused is the forward-only inference engine: it compiles a trained
// nn.Network into a flat plan of fused operations that a single pass
// executes with zero allocations and no per-layer dispatch.
//
// Compilation fuses adjacent layers into one walk over the data — a
// convolution's bias add and following ReLU ride the im2col-product
// epilogue while the output row is still in registers, and an adjacent 2×2
// max-pool consumes each finished row before the next is computed, so the
// full pre-pool activation tensor never round-trips through memory.
// Dropout is the identity at inference and compiles to nothing. All
// intermediate buffers are planned at compile time into one arena slab;
// Forward never allocates and never touches a layer object.
//
// The convolution product itself runs on register-blocked kernels sized to
// the paper's Table 1 shapes (outC and inC·k·k both divisible by 4): four
// output channels advance together through the im2col matrix, so each
// streamed element of the (inC·k·k, oh·ow) column matrix feeds four
// accumulating rows instead of one. Arbitrary geometries fall back to
// remainder loops that mirror tensor's generic kernel row for row.
//
// Bit-for-bit contract: every kernel here accumulates each output element
// in exactly the per-element order and grouping of the layer-by-layer path
// (tensor.matmulInto's 4-way unrolled dense kernel, its row-skipping
// sparse variant behind the same tensor.SparseSkip gate, MatVecInto's
// sequential dot products, and MaxPool2's comparison order), so fused
// probabilities are bit-identical to nn.Network.Forward — the parity tests
// in this package and in internal/train pin that equality on every Table 1
// geometry and on stride/pad edge cases.
//
// An Engine aliases the source network's parameter tensors rather than
// copying them: in-place weight updates (optimizer steps, best-snapshot
// restores) are visible immediately. An Engine is not safe for concurrent
// use — it owns one arena — so keep one engine per worker; engines
// compiled from the same network share its read-only weights, which is
// how train.Evaluator fans one network across its pool.
package fused

import (
	"fmt"

	"hotspot/internal/nn"
	"hotspot/internal/tensor"
)

// opKind selects the fused operation a plan step executes.
type opKind uint8

const (
	opConv  opKind = iota // conv + bias (+ ReLU) (+ 2×2 max-pool)
	opDense               // matvec + bias (+ ReLU)
	opReLU                // standalone rectifier
	opPool                // standalone 2×2 max-pool
)

// op is one step of the compiled plan. All slices are views into the
// engine arena except w and bias, which alias the network's parameters.
type op struct {
	kind opKind

	// Geometry. opConv: input (inC, inH, inW), square kernel k, stride,
	// pad, conv output (outC, oh, ow) and pooled output (ph, pw) when pool
	// is set. opPool: inC channels of inH×inW pooled to ph×pw. opDense:
	// inLen → outLen.
	inC, inH, inW        int
	outC, k, stride, pad int
	oh, ow               int
	ph, pw               int
	inLen, outLen        int
	relu, pool           bool

	w, bias []float64 // parameter aliases (opConv, opDense)

	in     []float64      // previous step's output; nil = the caller's input
	out    []float64      // this step's output
	cols   []float64      // im2col scratch (opConv; shared arena region)
	rowBuf []float64      // pooled-conv row-block scratch (shared region)
	inT    *tensor.Tensor // rank-3 view of in for Im2ColInto; nil = caller's input
	colsT  *tensor.Tensor // rank-2 view of cols
}

// Engine is a compiled forward-only inference plan for one input geometry.
// Build one with Compile. Not safe for concurrent use.
type Engine struct {
	inShape  []int
	outShape []int
	ops      []op
	arena    []float64
	out      []float64 // final output view (last op's out)
}

// Compile builds an engine executing net's inference forward pass for
// inputs of exactly inShape. It returns an error for layer types it cannot
// fuse and for geometries the network itself would reject.
func Compile(net *nn.Network, inShape []int) (*Engine, error) {
	layers := net.Layers()
	if len(layers) == 0 {
		return nil, fmt.Errorf("fused: empty network")
	}
	if len(inShape) == 0 {
		return nil, fmt.Errorf("fused: empty input shape")
	}
	for _, d := range inShape {
		if d <= 0 {
			return nil, fmt.Errorf("fused: invalid input shape %v", inShape)
		}
	}

	// Pass 1: walk the stack, validating shapes through each layer's own
	// OutputShape and folding fusable neighbours into single ops.
	var ops []op
	shape := append([]int(nil), inShape...)
	for i := 0; i < len(layers); {
		switch l := layers[i].(type) {
		case *nn.Dropout:
			i++ // identity at inference

		case *nn.ReLU:
			ops = append(ops, op{kind: opReLU, inLen: prod(shape), outLen: prod(shape)})
			i++

		case *nn.MaxPool2:
			out, err := l.OutputShape(shape)
			if err != nil {
				return nil, fmt.Errorf("fused: %s: %w", l.Name(), err)
			}
			ops = append(ops, op{
				kind: opPool,
				inC:  shape[0], inH: shape[1], inW: shape[2],
				ph: out[1], pw: out[2],
				inLen: prod(shape), outLen: prod(out),
			})
			shape = out
			i++

		case *nn.Conv2D:
			out, err := l.OutputShape(shape)
			if err != nil {
				return nil, fmt.Errorf("fused: %s: %w", l.Name(), err)
			}
			inC, outC, k, stride, pad := l.Geometry()
			w, b := l.Weights()
			o := op{
				kind: opConv,
				inC:  inC, inH: shape[1], inW: shape[2],
				outC: outC, k: k, stride: stride, pad: pad,
				oh: out[1], ow: out[2],
				inLen: prod(shape), outLen: prod(out),
				w: w.Data(), bias: b.Data(),
			}
			shape = out
			i++
			// Fuse a directly following ReLU into the row epilogue.
			if i < len(layers) {
				if _, ok := layers[i].(*nn.ReLU); ok {
					o.relu = true
					i++
				}
			}
			// Fuse a directly following 2×2 max-pool into the row walk.
			if i < len(layers) {
				if mp, ok := layers[i].(*nn.MaxPool2); ok {
					pout, err := mp.OutputShape(shape)
					if err != nil {
						return nil, fmt.Errorf("fused: %s: %w", mp.Name(), err)
					}
					o.pool = true
					o.ph, o.pw = pout[1], pout[2]
					o.outLen = prod(pout)
					shape = pout
					i++
				}
			}
			ops = append(ops, o)

		case *nn.Dense:
			out, err := l.OutputShape(shape)
			if err != nil {
				return nil, fmt.Errorf("fused: %s: %w", l.Name(), err)
			}
			in, outN := l.Dims()
			w, b := l.Weights()
			o := op{
				kind:  opDense,
				inLen: in, outLen: outN,
				w: w.Data(), bias: b.Data(),
			}
			shape = out
			i++
			if i < len(layers) {
				if _, ok := layers[i].(*nn.ReLU); ok {
					o.relu = true
					i++
				}
			}
			ops = append(ops, o)

		default:
			return nil, fmt.Errorf("fused: unsupported layer type %T (%s)", l, l.Name())
		}
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("fused: network reduces to the identity (dropout only)")
	}

	// Pass 2: plan the arena. One shared im2col region sized for the
	// largest conv, one shared row-block scratch for pooled convs, then
	// each op's output buffer, all in a single slab.
	colsMax, rowMax, actTotal := 0, 0, 0
	for _, o := range ops {
		if o.kind == opConv {
			need := o.inC * o.k * o.k * o.oh * o.ow
			if need > colsMax {
				colsMax = need
			}
			if o.pool && blockRows*o.oh*o.ow > rowMax {
				rowMax = blockRows * o.oh * o.ow
			}
		}
		actTotal += o.outLen
	}
	arena := make([]float64, colsMax+rowMax+actTotal)
	colsRegion := arena[:colsMax]
	rowRegion := arena[colsMax : colsMax+rowMax]
	cur := colsMax + rowMax

	e := &Engine{
		inShape: append([]int(nil), inShape...),
		arena:   arena,
		ops:     ops,
	}
	var prev []float64 // previous op's output view; nil = caller's input
	var prevShape []int
	for idx := range e.ops {
		o := &e.ops[idx]
		o.in = prev
		o.out = arena[cur : cur+o.outLen]
		cur += o.outLen
		if o.kind == opConv {
			kk := o.inC * o.k * o.k
			n := o.oh * o.ow
			o.cols = colsRegion[:kk*n]
			t, err := tensor.FromSlice(o.cols, kk, n)
			if err != nil {
				return nil, fmt.Errorf("fused: plan cols: %w", err)
			}
			o.colsT = t
			if o.pool {
				o.rowBuf = rowRegion[:blockRows*n]
			}
			if prev != nil {
				// Pre-wrap the producing buffer as a rank-3 tensor so
				// Forward's im2col needs no per-call wrapping.
				t, err := tensor.FromSlice(prev, prevShape[0], prevShape[1], prevShape[2])
				if err != nil {
					return nil, fmt.Errorf("fused: plan conv input: %w", err)
				}
				o.inT = t
			}
		}
		prev = o.out
		switch o.kind {
		case opConv:
			if o.pool {
				prevShape = []int{o.outC, o.ph, o.pw}
			} else {
				prevShape = []int{o.outC, o.oh, o.ow}
			}
		case opPool:
			prevShape = []int{o.inC, o.ph, o.pw}
		case opReLU:
			// Shape passes through unchanged.
		case opDense:
			prevShape = []int{o.outLen}
		}
	}
	e.out = prev
	e.outShape = append([]int(nil), shape...)
	return e, nil
}

// Vectorized names the conv-row kernel the engine runs on this host:
// "avx2" for the assembly kernel, "generic" for the pure-Go blocked
// kernels. Both produce bit-identical outputs; the name is recorded by
// benchmark reports so numbers are attributable to a kernel.
func Vectorized() string {
	if useAVX2 {
		return "avx2"
	}
	return "generic"
}

// prod returns the element count of a shape.
func prod(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// InShape returns the input shape the engine was compiled for.
func (e *Engine) InShape() []int { return append([]int(nil), e.inShape...) }

// OutShape returns the network output shape.
func (e *Engine) OutShape() []int { return append([]int(nil), e.outShape...) }

// OutLen returns the number of output scalars.
func (e *Engine) OutLen() int { return len(e.out) }

// Ops returns the number of fused plan steps (for introspection and tests;
// fewer steps than network layers means fusion happened).
func (e *Engine) Ops() int { return len(e.ops) }

// ArenaLen returns the total number of float64 slots the plan reserved —
// the engine's entire working memory.
func (e *Engine) ArenaLen() int { return len(e.arena) }

// Accepts reports whether x has the input shape the engine was compiled
// for, without allocating.
func (e *Engine) Accepts(x *tensor.Tensor) bool {
	if x.Rank() != len(e.inShape) {
		return false
	}
	for i, d := range e.inShape {
		if x.Dim(i) != d {
			return false
		}
	}
	return true
}

// Forward runs the compiled plan on one sample and returns the network
// output as a view into the engine arena, valid until the next Forward
// call. It performs no allocations.
func (e *Engine) Forward(x *tensor.Tensor) ([]float64, error) {
	if !e.Accepts(x) {
		return nil, fmt.Errorf("fused: input shape %v, engine compiled for %v", x.Shape(), e.inShape)
	}
	for i := range e.ops {
		o := &e.ops[i]
		switch o.kind {
		case opConv:
			if o.stride == 1 {
				src := o.in
				if src == nil {
					src = x.Data()
				}
				im2colStride1(o.cols, src, o.inC, o.inH, o.inW, o.k, o.pad, o.oh, o.ow)
			} else {
				src := o.inT
				if src == nil {
					src = x
				}
				if err := tensor.Im2ColInto(o.colsT, src, o.k, o.k, o.stride, o.pad); err != nil {
					return nil, err
				}
			}
			convRun(o)
		case opDense:
			denseRun(o, e.input(o, x))
		case opReLU:
			reluRun(o, e.input(o, x))
		case opPool:
			poolRun(o, e.input(o, x))
		}
	}
	return e.out, nil
}

// input resolves an op's input slice: its planned view, or the caller's
// tensor for the first op.
func (e *Engine) input(o *op, x *tensor.Tensor) []float64 {
	if o.in == nil {
		return x.Data()
	}
	return o.in
}
