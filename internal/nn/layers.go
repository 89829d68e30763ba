package nn

import (
	"fmt"
	"math"
	"math/rand"

	"hotspot/internal/tensor"
)

func sqrt2Over(fanIn float64) float64 { return math.Sqrt(2 / fanIn) }

// reuseBuffer returns buf when it already has the wanted shape, otherwise a
// fresh tensor. Layers use it for forward/backward outputs so the steady
// state of a training loop allocates nothing; the returned tensor aliases
// layer-owned storage that the next Forward/Backward call on the same layer
// overwrites (the established contract of the sequential per-sample loop —
// see Conv2D).
func reuseBuffer(buf *tensor.Tensor, shape ...int) *tensor.Tensor {
	if buf != nil && buf.Rank() == len(shape) {
		same := true
		for i, d := range shape {
			if buf.Dim(i) != d {
				same = false
				break
			}
		}
		if same {
			return buf
		}
	}
	return tensor.New(shape...)
}

// ReLU is the element-wise rectifier max(0, x) (Equation (5) of the paper).
type ReLU struct {
	name string
	mask []bool
	out  *tensor.Tensor // reused forward output
	dx   *tensor.Tensor // reused backward output
}

// NewReLU builds a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// OutputShape implements Layer.
func (r *ReLU) OutputShape(in []int) ([]int, error) { return in, nil }

// Forward implements Layer. The returned tensor aliases an internal buffer
// overwritten by the next Forward call on this layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	r.out = reuseBuffer(r.out, x.Shape()...)
	if cap(r.mask) < x.Len() {
		r.mask = make([]bool, x.Len())
	}
	r.mask = r.mask[:x.Len()]
	xd, od := x.Data(), r.out.Data()
	for i, v := range xd {
		if v > 0 {
			r.mask[i] = true
			od[i] = v
		} else {
			r.mask[i] = false
			od[i] = 0
		}
	}
	return r.out, nil
}

// Backward implements Layer. The returned gradient aliases an internal
// buffer overwritten by the next Backward call.
func (r *ReLU) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if len(r.mask) != grad.Len() {
		return nil, fmt.Errorf("nn: relu %q backward size %d, forward saw %d", r.name, grad.Len(), len(r.mask))
	}
	r.dx = reuseBuffer(r.dx, grad.Shape()...)
	gd, dd := grad.Data(), r.dx.Data()
	for i, v := range gd {
		if r.mask[i] {
			dd[i] = v
		} else {
			dd[i] = 0
		}
	}
	return r.dx, nil
}

// MaxPool2 is 2×2 max pooling with stride 2 over (C, H, W) inputs; odd
// trailing rows/columns are dropped (the paper's shapes are all even).
type MaxPool2 struct {
	name   string
	argmax []int
	inShp  []int
	out    *tensor.Tensor // reused forward output
	dx     *tensor.Tensor // reused backward output
}

// NewMaxPool2 builds the pooling layer.
func NewMaxPool2(name string) *MaxPool2 { return &MaxPool2{name: name} }

// Name implements Layer.
func (m *MaxPool2) Name() string { return m.name }

// Params implements Layer.
func (m *MaxPool2) Params() []*Param { return nil }

// OutputShape implements Layer.
func (m *MaxPool2) OutputShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("nn: maxpool %q expects (C, H, W) input, got %v", m.name, in)
	}
	if in[1] < 2 || in[2] < 2 {
		return nil, fmt.Errorf("nn: maxpool %q input %v too small", m.name, in)
	}
	return []int{in[0], in[1] / 2, in[2] / 2}, nil
}

// Forward implements Layer.
func (m *MaxPool2) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	shp, err := m.OutputShape(x.Shape())
	if err != nil {
		return nil, err
	}
	c, oh, ow := shp[0], shp[1], shp[2]
	h, w := x.Dim(1), x.Dim(2)
	m.out = reuseBuffer(m.out, c, oh, ow)
	out := m.out
	if cap(m.argmax) < out.Len() {
		m.argmax = make([]int, out.Len())
	}
	m.argmax = m.argmax[:out.Len()]
	m.inShp = x.Shape()
	xd, od := x.Data(), out.Data()
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				i0 := base + (2*oy)*w + 2*ox
				best, bestIdx := xd[i0], i0
				for _, di := range [3]int{1, w, w + 1} {
					if v := xd[i0+di]; v > best {
						best, bestIdx = v, i0+di
					}
				}
				oi := (ch*oh+oy)*ow + ox
				od[oi] = best
				m.argmax[oi] = bestIdx
			}
		}
	}
	return out, nil
}

// Backward implements Layer.
func (m *MaxPool2) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if len(m.argmax) != grad.Len() {
		return nil, fmt.Errorf("nn: maxpool %q backward size %d, forward saw %d", m.name, grad.Len(), len(m.argmax))
	}
	m.dx = reuseBuffer(m.dx, m.inShp...)
	m.dx.Zero() // scatter-add below requires a clean slate
	dd := m.dx.Data()
	for i, v := range grad.Data() {
		dd[m.argmax[i]] += v
	}
	return m.dx, nil
}

// Dense is a fully connected layer; any input shape is flattened.
type Dense struct {
	name     string
	in, out  int
	weight   *Param
	bias     *Param
	cachedIn *tensor.Tensor
	inShp    []int
	fwdOut   *tensor.Tensor // reused forward output
	dx       *tensor.Tensor // reused backward output
}

// NewDense builds a fully connected layer with He-initialized weights.
func NewDense(name string, in, out int, rng *rand.Rand) (*Dense, error) {
	if in <= 0 || out <= 0 {
		return nil, fmt.Errorf("nn: dense %q invalid size %dx%d", name, in, out)
	}
	w := tensor.New(out, in)
	heInit(w, in, rng)
	return &Dense{
		name: name, in: in, out: out,
		weight: &Param{Name: name + ".w", W: w, Grad: tensor.New(out, in)},
		bias:   &Param{Name: name + ".b", W: tensor.New(out), Grad: tensor.New(out)},
	}, nil
}

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.weight, d.bias} }

// Dims returns the layer's input and output widths. The fused inference
// engine compiles its plan from these.
func (d *Dense) Dims() (in, out int) { return d.in, d.out }

// Weights returns the weight matrix (out, in) and bias vector (out). Both
// alias the live parameter storage.
func (d *Dense) Weights() (w, b *tensor.Tensor) { return d.weight.W, d.bias.W }

// OutputShape implements Layer.
func (d *Dense) OutputShape(in []int) ([]int, error) {
	n := 1
	for _, v := range in {
		n *= v
	}
	if n != d.in {
		return nil, fmt.Errorf("nn: dense %q expects %d inputs, got %v (%d)", d.name, d.in, in, n)
	}
	return []int{d.out}, nil
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Len() != d.in {
		return nil, fmt.Errorf("nn: dense %q expects %d inputs, got %v", d.name, d.in, x.Shape())
	}
	d.inShp = x.Shape()
	flat := x.MustReshape(d.in)
	d.cachedIn = flat
	d.fwdOut = reuseBuffer(d.fwdOut, d.out)
	if err := tensor.MatVecInto(d.fwdOut, d.weight.W, flat); err != nil {
		return nil, err
	}
	if err := d.fwdOut.Add(d.bias.W); err != nil {
		return nil, err
	}
	return d.fwdOut, nil
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if d.cachedIn == nil {
		return nil, fmt.Errorf("nn: dense %q backward before forward", d.name)
	}
	if grad.Len() != d.out {
		return nil, fmt.Errorf("nn: dense %q gradient length %d, want %d", d.name, grad.Len(), d.out)
	}
	gd := grad.Data()
	xd := d.cachedIn.Data()
	wg := d.weight.Grad.Data()
	for o := 0; o < d.out; o++ {
		g := gd[o]
		if g == 0 {
			continue
		}
		row := wg[o*d.in : (o+1)*d.in]
		for i, xv := range xd {
			row[i] += g * xv
		}
		d.bias.Grad.Data()[o] += g
	}
	// dx = Wᵀ · g
	d.dx = reuseBuffer(d.dx, d.in)
	d.dx.Zero() // accumulated below
	wd := d.weight.W.Data()
	dd := d.dx.Data()
	for o := 0; o < d.out; o++ {
		g := gd[o]
		if g == 0 {
			continue
		}
		row := wd[o*d.in : (o+1)*d.in]
		for i, wv := range row {
			dd[i] += g * wv
		}
	}
	return d.dx.Reshape(d.inShp...)
}

// Dropout implements inverted dropout: during training each activation is
// zeroed with probability Rate and survivors are scaled by 1/(1-Rate);
// inference is the identity. The paper applies 50% dropout to fc1.
//
// The mask stream is a splitmix64 counter PRNG rather than math/rand: its
// whole state is one uint64, so Reseed is O(1) and the mask drawn for a
// given (seed, position) pair is a pure function of those values. Parallel
// training exploits this — train.MGD reseeds per sample from the sample's
// global index, making dropout masks independent of which worker (or how
// many workers) processes the sample.
type Dropout struct {
	name  string
	rate  float64
	state uint64
	mask  []float64
	out   *tensor.Tensor // reused forward output
	dx    *tensor.Tensor // reused backward output
}

// NewDropout builds a dropout layer with its own deterministic RNG stream.
func NewDropout(name string, rate float64, seed int64) (*Dropout, error) {
	if !(rate >= 0 && rate < 1) { // also rejects NaN
		return nil, fmt.Errorf("nn: dropout %q rate %v outside [0, 1)", name, rate)
	}
	return &Dropout{name: name, rate: rate, state: uint64(seed)}, nil
}

// Reseed resets the mask stream so the next Forward draws masks determined
// solely by seed, regardless of prior history.
func (d *Dropout) Reseed(seed int64) { d.state = uint64(seed) }

// nextFloat advances the splitmix64 stream and returns a uniform in [0, 1).
func (d *Dropout) nextFloat() float64 {
	d.state += 0x9e3779b97f4a7c15
	z := d.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) * (1.0 / (1 << 53))
}

// Name implements Layer.
func (d *Dropout) Name() string { return d.name }

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// OutputShape implements Layer.
func (d *Dropout) OutputShape(in []int) ([]int, error) { return in, nil }

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if !train || d.rate == 0 {
		// Identity mask so Backward stays consistent.
		if cap(d.mask) < x.Len() {
			d.mask = make([]float64, x.Len())
		}
		d.mask = d.mask[:x.Len()]
		for i := range d.mask {
			d.mask[i] = 1
		}
		return x, nil
	}
	d.out = reuseBuffer(d.out, x.Shape()...)
	if cap(d.mask) < x.Len() {
		d.mask = make([]float64, x.Len())
	}
	d.mask = d.mask[:x.Len()]
	scale := 1 / (1 - d.rate)
	xd, od := x.Data(), d.out.Data()
	for i, v := range xd {
		if d.nextFloat() < d.rate {
			d.mask[i] = 0
			od[i] = 0
		} else {
			d.mask[i] = scale
			od[i] = v * scale
		}
	}
	return d.out, nil
}

// Backward implements Layer.
func (d *Dropout) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if len(d.mask) != grad.Len() {
		return nil, fmt.Errorf("nn: dropout %q backward size %d, forward saw %d", d.name, grad.Len(), len(d.mask))
	}
	d.dx = reuseBuffer(d.dx, grad.Shape()...)
	gd, dd := grad.Data(), d.dx.Data()
	for i, g := range gd {
		dd[i] = g * d.mask[i]
	}
	return d.dx, nil
}
