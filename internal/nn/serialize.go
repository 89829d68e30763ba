package nn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
)

// layerSpec is the gob wire form of one layer.
type layerSpec struct {
	Kind string // "conv", "relu", "maxpool", "dense", "dropout"
	Name string
	// Conv fields.
	InC, OutC, K, Stride, Pad int
	// Dense fields.
	In, Out int
	// Dropout fields.
	Rate float64
	Seed int64
	// Parameter payloads in Params() order.
	Weights [][]float64
	Shapes  [][]int
}

type netSpec struct {
	Version int
	Layers  []layerSpec
}

// Checkpoint framing: every file written by Save starts with an 8-byte
// header — a 6-byte magic string identifying the format, followed by the
// format version as a big-endian uint16 — before the gob payload. The
// header lets Load reject not-a-checkpoint and wrong-version files with a
// precise error instead of surfacing a raw gob decode failure, which is
// what a long-running server's hot-reload path needs to refuse bad files
// safely.
const (
	checkpointMagic   = "HSDNET"
	checkpointVersion = 1
	headerLen         = len(checkpointMagic) + 2
)

// Save serializes the network (architecture and weights): the versioned
// checkpoint header followed by an encoding/gob payload.
func (n *Network) Save(w io.Writer) error {
	var hdr [headerLen]byte
	copy(hdr[:], checkpointMagic)
	hdr[len(checkpointMagic)] = byte(checkpointVersion >> 8)
	hdr[len(checkpointMagic)+1] = byte(checkpointVersion)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("nn: write checkpoint header: %w", err)
	}
	spec := netSpec{Version: 1}
	for _, l := range n.layers {
		var s layerSpec
		s.Name = l.Name()
		switch t := l.(type) {
		case *Conv2D:
			s.Kind = "conv"
			s.InC, s.OutC, s.K, s.Stride, s.Pad = t.inC, t.outC, t.kh, t.stride, t.pad
		case *ReLU:
			s.Kind = "relu"
		case *MaxPool2:
			s.Kind = "maxpool"
		case *Dense:
			s.Kind = "dense"
			s.In, s.Out = t.in, t.out
		case *Dropout:
			s.Kind = "dropout"
			s.Rate = t.rate
			s.Seed = 1
		default:
			return fmt.Errorf("nn: cannot serialize layer %T (%s)", l, l.Name())
		}
		for _, p := range l.Params() {
			s.Weights = append(s.Weights, append([]float64(nil), p.W.Data()...))
			s.Shapes = append(s.Shapes, p.W.Shape())
		}
		spec.Layers = append(spec.Layers, s)
	}
	return gob.NewEncoder(w).Encode(spec)
}

// Load deserializes a network written by Save. A stream that does not
// start with the checkpoint magic, carries an unsupported format version,
// or ends mid-payload is rejected with an error saying exactly that.
func Load(r io.Reader) (*Network, error) {
	var hdr [headerLen]byte
	if n, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("nn: truncated checkpoint: %d-byte header, want %d (%w)", n, headerLen, err)
	}
	if string(hdr[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("nn: not a network checkpoint (magic %q, want %q)", hdr[:len(checkpointMagic)], checkpointMagic)
	}
	version := int(hdr[len(checkpointMagic)])<<8 | int(hdr[len(checkpointMagic)+1])
	if version != checkpointVersion {
		return nil, fmt.Errorf("nn: checkpoint format version %d; this build reads version %d", version, checkpointVersion)
	}
	var spec netSpec
	if err := gob.NewDecoder(r).Decode(&spec); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("nn: truncated checkpoint payload: %w", err)
		}
		return nil, fmt.Errorf("nn: decode network: %w", err)
	}
	if spec.Version != 1 {
		return nil, fmt.Errorf("nn: unsupported network version %d", spec.Version)
	}
	rng := rand.New(rand.NewSource(0))
	var layers []Layer
	for i, s := range spec.Layers {
		if err := checkPayload(s); err != nil {
			return nil, fmt.Errorf("nn: layer %d (%s): %w", i, s.Name, err)
		}
		var l Layer
		var err error
		switch s.Kind {
		case "conv":
			l, err = NewConv2D(s.Name, s.InC, s.OutC, s.K, s.Stride, s.Pad, rng)
		case "relu":
			l = NewReLU(s.Name)
		case "maxpool":
			l = NewMaxPool2(s.Name)
		case "dense":
			l, err = NewDense(s.Name, s.In, s.Out, rng)
		default: // "dropout"; checkPayload rejected unknown kinds
			l, err = NewDropout(s.Name, s.Rate, s.Seed)
		}
		if err != nil {
			return nil, fmt.Errorf("nn: rebuild layer %d (%s): %w", i, s.Name, err)
		}
		for j, p := range l.Params() {
			if !slices.Equal(s.Shapes[j], p.W.Shape()) {
				return nil, fmt.Errorf("nn: layer %s param %d shape %v, want %v", s.Name, j, s.Shapes[j], p.W.Shape())
			}
			copy(p.W.Data(), s.Weights[j])
		}
		layers = append(layers, l)
	}
	return NewNetwork(layers...), nil
}

// checkPayload verifies a decoded layer spec's parameter payloads against
// the dims the spec declares, before any layer is constructed: one
// payload and one shape per parameter, each payload exactly as long as
// the declared dims require. Layer constructors allocate from the
// declared dims, so this bounds Load's allocation by the decoded input —
// a hostile checkpoint cannot declare a terabyte dense layer over an
// empty payload.
func checkPayload(s layerSpec) error {
	var want []int // element count of each parameter, in Params() order
	switch s.Kind {
	case "conv":
		want = []int{paramLen(s.OutC, s.InC, s.K, s.K), paramLen(s.OutC)}
	case "dense":
		want = []int{paramLen(s.Out, s.In), paramLen(s.Out)}
	case "relu", "maxpool", "dropout":
	default:
		return fmt.Errorf("unknown layer kind %q", s.Kind)
	}
	if len(s.Weights) != len(want) || len(s.Shapes) != len(want) {
		return fmt.Errorf("%s layer carries %d param payloads and %d shapes, want %d",
			s.Kind, len(s.Weights), len(s.Shapes), len(want))
	}
	for j, n := range want {
		if n < 0 {
			return fmt.Errorf("param %d: declared dims are negative or overflow", j)
		}
		if len(s.Weights[j]) != n {
			return fmt.Errorf("param %d payload has %d values; declared dims need %d", j, len(s.Weights[j]), n)
		}
	}
	return nil
}

// paramLen is the element count of a parameter with the given dims, or −1
// when a dim is negative or the product overflows an int.
func paramLen(dims ...int) int {
	n := 1
	for _, d := range dims {
		if d < 0 || (d > 0 && n > math.MaxInt/d) {
			return -1
		}
		n *= d
	}
	return n
}

// Clone deep-copies the network via a serialize/deserialize round trip.
// Layer caches and dropout RNG streams reset; weights are preserved.
func (n *Network) Clone() (*Network, error) {
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		return nil, err
	}
	return Load(&buf)
}
