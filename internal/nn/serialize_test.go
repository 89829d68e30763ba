package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"
)

// saveSmallNet serializes a tiny PaperNet and returns the bytes.
func saveSmallNet(t *testing.T) []byte {
	t.Helper()
	cfg := PaperNetConfig{InChannels: 2, SpatialSize: 4, Conv1Maps: 2, Conv2Maps: 2, FC1: 4, DropoutRate: 0.5, Seed: 3}
	net, err := NewPaperNet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckpointHeaderWritten(t *testing.T) {
	raw := saveSmallNet(t)
	if len(raw) < headerLen {
		t.Fatalf("checkpoint only %d bytes, shorter than its header", len(raw))
	}
	if string(raw[:len(checkpointMagic)]) != checkpointMagic {
		t.Fatalf("checkpoint starts with %q, want magic %q", raw[:len(checkpointMagic)], checkpointMagic)
	}
	version := int(raw[len(checkpointMagic)])<<8 | int(raw[len(checkpointMagic)+1])
	if version != checkpointVersion {
		t.Fatalf("header version %d, want %d", version, checkpointVersion)
	}
	if _, err := Load(bytes.NewReader(raw)); err != nil {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	raw := saveSmallNet(t)
	raw[0] = 'X'
	_, err := Load(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "not a network checkpoint") {
		t.Fatalf("bad magic: got %v, want a not-a-checkpoint error", err)
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	raw := saveSmallNet(t)
	raw[len(checkpointMagic)] = 0xff // version 0xff01: far future
	_, err := Load(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong version: got %v, want a version error", err)
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	raw := saveSmallNet(t)
	// Truncation inside the header and inside the gob payload both name
	// truncation, not a raw gob failure.
	for _, n := range []int{0, 3, headerLen - 1, headerLen + 1, len(raw) / 2, len(raw) - 1} {
		_, err := Load(bytes.NewReader(raw[:n]))
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("truncated at %d bytes: got %v, want a truncation error", n, err)
		}
	}
}

// specBytes frames a hand-built spec as a checkpoint: header plus gob.
func specBytes(t testing.TB, spec netSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(checkpointMagic)
	buf.Write([]byte{checkpointVersion >> 8, checkpointVersion & 0xff})
	if err := gob.NewEncoder(&buf).Encode(spec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// smallSpec decodes saveSmallNet's checkpoint back into its wire spec.
func smallSpec(t *testing.T) netSpec {
	t.Helper()
	var spec netSpec
	if err := gob.NewDecoder(bytes.NewReader(saveSmallNet(t)[headerLen:])).Decode(&spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestLoadRejectsHostileSpecs: checkpoints whose payloads disagree with
// their declared layer dims are rejected with an error before any layer
// is built — no index panic, no allocation sized by the declared dims.
func TestLoadRejectsHostileSpecs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*netSpec)
		want   string
	}{
		{"short shapes list", func(s *netSpec) {
			s.Layers[0].Shapes = s.Layers[0].Shapes[:1]
		}, "2 param payloads and 1 shapes"},
		{"oversized dense dims", func(s *netSpec) {
			s.Layers = []layerSpec{{Kind: "dense", Name: "fc", In: 1 << 30, Out: 1 << 30,
				Weights: [][]float64{{1}, {1}}, Shapes: [][]int{{1, 1}, {1}}}}
		}, "declared dims need"},
		{"overflowing conv dims", func(s *netSpec) {
			s.Layers = []layerSpec{{Kind: "conv", Name: "c", InC: 1 << 32, OutC: 1 << 32, K: 1 << 16, Stride: 1,
				Weights: [][]float64{{}, {}}, Shapes: [][]int{{0}, {0}}}}
		}, "overflow"},
		{"negative conv dims", func(s *netSpec) {
			s.Layers = []layerSpec{{Kind: "conv", Name: "c", InC: -1, OutC: 1, K: 1, Stride: 1,
				Weights: [][]float64{{1}, {1}}, Shapes: [][]int{{1, 1}, {1}}}}
		}, "negative"},
		{"payload on a parameterless layer", func(s *netSpec) {
			s.Layers = []layerSpec{{Kind: "relu", Name: "r", Weights: [][]float64{{1}}, Shapes: [][]int{{1}}}}
		}, "1 param payloads and 1 shapes, want 0"},
		{"shape disagrees with dims", func(s *netSpec) {
			s.Layers[0].Shapes[1] = []int{1, s.Layers[0].OutC}
		}, "shape"},
		{"NaN dropout rate", func(s *netSpec) {
			s.Layers = []layerSpec{{Kind: "dropout", Name: "d", Rate: math.NaN()}}
		}, "rate"},
		{"unknown kind", func(s *netSpec) {
			s.Layers[0].Kind = "attention"
		}, "unknown layer kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := smallSpec(t)
			tc.mutate(&spec)
			_, err := Load(bytes.NewReader(specBytes(t, spec)))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// FuzzLoad: the checkpoint decoder returns an error or a valid network,
// never panics, and every network it accepts round-trips through Save
// byte for byte. The seed corpus in testdata/fuzz/FuzzLoad holds valid
// checkpoints and the hostile specs that once panicked; the in-code seed
// is a tiny network with every layer kind, small enough that mutations
// land on structure rather than weight bytes.
func FuzzLoad(f *testing.F) {
	f.Add(specBytes(f, netSpec{Version: 1, Layers: []layerSpec{
		{Kind: "conv", Name: "c", InC: 1, OutC: 2, K: 1, Stride: 1,
			Weights: [][]float64{{0.5, -1}, {0, 0.25}}, Shapes: [][]int{{2, 1}, {2}}},
		{Kind: "relu", Name: "r"},
		{Kind: "maxpool", Name: "p"},
		{Kind: "dropout", Name: "d", Rate: 0.5, Seed: 1},
		{Kind: "dense", Name: "fc", In: 2, Out: 2,
			Weights: [][]float64{{1, 2, 3, 4}, {-1, 1}}, Shapes: [][]int{{2, 2}, {2}}},
	}}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		net, err := Load(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := net.Save(&first); err != nil {
			t.Fatalf("accepted network does not save: %v", err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("saved network does not reload: %v", err)
		}
		var second bytes.Buffer
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("Save → Load → Save is not byte-stable")
		}
	})
}
