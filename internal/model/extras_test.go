package model

import "testing"

func TestExtrasValidate(t *testing.T) {
	for _, name := range ExtraNames() {
		m, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", name, err)
		}
	}
}

func TestExtrasNotInEvaluationZoo(t *testing.T) {
	// The evaluation experiments iterate Names()/All(); the extras must
	// not leak into them (the paper evaluates exactly ten networks).
	inZoo := make(map[string]bool)
	for _, n := range Names() {
		inZoo[n] = true
	}
	for _, n := range ExtraNames() {
		if inZoo[n] {
			t.Errorf("extra model %q leaked into the evaluation zoo", n)
		}
	}
	if len(Names()) != 10 {
		t.Errorf("evaluation zoo has %d models, want 10", len(Names()))
	}
}

func TestExtraMagnitudes(t *testing.T) {
	bands := map[string][2]float64{ // [min, max] GFLOPs
		FaceNet:      {0.5, 8},
		AgeGenderNet: {0.2, 4},
		GPT2Decoder:  {2, 25},
	}
	for name, band := range bands {
		m, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := m.TotalFLOPs() / 1e9
		if g < band[0] || g > band[1] {
			t.Errorf("%s: %.2f GFLOPs outside [%g, %g]", name, g, band[0], band[1])
		}
	}
	// GPT-2's vocabulary projection makes it parameter-heavy.
	gpt, _ := ByName(GPT2Decoder)
	if mb := float64(gpt.TotalWeightBytes()) / 1e6; mb < 150 {
		t.Errorf("GPT2Decoder weights %.0f MB, want ≥ 150 (vocab projection)", mb)
	}
}

func TestExtraNPUSupport(t *testing.T) {
	// Transformer decoder falls back; the CNN extras run on the NPU.
	gpt, _ := ByName(GPT2Decoder)
	if len(npuUnsupportedLayers(gpt)) == 0 {
		t.Error("GPT2Decoder should contain NPU-unsupported operators")
	}
	for _, name := range []string{FaceNet, AgeGenderNet} {
		m, _ := ByName(name)
		if idx := npuUnsupportedLayers(m); len(idx) > 0 {
			t.Errorf("%s: unexpected unsupported layers %v", name, idx)
		}
	}
}
