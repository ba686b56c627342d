package hetero2pipe_test

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"hetero2pipe"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stream"
)

func TestFacadeRun(t *testing.T) {
	sys, err := hetero2pipe.NewSystem("Kirin990")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunContext(t.Context(), "ResNet50", "BERT", "SqueezeNet")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Latency <= 0 || res.Throughput <= 0 || res.EnergyJoules <= 0 {
		t.Fatalf("result %+v incomplete", res)
	}
	serial, err := sys.SerialBaseline("ResNet50", "BERT", "SqueezeNet")
	if err != nil {
		t.Fatal(err)
	}
	if serial <= res.Latency {
		t.Errorf("serial baseline %v not above planned %v", serial, res.Latency)
	}
	// The visualisation hooks work off the same result.
	if g := res.Gantt(40); !strings.Contains(g, "npu") {
		t.Error("gantt missing processor rows")
	}
	data, err := res.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := hetero2pipe.NewSystem("NoSuchChip"); err == nil {
		t.Error("unknown preset accepted")
	}
	if _, err := hetero2pipe.NewSystemFor(nil); err == nil {
		t.Error("nil SoC accepted")
	}
	sys, err := hetero2pipe.NewSystem("Kirin990")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunContext(t.Context(), "NoSuchNet"); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := sys.SerialBaseline("NoSuchNet"); err == nil {
		t.Error("unknown model accepted in baseline")
	}
}

func TestFacadeModels(t *testing.T) {
	names := hetero2pipe.Models()
	if len(names) != 13 { // 10 evaluation + 3 application extras
		t.Fatalf("Models() = %d names: %v", len(names), names)
	}
	sys, err := hetero2pipe.NewSystem("Snapdragon870")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunContext(t.Context(), names[0], names[len(names)-1]); err != nil {
		t.Fatalf("running first+last listed models: %v", err)
	}
}

func TestFacadeCustomSoC(t *testing.T) {
	custom := soc.Kirin990()
	custom.Name = "CustomChip"
	sys, err := hetero2pipe.NewSystemFor(custom)
	if err != nil {
		t.Fatal(err)
	}
	if sys.SoC().Name != "CustomChip" {
		t.Error("SoC accessor mismatch")
	}
	res, err := sys.RunModelsContext(t.Context(), []*model.Model{model.MustByName(model.GoogLeNet)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Execution.Completions) != 1 {
		t.Error("single request did not complete")
	}
}

func TestFacadeStream(t *testing.T) {
	sys, err := hetero2pipe.NewSystem("Kirin990")
	if err != nil {
		t.Fatal(err)
	}
	requests := stream.PoissonArrivals([]*model.Model{
		model.MustByName(model.SqueezeNet),
		model.MustByName(model.MobileNetV2),
		model.MustByName(model.ResNet50),
	}, 10*time.Millisecond, 3)
	res, err := sys.RunStreamContext(t.Context(), requests, stream.DefaultConfig())
	if err != nil {
		t.Fatalf("RunStreamContext: %v", err)
	}
	if len(res.Completions) != 3 || res.Windows < 1 {
		t.Fatalf("stream result %+v", res)
	}
}
