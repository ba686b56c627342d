package experiments

import (
	"fmt"
	"strings"
	"testing"

	"hetero2pipe/internal/model"
)

func runQuick(t *testing.T, id string) *Report {
	t.Helper()
	r, err := Run(id, QuickConfig())
	if err != nil {
		t.Fatalf("Run(%s): %v", id, err)
	}
	if r.ID != id || len(r.Lines) == 0 {
		t.Fatalf("Run(%s) returned empty report %+v", id, r)
	}
	return r
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", QuickConfig()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestIDsAndTitles(t *testing.T) {
	ids := IDs()
	if len(ids) != 19 {
		t.Fatalf("IDs() = %v", ids)
	}
	for _, id := range ids {
		if Title(id) == "" {
			t.Errorf("Title(%s) empty", id)
		}
		if runnerFor(id) == nil {
			t.Errorf("runnerFor(%s) nil", id)
		}
	}
}

func TestFig1Shapes(t *testing.T) {
	r := runQuick(t, "fig1")
	// NPU-unsupported models report no NPU metric; Fig. 1's "error".
	for _, name := range []string{model.BERT, model.ViT, model.YOLOv4} {
		if _, ok := r.Metrics[name+"/npu_ms"]; ok {
			t.Errorf("%s should error on NPU", name)
		}
	}
	// Ordering NPU < CPU_B and CPU_S slowest, per model.
	for _, name := range []string{model.ResNet50, model.VGG16, model.SqueezeNet} {
		npu := r.Metrics[name+"/npu_ms"]
		big := r.Metrics[name+"/cpu-big_ms"]
		small := r.Metrics[name+"/cpu-small_ms"]
		gpu := r.Metrics[name+"/gpu_ms"]
		if !(npu < big && npu < gpu && small > big && small > gpu) {
			t.Errorf("%s: ordering violated (npu %.1f big %.1f gpu %.1f small %.1f)",
				name, npu, big, gpu, small)
		}
	}
}

func TestFig2aQueueingReduction(t *testing.T) {
	r := runQuick(t, "fig2a")
	if got := r.Metrics["queueing_reduction_x"]; got < 2 {
		t.Errorf("queueing reduction %.2f×, want ≥ 2×", got)
	}
}

func TestFig2bObservation3(t *testing.T) {
	r := runQuick(t, "fig2b")
	sq := r.Metrics[model.SqueezeNet+"_intensity"]
	vit := r.Metrics[model.ViT+"_intensity"]
	if sq <= vit {
		t.Errorf("SqueezeNet intensity %.2f not above ViT %.2f (Observation 3)", sq, vit)
	}
}

func TestTable2Bands(t *testing.T) {
	r := runQuick(t, "tab2")
	sq := r.Metrics["SqueezeNet_cpu_slowdown_pct"]
	if sq < 15 || sq > 45 {
		t.Errorf("SqueezeNet slowdown %.1f%%, want 15–45%% (paper 26%%)", sq)
	}
	vit := r.Metrics["ViT_cpu_slowdown_pct"]
	if vit < 4 || vit > 20 {
		t.Errorf("ViT slowdown %.1f%%, want 4–20%% (paper 11%%)", vit)
	}
	if sq <= vit {
		t.Error("SqueezeNet must suffer more than ViT (Table II)")
	}
}

func TestEq1Correlation(t *testing.T) {
	r := runQuick(t, "eq1")
	if got := r.Metrics["pearson"]; got < 0.7 {
		t.Errorf("ridge correlation %.3f, want ≥ 0.7", got)
	}
}

// TestEq1SplitCounts: the eq1 report counts the zoo models Eq. (1)
// classifies unlike their measured intensity, and the Fig. 7 windows with a
// request it classifies unlike the planner; each count is present and
// bounded by what it counts.
func TestEq1SplitCounts(t *testing.T) {
	cfg := QuickConfig()
	r := runQuick(t, "eq1")
	for _, c := range []struct {
		key string
		max int
	}{{"zoo_class_differs", len(model.All())}, {"windows_class_differs", cfg.Combos}} {
		got, ok := r.Metrics[c.key]
		if !ok {
			t.Errorf("eq1 reports no %s", c.key)
			continue
		}
		if got < 0 || got > float64(c.max) || got != float64(int(got)) {
			t.Errorf("%s = %g, want a count in [0, %d]", c.key, got, c.max)
		}
	}
}

func TestFig7Shapes(t *testing.T) {
	r := runQuick(t, "fig7")
	for _, socName := range []string{"Snapdragon778G", "Snapdragon870", "Kirin990"} {
		mnn := r.Metrics[socName+"/speedup_vs_MNN_mean"]
		if mnn < 2 {
			t.Errorf("%s: H²P vs MNN %.2f×, want ≥ 2× (paper 4.2× avg)", socName, mnn)
		}
		band := r.Metrics[socName+"/speedup_vs_Band_mean"]
		if band < 1.0 {
			t.Errorf("%s: H²P vs Band %.2f×, want ≥ 1.0 (paper ~1.05×)", socName, band)
		}
		noct := r.Metrics[socName+"/speedup_vs_NoC/T_mean"]
		if noct < 1.0 {
			t.Errorf("%s: H²P vs NoC/T %.2f×, want ≥ 1 (paper 1.3×)", socName, noct)
		}
		pipeit := r.Metrics[socName+"/speedup_vs_Pipe-it_mean"]
		if pipeit < 2 {
			t.Errorf("%s: H²P vs Pipe-it %.2f×, want ≥ 2× (paper 2–3.7×)", socName, pipeit)
		}
		// Lower solution variance than Band (the scatter panels).
		if r.Metrics[socName+"/h2p_var"] > r.Metrics[socName+"/band_var"]*1.2 {
			t.Errorf("%s: H²P variance above Band's", socName)
		}
	}
	// The Kirin 990 (strongest NPU) shows the largest MNN speedup.
	if r.Metrics["Kirin990/speedup_vs_MNN_max"] < r.Metrics["Snapdragon778G/speedup_vs_MNN_mean"] {
		t.Error("Kirin990 max speedup should dominate 778G mean")
	}
}

func TestFig8aNearOptimal(t *testing.T) {
	r := runQuick(t, "fig8a")
	if got := r.Metrics["h2p_gap_mean_pct"]; got > 10 {
		t.Errorf("H²P gap to exhaustive %.1f%%, want ≤ 10%% (paper ~4%%)", got)
	}
	if got := r.Metrics["h2p_gap_max_pct"]; got > 25 {
		t.Errorf("H²P max gap %.1f%%, want ≤ 25%%", got)
	}
	// Planning costs are reported (the paper's complexity claim) but not
	// asserted: wall-clock ratios are too noisy for a unit test at quick
	// scale. The full-scale run in EXPERIMENTS.md shows the ~6× gap.
	if r.Metrics["h2p_plan_ms"] <= 0 || r.Metrics["exhaustive_plan_ms"] <= 0 {
		t.Error("planning-cost metrics missing")
	}
}

func TestFig8bProgressive(t *testing.T) {
	r := runQuick(t, "fig8b")
	full := r.Metrics["Full_latency_ms"]
	for _, variant := range []string{"-Mitigation", "-TailOpt", "-WorkSteal", "NoC/T"} {
		if v := r.Metrics[variant+"_latency_ms"]; v < full*0.999 {
			t.Errorf("%s (%.1fms) beats Full (%.1fms); ablation must not improve", variant, v, full)
		}
	}
	if noct := r.Metrics["NoC/T_latency_ms"]; noct < full*1.05 {
		t.Errorf("NoC/T %.1fms not visibly above Full %.1fms (paper: 1.3×)", noct, full)
	}
}

func TestFig9Shapes(t *testing.T) {
	r := runQuick(t, "fig9")
	// Available memory decreases tier over tier.
	if !(r.Metrics["tier1_min_avail_mb"] > r.Metrics["tier2_min_avail_mb"] &&
		r.Metrics["tier2_min_avail_mb"] > r.Metrics["tier3_min_avail_mb"]) {
		t.Errorf("memory floors not decreasing: %v / %v / %v",
			r.Metrics["tier1_min_avail_mb"], r.Metrics["tier2_min_avail_mb"], r.Metrics["tier3_min_avail_mb"])
	}
	// CPU/GPU pipelines drive the controller to max; NPU-only stays below.
	if r.Metrics["tier3_peak_freq_mhz"] != r.Metrics["max_level_mhz"] {
		t.Errorf("3-stage pipeline freq %v below max %v",
			r.Metrics["tier3_peak_freq_mhz"], r.Metrics["max_level_mhz"])
	}
	if r.Metrics["npu_only_peak_freq_mhz"] >= r.Metrics["max_level_mhz"] {
		t.Error("NPU-only execution should not demand full memory bandwidth")
	}
}

func TestFig10Bands(t *testing.T) {
	r := runQuick(t, "fig10")
	worst := r.Metrics["worst_pct"]
	if worst < 40 || worst > 95 {
		t.Errorf("worst intra-cluster slowdown %.0f%%, want 40–95%% (paper ~70%%)", worst)
	}
	// Performance (big) cores suffer at least as much as efficiency cores.
	if r.Metrics["BB-BB_vgg_pct"] < r.Metrics["SS-SS_vgg_pct"] {
		t.Error("big-cluster slowdown below small-cluster slowdown")
	}
}

func TestFig12Linear(t *testing.T) {
	r := runQuick(t, "fig12")
	for _, label := range []string{"5-net", "3-net"} {
		if slope := r.Metrics[label+"_slope"]; slope <= 0 {
			t.Errorf("%s: slope %.3f, want positive (Property 1)", label, slope)
		}
		// The paper's stall-based pipeline makes the relation tight; our
		// event-driven executor weakens it (see EXPERIMENTS.md), so we
		// require a clearly positive but looser fit.
		if r2 := r.Metrics[label+"_r2"]; r2 < 0.3 {
			t.Errorf("%s: R² %.3f, want ≥ 0.3 (paper: 'general linear relationship')", label, r2)
		}
	}
}

func TestFig13Shapes(t *testing.T) {
	r := runQuick(t, "fig13")
	// Mobile processors: affine (R² ≈ 1), slope ≈ per-sample time.
	for _, id := range []string{"cpu-big", "gpu", "npu"} {
		if r2 := r.Metrics[id+"_r2"]; r2 < 0.999 {
			t.Errorf("%s: batch fit R² %.4f, want ≈ 1 (affine)", id, r2)
		}
		// Near-linear growth; the NPU's large fixed weight-load cost
		// (which batching exists to amortise) lowers its ratio.
		if scale := r.Metrics[id+"_scale8"]; scale < 3 {
			t.Errorf("%s: batch-8 scale %.2f, want near-linear ≥ 3", id, scale)
		}
	}
	// Desktop CUDA: sub-linear batching, below every mobile processor.
	cuda := r.Metrics["cuda_scale8"]
	if cuda > 4 {
		t.Errorf("cuda: batch-8 scale %.2f, want sub-linear ≤ 4", cuda)
	}
	for _, id := range []string{"cpu-big", "gpu", "npu"} {
		if cuda >= r.Metrics[id+"_scale8"] {
			t.Errorf("cuda scale %.2f not below %s's %.2f", cuda, id, r.Metrics[id+"_scale8"])
		}
	}
}

func TestSearchSpace(t *testing.T) {
	r := runQuick(t, "searchspace")
	if r.Metrics["pipelines"] < 200 {
		t.Errorf("pipelines = %.0f, want hundreds", r.Metrics["pipelines"])
	}
	if r.Metrics["splits_28_layers"] < 1e7 {
		t.Errorf("splits = %.3g, want ≥ 1e7", r.Metrics["splits_28_layers"])
	}
	if r.Metrics["joint_space_digits"] < 15 {
		t.Error("joint search space implausibly small")
	}
}

func TestAppBThermal(t *testing.T) {
	r := runQuick(t, "appB")
	// CPUs cross 60 °C and throttle; GPU/NPU stay inside 50 °C (App. B).
	for _, cpu := range []string{"cpu-big", "cpu-small"} {
		if c := r.Metrics[cpu+"_steady_c"]; c < 60 {
			t.Errorf("%s steady temperature %.1f °C, want > 60", cpu, c)
		}
		if f := r.Metrics[cpu+"_steady_factor"]; f <= 1 {
			t.Errorf("%s steady factor %.2f, want > 1 (throttling)", cpu, f)
		}
	}
	for _, acc := range []string{"gpu", "npu"} {
		if c := r.Metrics[acc+"_steady_c"]; c > 50 {
			t.Errorf("%s steady temperature %.1f °C, want ≤ 50", acc, c)
		}
		if f := r.Metrics[acc+"_steady_factor"]; f != 1 {
			t.Errorf("%s steady factor %.2f, want 1", acc, f)
		}
	}
}

func TestAppDBatching(t *testing.T) {
	r := runQuick(t, "appD")
	if r.Metrics["busy_reduction_pct"] <= 0 {
		t.Errorf("batching busy-time reduction %.1f%%, want positive", r.Metrics["busy_reduction_pct"])
	}
	if r.Metrics["batched_makespan_ms"] > r.Metrics["unbatched_makespan_ms"]*1.05 {
		t.Error("batching worsened the makespan")
	}
}

func TestClusterSplitPenalty(t *testing.T) {
	r := runQuick(t, "clustersplit")
	if p := r.Metrics["split_penalty_pct"]; p <= 0 {
		t.Errorf("split penalty %.1f%%, want positive (whole clusters must win)", p)
	}
}

func TestEnergyExtension(t *testing.T) {
	r := runQuick(t, "energy")
	h2p := r.Metrics["H2P_j_per_inf"]
	mnn := r.Metrics["MNN_j_per_inf"]
	if h2p <= 0 || mnn <= 0 {
		t.Fatalf("energy metrics missing: H2P %.3f MNN %.3f", h2p, mnn)
	}
	if h2p >= mnn {
		t.Errorf("H²P energy %.2fJ not below serial MNN %.2fJ", h2p, mnn)
	}
	// NPU-heavy schemes (Band, H²P) beat CPU-only schemes on joules.
	if r.Metrics["Band_j_per_inf"] >= r.Metrics["Pipe-it_j_per_inf"] {
		t.Error("Band energy not below Pipe-it's")
	}
}

func TestSensitivitySweeps(t *testing.T) {
	r := runQuick(t, "sensitivity")
	// H²P holds or beats Band on average at every NPU scale.
	for _, scale := range []string{"0.25", "0.5", "1", "2", "4"} {
		if v := r.Metrics["npu"+scale+"_band_vs_h2p"]; v < 0.98 {
			t.Errorf("NPU scale %s: Band/H²P ratio %.3f, want ≥ ~1", scale, v)
		}
	}
	// A stronger NPU widens the gap over the CPU-only baseline.
	if r.Metrics["npu4_mnn_vs_h2p"] <= r.Metrics["npu0.25_mnn_vs_h2p"] {
		t.Error("MNN speedup should grow with NPU scale")
	}
	// The contention/tail machinery pays off at every bus scale.
	for _, scale := range []string{"0.5", "1", "2"} {
		if v := r.Metrics["bus"+scale+"_ct_advantage"]; v < 1 {
			t.Errorf("bus scale %s: C/T advantage %.3f < 1", scale, v)
		}
	}
}

func TestDepthAblation(t *testing.T) {
	r := runQuick(t, "depth")
	// Speedups compound as processors join the pipeline.
	prev := 0.0
	for i := 1; i <= 4; i++ {
		v := r.Metrics[fmt.Sprintf("depth%d_speedup", i)]
		if v < prev*0.98 {
			t.Errorf("depth %d speedup %.2f below depth %d's %.2f", i, v, i-1, prev)
		}
		prev = v
	}
	if r.Metrics["depth4_speedup"] < 2 {
		t.Errorf("full-SoC speedup %.2f, want ≥ 2", r.Metrics["depth4_speedup"])
	}
	// Intra-op µLayer beats the single cluster but loses to the full
	// heterogeneous pipeline (per-layer merge overhead).
	mu := r.Metrics["mulayer_speedup"]
	if mu <= 1 {
		t.Errorf("µLayer speedup %.2f, want > 1 (it does use two processors)", mu)
	}
	if mu >= r.Metrics["depth4_speedup"] {
		t.Errorf("µLayer %.2f not below full H²P %.2f", mu, r.Metrics["depth4_speedup"])
	}
}

func TestReportString(t *testing.T) {
	r := &Report{ID: "x", Title: "y"}
	r.add("line %d", 1)
	r.metric("m", 2)
	s := r.String()
	for _, want := range []string{"== x — y ==", "line 1", "m = 2"} {
		if !strings.Contains(s, want) {
			t.Errorf("report string missing %q:\n%s", want, s)
		}
	}
}

// TestDeterminism: identical seeds give bit-identical metrics — the
// simulator has no wall-clock or map-iteration dependence in its outputs.
func TestDeterminism(t *testing.T) {
	for _, id := range []string{"fig7", "fig8b", "fig12", "tab2"} {
		a, err := Run(id, QuickConfig())
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(id, QuickConfig())
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Metrics) != len(b.Metrics) {
			t.Fatalf("%s: metric counts differ", id)
		}
		for k, v := range a.Metrics {
			if b.Metrics[k] != v {
				t.Errorf("%s: metric %s differs: %g vs %g", id, k, v, b.Metrics[k])
			}
		}
	}
}
