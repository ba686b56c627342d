package hetero2pipe_test

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hetero2pipe"
	"hetero2pipe/internal/model"
)

// fleetModels builds the facade fleet tests' recurring request mix.
func fleetModels(t *testing.T, n int) []*model.Model {
	t.Helper()
	zoo := []string{model.ResNet50, model.SqueezeNet, model.GoogLeNet, model.MobileNetV2}
	models := make([]*model.Model, n)
	for i := range models {
		models[i] = model.MustByName(zoo[i%len(zoo)])
	}
	return models
}

// TestFleetFacadeRun drives WithFleet end to end: a 3-device mixed-preset
// fleet behind the library facade must complete every request, label each
// device's metrics apart in the shared registry, and report through the
// merged FleetReport.
func TestFleetFacadeRun(t *testing.T) {
	reg := hetero2pipe.NewMetricsRegistry("h2pipe")
	sys, err := hetero2pipe.NewSystem("Kirin990",
		hetero2pipe.WithFleet(3),
		hetero2pipe.WithFleetPolicy(hetero2pipe.PolicyLeastSojourn),
		hetero2pipe.WithMetrics(reg),
		hetero2pipe.WithPlanCache(8),
		hetero2pipe.WithWindow(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	fl := sys.Fleet()
	if fl == nil {
		t.Fatal("WithFleet(3) built no fleet")
	}
	if got := len(fl.Devices()); got != 3 {
		t.Fatalf("fleet has %d devices, want 3", got)
	}
	if fl.Devices()[0].SoC().Name != sys.SoC().Name {
		t.Errorf("device 0 SoC %q is not the system's %q", fl.Devices()[0].SoC().Name, sys.SoC().Name)
	}
	if got := fl.Policy(); got != "least-sojourn" {
		t.Errorf("fleet policy = %q, want least-sojourn", got)
	}

	requests := hetero2pipe.FleetPoissonArrivals(fleetModels(t, 12), time.Millisecond, 7, 3)
	res, err := sys.RunFleetContext(t.Context(), requests)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != len(requests) {
		t.Errorf("result requests = %d, want %d", res.Requests, len(requests))
	}
	for i := range requests {
		if res.Completions[i] <= 0 {
			t.Errorf("request %d never completed", i)
		}
	}
	if res.Report == nil || res.Report.Completed != len(requests) {
		t.Fatalf("fleet report incomplete: %+v", res.Report)
	}
	assigned := 0
	for _, d := range res.Report.PerDevice {
		assigned += d.Assigned
	}
	if assigned != len(requests) {
		t.Errorf("per-device assignments sum to %d, want %d", assigned, len(requests))
	}

	snap := reg.Snapshot()
	labeled := 0
	for key := range snap.Counters {
		if strings.HasPrefix(key, "stream_windows_total{device=") {
			labeled++
		}
	}
	if labeled == 0 {
		t.Error("shared registry holds no device-labeled scheduler series")
	}
}

// TestFleetFacadeWithoutFleet: RunFleetContext on a plain system must
// refuse, and the single-device path must keep its unlabeled metric series.
func TestFleetFacadeWithoutFleet(t *testing.T) {
	reg := hetero2pipe.NewMetricsRegistry("h2pipe")
	sys, err := hetero2pipe.NewSystem("Kirin990", hetero2pipe.WithMetrics(reg), hetero2pipe.WithWindow(3))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Fleet() != nil {
		t.Fatal("plain system grew a fleet")
	}
	if _, err := sys.RunFleetContext(t.Context(), nil); err == nil {
		t.Error("RunFleetContext without WithFleet: nil error")
	}
	reqs := make([]hetero2pipe.StreamRequest, 3)
	for i, m := range fleetModels(t, 3) {
		reqs[i] = hetero2pipe.StreamRequest{Model: m}
	}
	if _, err := sys.RunStreamContext(t.Context(), reqs, hetero2pipe.StreamConfig{}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if _, ok := snap.Counters["stream_windows_total"]; !ok {
		t.Error("single-device run lost its unlabeled stream_windows_total series")
	}
	for key := range snap.Counters {
		if strings.Contains(key, "{device=") {
			t.Errorf("single-device run leaked a labeled series %s", key)
		}
	}
}

// TestFleetEndpoint serves ObsHandler and checks /fleet: live status JSON
// when a fleet is attached, 404 otherwise.
func TestFleetEndpoint(t *testing.T) {
	sys, err := hetero2pipe.NewSystem("Kirin990",
		hetero2pipe.WithFleet(2), hetero2pipe.WithWindow(3))
	if err != nil {
		t.Fatal(err)
	}
	requests := hetero2pipe.FleetPoissonArrivals(fleetModels(t, 6), time.Millisecond, 3, 2)
	if _, err := sys.RunFleetContext(t.Context(), requests); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sys.ObsHandler())
	defer srv.Close()

	status, body := httpGet(t, srv.URL+"/fleet")
	if status != 200 {
		t.Fatalf("GET /fleet = %d, want 200", status)
	}
	var st hetero2pipe.FleetStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/fleet not JSON: %v\n%s", err, body)
	}
	if len(st.Devices) != 2 {
		t.Errorf("/fleet reports %d devices, want 2", len(st.Devices))
	}
	if st.Completed != len(requests) {
		t.Errorf("/fleet completed = %d, want %d", st.Completed, len(requests))
	}
	if st.Devices[0].Device != "dev0" || st.Devices[0].SoC == "" {
		t.Errorf("/fleet device row malformed: %+v", st.Devices[0])
	}

	plain, err := hetero2pipe.NewSystem("Kirin990")
	if err != nil {
		t.Fatal(err)
	}
	plainSrv := httptest.NewServer(plain.ObsHandler())
	defer plainSrv.Close()
	if status, _ := httpGet(t, plainSrv.URL+"/fleet"); status != 404 {
		t.Errorf("GET /fleet without a fleet = %d, want 404", status)
	}
}
