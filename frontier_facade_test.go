package hetero2pipe_test

import (
	"errors"
	"testing"

	"hetero2pipe"
)

// TestPolicyParse is the table-driven test for the typed fleet policy API.
func TestPolicyParse(t *testing.T) {
	cases := []struct {
		in      string
		want    hetero2pipe.Policy
		wantErr bool
	}{
		{in: "", want: hetero2pipe.PolicyHash},
		{in: "hash", want: hetero2pipe.PolicyHash},
		{in: " Hash ", want: hetero2pipe.PolicyHash},
		{in: "least-sojourn", want: hetero2pipe.PolicyLeastSojourn},
		{in: "affinity", want: hetero2pipe.PolicyAffinity},
		{in: "round-robin", wantErr: true},
	}
	for _, tc := range cases {
		got, err := hetero2pipe.ParsePolicy(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParsePolicy(%q): expected error, got %v", tc.in, got)
			} else if !errors.Is(err, hetero2pipe.ErrUnknownPolicy) {
				t.Errorf("ParsePolicy(%q): error %v does not wrap ErrUnknownPolicy", tc.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, want %v", tc.in, got, tc.want)
		}
		// String must round-trip through ParsePolicy.
		if back, err := hetero2pipe.ParsePolicy(got.String()); err != nil || back != got {
			t.Errorf("ParsePolicy(%v.String()) = %v, %v", got, back, err)
		}
	}
}

// TestPolicyStringUnknown: out-of-range values render diagnostically instead
// of aliasing a real policy name.
func TestPolicyStringUnknown(t *testing.T) {
	if s := hetero2pipe.Policy(42).String(); s != "policy(42)" {
		t.Errorf("Policy(42).String() = %q", s)
	}
}

// TestPlanFrontierFacade: the facade frontier API returns a non-empty
// frontier whose latency-critical point matches the default Run result.
func TestPlanFrontierFacade(t *testing.T) {
	sys, err := hetero2pipe.NewSystem("Kirin990")
	if err != nil {
		t.Fatal(err)
	}
	f, err := sys.PlanFrontierContext(t.Context(), "ResNet50", "SqueezeNet", "BERT")
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() < 1 {
		t.Fatalf("frontier size %d", f.Size())
	}
	pt := f.Select(hetero2pipe.SLOLatencyCritical)
	if pt == nil || pt.Plan == nil {
		t.Fatal("latency-critical selection empty")
	}
	res, err := sys.RunContext(t.Context(), "ResNet50", "SqueezeNet", "BERT")
	if err != nil {
		t.Fatal(err)
	}
	if pt.Objective.Makespan != res.Latency {
		t.Errorf("latency-critical frontier makespan %v != Run latency %v",
			pt.Objective.Makespan, res.Latency)
	}
	// Frontier dominance holds through the facade re-export too.
	for i := range f.Points {
		for j := range f.Points {
			if i != j && f.Points[j].Objective.Dominates(f.Points[i].Objective) {
				t.Errorf("facade frontier point %d dominated by %d", i, j)
			}
		}
	}
}

// TestRunWithObjectiveFrontier: WithObjective(ObjectiveFrontier) +
// WithSLOClass drive offline Run through frontier selection end to end.
func TestRunWithObjectiveFrontier(t *testing.T) {
	base, err := hetero2pipe.NewSystem("Kirin990")
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.RunContext(t.Context(), "ResNet50", "SqueezeNet")
	if err != nil {
		t.Fatal(err)
	}

	crit, err := hetero2pipe.NewSystem("Kirin990",
		hetero2pipe.WithObjective(hetero2pipe.ObjectiveFrontier),
		hetero2pipe.WithSLOClass(hetero2pipe.SLOLatencyCritical))
	if err != nil {
		t.Fatal(err)
	}
	got, err := crit.RunContext(t.Context(), "ResNet50", "SqueezeNet")
	if err != nil {
		t.Fatal(err)
	}
	if got.Latency != want.Latency {
		t.Errorf("frontier latency-critical Run latency %v != makespan Run %v", got.Latency, want.Latency)
	}

	saver, err := hetero2pipe.NewSystem("Kirin990",
		hetero2pipe.WithObjective(hetero2pipe.ObjectiveFrontier),
		hetero2pipe.WithSLOClass(hetero2pipe.SLOBatterySaver))
	if err != nil {
		t.Fatal(err)
	}
	sres, err := saver.RunContext(t.Context(), "ResNet50", "SqueezeNet")
	if err != nil {
		t.Fatal(err)
	}
	if sres.EnergyJoules > got.EnergyJoules {
		t.Errorf("battery-saver Run energy %.4f J > latency-critical %.4f J",
			sres.EnergyJoules, got.EnergyJoules)
	}
}

// TestParseSLOClassFacade: the facade re-export parses and matches the
// facade-level sentinel with errors.Is.
func TestParseSLOClassFacade(t *testing.T) {
	if c, err := hetero2pipe.ParseSLOClass("battery-saver"); err != nil || c != hetero2pipe.SLOBatterySaver {
		t.Errorf("ParseSLOClass(battery-saver) = %v, %v", c, err)
	}
	if _, err := hetero2pipe.ParseSLOClass("gold"); !errors.Is(err, hetero2pipe.ErrUnknownSLOClass) {
		t.Errorf("ParseSLOClass(gold) error %v does not wrap ErrUnknownSLOClass", err)
	}
	w := hetero2pipe.SLOWeights{Makespan: 1, Energy: 2}
	got, err := hetero2pipe.ParseSLOClass(hetero2pipe.CustomSLO(w).String())
	if err != nil || got != hetero2pipe.CustomSLO(w) {
		t.Errorf("custom SLO did not round-trip through String: %v, %v", got, err)
	}
}
