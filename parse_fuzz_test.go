package hetero2pipe_test

import (
	"errors"
	"testing"

	"hetero2pipe"
)

// FuzzParsePolicy: no input panics ParsePolicy, a rejection wraps
// ErrUnknownPolicy, and every accepted policy re-parses from its String
// form to itself.
func FuzzParsePolicy(f *testing.F) {
	for _, s := range []string{"", "hash", " Least-Sojourn\t", "affinity", "policy(7)", "HASH "} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := hetero2pipe.ParsePolicy(s)
		if err != nil {
			if !errors.Is(err, hetero2pipe.ErrUnknownPolicy) {
				t.Fatalf("ParsePolicy(%q): error %v does not wrap ErrUnknownPolicy", s, err)
			}
			return
		}
		if back, err := hetero2pipe.ParsePolicy(p.String()); err != nil || back != p {
			t.Fatalf("ParsePolicy(%q) = %v, but ParsePolicy(%q) = %v, %v", s, p, p.String(), back, err)
		}
	})
}

// FuzzParseSLOClass: no input panics ParseSLOClass, a rejection wraps
// ErrUnknownSLOClass, and every accepted class — custom weights included —
// re-parses from its String form to itself.
func FuzzParseSLOClass(f *testing.F) {
	for _, s := range []string{"", "latency", "Balanced", "battery-saver", "energy", "custom:1,0,2,0",
		"custom:0.5, 1e-3,0,7", "custom:1,2,3", "custom:nan,0,0,0", "custom:-0,0,0,0", "custom:0x1p-2,0,0,1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := hetero2pipe.ParseSLOClass(s)
		if err != nil {
			if !errors.Is(err, hetero2pipe.ErrUnknownSLOClass) {
				t.Fatalf("ParseSLOClass(%q): error %v does not wrap ErrUnknownSLOClass", s, err)
			}
			return
		}
		if back, err := hetero2pipe.ParseSLOClass(c.String()); err != nil || back != c {
			t.Fatalf("ParseSLOClass(%q) = %+v, but ParseSLOClass(%q) = %+v, %v", s, c, c.String(), back, err)
		}
	})
}

// FuzzParseTraceID: no input panics ParseTraceID, and every accepted
// nonzero ID re-parses from its String form to itself. The zero ID means
// "unassigned" and renders as "", which is not an ID.
func FuzzParseTraceID(f *testing.F) {
	for _, s := range []string{"", "0", "00000000000000ff", "FFFFFFFFFFFFFFFF", "10000000000000000", "-1", "0x1f",
		hetero2pipe.NewTraceID(0).String()} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		id, err := hetero2pipe.ParseTraceID(s)
		if err != nil || id == 0 {
			return
		}
		if back, err := hetero2pipe.ParseTraceID(id.String()); err != nil || back != id {
			t.Fatalf("ParseTraceID(%q) = %v, but ParseTraceID(%q) = %v, %v", s, id, id.String(), back, err)
		}
	})
}
