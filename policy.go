package hetero2pipe

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"hetero2pipe/internal/fleet"
)

// Policy selects the fleet's request-routing strategy (WithFleetPolicy).
// The zero value is consistent hashing, the default. A Policy indexes
// fleet.PolicyNames(), so it is spelled the way the fleet router names it.
type Policy int

const (
	// PolicyHash shards requests by consistent hashing over a key that
	// mixes each request's model name with its fleet sequence number:
	// stable ownership, minimal key movement when devices come and go.
	PolicyHash Policy = iota
	// PolicyLeastSojourn routes each request to the device with the lowest
	// accumulated sojourn estimate — load balancing by predicted latency.
	PolicyLeastSojourn
)

// ErrUnknownPolicy is returned by ParsePolicy for a name outside the known
// set.
var ErrUnknownPolicy = errors.New("hetero2pipe: unknown fleet policy")

// String names the policy the way ParsePolicy (and the CLI -policy flag)
// accepts it.
func (p Policy) String() string {
	if names := fleet.PolicyNames(); p >= 0 && int(p) < len(names) {
		return names[p]
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy maps a CLI/config name to a Policy, ignoring case and
// surrounding space. The empty string parses to PolicyHash (the default);
// unknown names return an error wrapping ErrUnknownPolicy.
func ParsePolicy(s string) (Policy, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	if name == "" {
		return PolicyHash, nil
	}
	names := fleet.PolicyNames()
	if i := slices.Index(names, name); i >= 0 {
		return Policy(i), nil
	}
	return 0, fmt.Errorf("%w: %q (want %s)", ErrUnknownPolicy, s, strings.Join(names, " or "))
}

// WithFleetPolicy selects the fleet's routing policy: PolicyHash
// (consistent hashing, the default) or PolicyLeastSojourn (balance
// accumulated latency estimates).
func WithFleetPolicy(p Policy) Option {
	return optionFunc(func(c *config) { c.fleetPolicy = p.String() })
}
