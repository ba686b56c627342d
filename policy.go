package hetero2pipe

import (
	"errors"
	"fmt"
	"strings"
)

// Policy selects the fleet's request-routing strategy (WithFleetPolicy).
// The zero value is consistent hashing, the default.
type Policy int

const (
	// PolicyHash shards requests by consistent hashing over model digests:
	// stable ownership, minimal key movement when devices come and go.
	PolicyHash Policy = iota
	// PolicyLeastSojourn routes each request to the device with the lowest
	// accumulated sojourn estimate — load balancing by predicted latency.
	PolicyLeastSojourn
	// PolicyAffinity pins each model to a device so recurring windows hit
	// that device's plan cache.
	PolicyAffinity
)

// ErrUnknownPolicy is returned by ParsePolicy for a name outside the known
// set.
var ErrUnknownPolicy = errors.New("hetero2pipe: unknown fleet policy")

// String names the policy the way ParsePolicy (and the CLI -policy flag)
// accepts it.
func (p Policy) String() string {
	switch p {
	case PolicyHash:
		return "hash"
	case PolicyLeastSojourn:
		return "least-sojourn"
	case PolicyAffinity:
		return "affinity"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy maps a CLI/config name to a Policy. The empty string parses
// to PolicyHash (the default); unknown names return an error wrapping
// ErrUnknownPolicy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "hash":
		return PolicyHash, nil
	case "least-sojourn":
		return PolicyLeastSojourn, nil
	case "affinity":
		return PolicyAffinity, nil
	}
	return 0, fmt.Errorf("%w: %q (want hash, least-sojourn or affinity)", ErrUnknownPolicy, s)
}

// WithFleetPolicy selects the fleet's routing policy: PolicyHash
// (consistent hashing, the default), PolicyLeastSojourn (balance
// accumulated latency estimates) or PolicyAffinity (pin models to devices
// so recurring windows hit the plan cache).
func WithFleetPolicy(p Policy) Option {
	return optionFunc(func(c *config) { c.fleetPolicy = p.String() })
}
