package chaos

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/svrlab/svrlab/internal/netsim"
)

// Spec is the declarative, name-based form of a fault schedule — what the
// CLI's -chaos FILE flag parses. Targets are named by host ID and site name
// and resolved against a concrete network with Bind, so one spec file can
// drive any topology that uses the same naming.
//
// Example:
//
//	{"faults": [
//	  {"kind": "host-crash", "host": "vrchat-us-east-...", "start": "25s", "duration": "15s"},
//	  {"kind": "link-cut", "sites": ["us-east", "us-central"], "start": "10s", "duration": "2s", "flaps": 3, "period": "5s"},
//	  {"kind": "partition", "site": "us-west", "start": "30s", "duration": "10s"}
//	]}
type Spec struct {
	Faults []SpecFault `json:"faults"`
}

// SpecFault is one fault in name-based form. Start/Duration/Period use Go
// duration syntax ("25s", "1m30s"). Duration "" or "0s" means never heal.
type SpecFault struct {
	Kind     string   `json:"kind"`            // host-crash | link-cut | partition
	Label    string   `json:"label,omitempty"` // report label; derived when empty
	Host     string   `json:"host,omitempty"`  // host ID (host-crash)
	Site     string   `json:"site,omitempty"`  // site name (partition)
	Sites    []string `json:"sites,omitempty"` // two site names (link-cut)
	Start    string   `json:"start"`
	Duration string   `json:"duration,omitempty"`
	Flaps    int      `json:"flaps,omitempty"`
	Period   string   `json:"period,omitempty"`
}

// maxFlaps bounds the flap cycles one fault may schedule: every cycle
// becomes scheduler events, so a small JSON document must not be able to
// demand an unbounded event fan-out.
const maxFlaps = 10_000

// ParseSpec decodes a JSON fault schedule, validating kinds, durations and
// flap bounds (target names are validated later by Bind, against a real
// topology).
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("chaos spec: %w", err)
	}
	for i, f := range s.Faults {
		switch f.Kind {
		case "host-crash", "link-cut", "partition":
		default:
			return nil, fmt.Errorf("chaos spec: fault %d: unknown kind %q", i, f.Kind)
		}
		if _, err := parseDur(f.Start, false); err != nil {
			return nil, fmt.Errorf("chaos spec: fault %d: start: %w", i, err)
		}
		if _, err := parseDur(f.Duration, true); err != nil {
			return nil, fmt.Errorf("chaos spec: fault %d: duration: %w", i, err)
		}
		if _, err := parseDur(f.Period, true); err != nil {
			return nil, fmt.Errorf("chaos spec: fault %d: period: %w", i, err)
		}
		if f.Flaps < 0 || f.Flaps > maxFlaps {
			return nil, fmt.Errorf("chaos spec: fault %d: flaps %d outside [0, %d]", i, f.Flaps, maxFlaps)
		}
	}
	return &s, nil
}

func parseDur(s string, optional bool) (time.Duration, error) {
	if s == "" {
		if optional {
			return 0, nil
		}
		return 0, fmt.Errorf("missing duration")
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %s", s)
	}
	return d, nil
}

// Empty reports whether the spec schedules no faults (an empty spec bound
// and run is a guaranteed no-op — the byte-identity baseline).
func (s *Spec) Empty() bool { return s == nil || len(s.Faults) == 0 }

// Bind resolves the spec's named targets against a network and returns a
// runnable Schedule. Unknown host IDs or site names are errors, and so is a
// link-cut between two sites that share no backbone link.
func (s *Spec) Bind(n *netsim.Network) (*Schedule, error) {
	sc := &Schedule{Net: n}
	if s == nil {
		return sc, nil
	}
	for i, sf := range s.Faults {
		start, _ := parseDur(sf.Start, false)
		dur, _ := parseDur(sf.Duration, true)
		period, _ := parseDur(sf.Period, true)
		f := Fault{Label: sf.Label, Start: start, Duration: dur, Flaps: sf.Flaps, Period: period}
		switch sf.Kind {
		case "host-crash":
			f.Kind = HostCrash
			f.Host = hostByID(n, sf.Host)
			if f.Host == nil {
				return nil, fmt.Errorf("chaos spec: fault %d: unknown host %q", i, sf.Host)
			}
		case "link-cut":
			f.Kind = LinkCut
			if len(sf.Sites) != 2 {
				return nil, fmt.Errorf("chaos spec: fault %d: link-cut needs exactly 2 sites", i)
			}
			f.SiteA = siteByName(n, sf.Sites[0])
			f.SiteB = siteByName(n, sf.Sites[1])
			if f.SiteA == nil || f.SiteB == nil {
				return nil, fmt.Errorf("chaos spec: fault %d: unknown site in %v", i, sf.Sites)
			}
			if f.SiteA.LinkTo(f.SiteB) == nil {
				return nil, fmt.Errorf("chaos spec: fault %d: no link between %s and %s", i, sf.Sites[0], sf.Sites[1])
			}
		case "partition":
			f.Kind = Partition
			f.SiteA = siteByName(n, sf.Site)
			if f.SiteA == nil {
				return nil, fmt.Errorf("chaos spec: fault %d: unknown site %q", i, sf.Site)
			}
		}
		sc.Faults = append(sc.Faults, f)
	}
	return sc, nil
}

func hostByID(n *netsim.Network, id string) *netsim.Host {
	for _, h := range n.Hosts() {
		if h.ID == id {
			return h
		}
	}
	return nil
}

func siteByName(n *netsim.Network, name string) *netsim.Site {
	for _, s := range n.Sites() {
		if s.Name == name {
			return s
		}
	}
	return nil
}
