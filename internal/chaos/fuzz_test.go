package chaos

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/svrlab/svrlab/internal/wiretest"
)

// checkChaosSpec enforces the spec-codec hardening contract: arbitrary
// bytes never panic ParseSpec or let a tiny document demand unbounded
// scheduler fan-out, and any document that parses survives a canonical
// JSON re-marshal with the identical fault list.
func checkChaosSpec(t *testing.T, data []byte) {
	s, err := ParseSpec(data)
	if err != nil {
		return
	}
	for i, f := range s.Faults {
		if f.Flaps < 0 || f.Flaps > maxFlaps {
			t.Fatalf("fault %d parsed with flaps %d outside [0, %d]", i, f.Flaps, maxFlaps)
		}
	}
	canon, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	again, err := ParseSpec(canon)
	if err != nil {
		t.Fatalf("re-parse of canonical form: %v", err)
	}
	if !reflect.DeepEqual(s, again) {
		t.Fatalf("canonical round trip changed the spec:\n %+v\n %+v", s, again)
	}
}

// chaosSpecSeeds are well-formed specs plus ones ParseSpec must refuse.
func chaosSpecSeeds() []wiretest.Seed {
	return []wiretest.Seed{
		{Name: "partition", Data: []byte(`{"faults": [{"kind": "partition", "site": "us-west", "start": "30s", "duration": "10s"}]}`)},
		{Name: "every-kind", Data: []byte(`{"faults": [
  {"kind": "host-crash", "host": "vrchat-us-east-1", "start": "25s", "duration": "15s"},
  {"kind": "link-cut", "sites": ["us-east", "us-central"], "start": "10s", "duration": "2s", "flaps": 3, "period": "5s"},
  {"kind": "partition", "site": "us-west", "start": "30s", "duration": "10s"}
]}`)},
		{Name: "empty", Data: []byte(`{}`)},
		{Name: "unknown-kind", Data: []byte(`{"faults": [{"kind": "meteor", "start": "1s"}]}`), Reject: true},
		{Name: "too-many-flaps", Data: []byte(`{"faults": [{"kind": "partition", "site": "us-west", "start": "1s", "flaps": 99999}]}`), Reject: true},
		{Name: "not-json", Data: []byte(`not json`), Reject: true},
		{Name: "negative-start", Data: []byte(`{"faults": [{"kind": "partition", "site": "x", "start": "-3s"}]}`), Reject: true},
	}
}

func FuzzChaosSpec(f *testing.F) {
	wiretest.AddSeeds(f, chaosSpecSeeds())
	f.Fuzz(checkChaosSpec)
}

func TestChaosSpecSeeds(t *testing.T) {
	wiretest.CheckVerdicts(t, chaosSpecSeeds(), func(data []byte) error {
		_, err := ParseSpec(data)
		return err
	})
}

// TestParseSpecBoundsFlaps pins the event fan-out bound: a fault may not
// schedule more than maxFlaps flap cycles however small its JSON is.
func TestParseSpecBoundsFlaps(t *testing.T) {
	mk := func(flaps string) string {
		return `{"faults": [{"kind": "partition", "site": "s", "start": "1s", "flaps": ` + flaps + `, "period": "1s"}]}`
	}
	if _, err := ParseSpec([]byte(mk("10000"))); err != nil {
		t.Fatalf("boundary flap count rejected: %v", err)
	}
	if _, err := ParseSpec([]byte(mk("10001"))); err == nil || !strings.Contains(err.Error(), "flaps") {
		t.Fatalf("excess flap count accepted: %v", err)
	}
	if _, err := ParseSpec([]byte(mk("-1"))); err == nil {
		t.Fatal("negative flap count accepted")
	}
}
