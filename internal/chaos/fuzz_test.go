package chaos

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
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

func FuzzChaosSpec(f *testing.F) {
	f.Add([]byte(`{"faults": [{"kind": "partition", "site": "us-west", "start": "30s", "duration": "10s"}]}`))
	f.Fuzz(checkChaosSpec)
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
