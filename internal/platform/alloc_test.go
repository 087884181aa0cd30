package platform

import (
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/avatar"
)

// TestParsersAllocFree: the data-channel parsers return views of the frame,
// so parsing a valid avatar, forward or seq frame allocates nothing.
func TestParsersAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc bound only holds without -race")
	}
	av := appendAvatar(nil, avatarMsg{Seq: 1, ActionID: 2, SentAtUs: 3, Pose: make([]byte, avatar.WorldsCodec.WireLen())})
	fwd, err := appendForward(nil, "u1", av)
	if err != nil {
		t.Fatal(err)
	}
	seq := appendSeq(nil, seqMsg{Kind: kindSync, Seq: 4, Size: 160})
	var sum uint32
	for _, c := range []struct {
		name  string
		parse func() error
	}{
		{"parseAvatar", func() error { m, err := parseAvatar(av); sum += m.Seq; return err }},
		{"parseForward", func() error { f, err := parseForward(fwd); sum += f.Seq + uint32(len(f.User)); return err }},
		{"parseSeq", func() error { m, err := parseSeq(seq); sum += m.Seq; return err }},
	} {
		if err := c.parse(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = c.parse() }); allocs != 0 {
			t.Errorf("%s allocates %.1f, want 0", c.name, allocs)
		}
	}
	if sum == 0 {
		t.Fatal("parsed nothing")
	}
}

// TestAvatarUpdateAllocBound: in a steady 2-user session, an avatar update
// allocates little more than the forward frame the server keeps until
// serverDelay has passed. The sender fills and encodes a reused pose into a
// reused buffer, the server decodes into a reused pose, and the receiver
// decodes into another. The bound charges every allocation of one
// simulated second to that second's uploads: the forward, its delayed
// send, and what the sync, keepalive and telemetry streams and the fabric
// allocate besides. Hubs shares the bound: the secure session hands each
// TLS message to its OnMsg handler as a view, and what the server keeps of
// a forward is its JSON envelope.
func TestAvatarUpdateAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc bound only holds without -race")
	}
	const bound = 4.0
	for _, p := range All() {
		t.Run(string(p.Name), func(t *testing.T) {
			sched, _, cs := lab(t, p.Name, 2, 42)
			sched.RunUntil(20 * time.Second)
			var uploads, forwards int
			second := func() {
				up := cs[0].seq + cs[1].seq
				fw := cs[0].ForwardsReceived + cs[1].ForwardsReceived
				sched.RunUntil(sched.Now() + time.Second)
				uploads = int(cs[0].seq + cs[1].seq - up)
				forwards = cs[0].ForwardsReceived + cs[1].ForwardsReceived - fw
			}
			allocs := testing.AllocsPerRun(1, second)
			if uploads == 0 || forwards == 0 {
				t.Fatalf("%d uploads and %d forwards in a second, want both > 0", uploads, forwards)
			}
			per := allocs / float64(uploads)
			t.Logf("%.0f allocations, %d uploads, %d forwards: %.2f per upload", allocs, uploads, forwards, per)
			if per > bound {
				t.Fatalf("%.2f allocations per avatar upload, want <= %.0f", per, bound)
			}
		})
	}
}
