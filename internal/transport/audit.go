package transport

import (
	"sort"

	"github.com/svrlab/svrlab/internal/packet"
)

// ConnAudit is a teardown-time snapshot of one TCP connection's byte-stream
// accounting, consumed by package audit to prove stream continuity: the
// peer's contiguously delivered bytes must be a prefix of this side's
// uniquely sent bytes, and nothing may linger in the reassembly queue at or
// below rcvNxt. All byte counts are application payload (SYN sequence
// consumption excluded).
type ConnAudit struct {
	Host          string
	Local, Remote packet.Endpoint
	State         string // state at snapshot (pre-close state for closed conns)
	CloseReason   string // empty while the conn is still live

	StreamSent    int64 // unique payload bytes ever transmitted (high-water)
	StreamAcked   int64 // contiguously acknowledged payload bytes
	StreamRecv    int64 // contiguously delivered payload bytes (rcvNxt - irs)
	BufferedBytes int   // send-buffer occupancy at snapshot

	OOOSegs    int // reassembly segments pending beyond rcvNxt
	OOOPastRcv int // reassembly segments at or below rcvNxt — must be 0
}

// audit snapshots the connection. closeReason is empty for live conns.
func (c *Conn) audit(closeReason string) ConnAudit {
	a := ConnAudit{
		Host:          c.stack.Host.ID,
		Local:         c.Local,
		Remote:        c.Remote,
		State:         c.state.String(),
		CloseReason:   closeReason,
		BufferedBytes: c.queued(),
	}
	if c.maxRelSeq > 0 {
		a.StreamSent = int64(c.maxRelSeq - 1) // minus the SYN
	}
	if rel := c.sndUna - c.iss; rel > 0 {
		a.StreamAcked = int64(rel - 1)
	}
	a.StreamRecv = int64(c.rcvNxt - c.irsNxt)
	for seq := range c.ooo {
		a.OOOSegs++
		if !seqLT(c.rcvNxt, seq) {
			a.OOOPastRcv++
		}
	}
	return a
}

// AuditConns returns audit summaries for every connection this stack ever
// carried: closed conns first (in close order), then live conns sorted by
// (local port, remote) for deterministic iteration.
func (s *Stack) AuditConns() []ConnAudit {
	out := append([]ConnAudit(nil), s.closedConns...)
	live := make([]*Conn, 0, len(s.conns))
	for _, c := range s.conns {
		live = append(live, c)
	}
	sort.Slice(live, func(i, j int) bool {
		a, b := live[i], live[j]
		if a.Local.Port != b.Local.Port {
			return a.Local.Port < b.Local.Port
		}
		if a.Remote.Addr != b.Remote.Addr {
			return a.Remote.Addr < b.Remote.Addr
		}
		return a.Remote.Port < b.Remote.Port
	})
	for _, c := range live {
		out = append(out, c.audit(""))
	}
	return out
}
