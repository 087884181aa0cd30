// Package wiretest is the shared property-test harness behind the codec
// hardening contract (DESIGN §4.10). Every hand-rolled wire codec in the
// lab — packet headers, TLS records, RTP/RTCP, the platform data-channel
// messages, pcap files, chaos specs — is exercised by a native Go fuzz
// target whose body enforces two invariants:
//
//  1. no panic, no hang, no out-of-bounds, no unbounded allocation on
//     arbitrary bytes, and
//  2. round-trip identity: parse(marshal(x)) == x for valid values, and
//     marshal(parse(b)) byte-identical to b for any b that parses (the
//     differential re-marshal check).
//
// This package holds the pieces those targets share: prefix-truncation
// sweeps, byte-identity assertions with readable diffs, Flip, which
// damages one byte of a seed, and Seed, which names a seed and the verdict
// its decoder must reach on it. Each target's seeds are built in its own
// fuzz test with its package's real marshalers; AddSeeds makes them f.Add
// calls, and plain `go test` runs each as a subtest of its target, as it
// does every crasher `go test -fuzz` saves under testdata/fuzz/<Target>.
// CheckVerdicts runs the same seeds again, each as a named subtest that
// holds the decoder to the seed's verdict.
package wiretest

import (
	"bytes"
	"testing"
)

// Seed is one fuzz seed: a frame from a real marshaler, which its decoder
// accepts, or a damaged copy, which pins a rejection path and so must be
// rejected. Name says what the seed is ("udp", "bad-version").
type Seed struct {
	Name   string
	Data   []byte
	Reject bool
}

// AddSeeds adds each seed's bytes to f's seed corpus, in order.
func AddSeeds(f *testing.F, seeds []Seed) {
	for _, s := range seeds {
		f.Add(s.Data)
	}
}

// CheckVerdicts runs decode on each seed as a subtest named after it and
// fails unless decode errors exactly on the seeds marked Reject. The fuzz
// body returns early on an error, so it cannot tell a damaged seed that
// still decodes (it no longer reaches the rejection path it was made for)
// from one that is rejected, nor a well-formed seed that stopped decoding
// (it no longer reaches the re-marshal check).
func CheckVerdicts(t *testing.T, seeds []Seed, decode func(data []byte) error) {
	t.Helper()
	for _, s := range seeds {
		t.Run(s.Name, func(t *testing.T) {
			err := decode(s.Data)
			switch {
			case s.Reject && err == nil:
				t.Fatalf("damaged seed % x decoded", s.Data)
			case !s.Reject && err != nil:
				t.Fatalf("seed % x rejected: %v", s.Data, err)
			}
		})
	}
}

// Flip returns a copy of b with the byte at i XORed with x: a seed damaged
// in one place, to pin a decoder's rejection path.
func Flip(b []byte, i int, x byte) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= x
	return out
}

// CheckPrefixes runs check on every strict prefix of frame: whatever a
// decoder does with a truncated frame — error out or accept a shorter valid
// frame — it must uphold the same invariants the fuzz body enforces on
// arbitrary input.
func CheckPrefixes(t *testing.T, frame []byte, check func(t *testing.T, data []byte)) {
	t.Helper()
	for i := 0; i < len(frame); i++ {
		prefix := append([]byte(nil), frame[:i]...)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("prefix %d/%d panicked: %v", i, len(frame), r)
				}
			}()
			check(t, prefix)
		}()
		if t.Failed() {
			t.Fatalf("prefix %d/%d of % x failed", i, len(frame), frame)
		}
	}
}

// CheckPrefixesError additionally requires every strict prefix to be
// rejected — the contract of exactly-framed codecs (packet headers, hello,
// RTCP, the JSON envelope), where no truncation of a valid frame is itself
// valid.
func CheckPrefixesError(t *testing.T, frame []byte, decode func(data []byte) error) {
	t.Helper()
	for i := 0; i < len(frame); i++ {
		prefix := append([]byte(nil), frame[:i]...)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("prefix %d/%d panicked: %v", i, len(frame), r)
				}
			}()
			if err := decode(prefix); err == nil {
				t.Fatalf("prefix %d/%d of % x decoded without error", i, len(frame), frame)
			}
		}()
		if t.Failed() {
			t.FailNow()
		}
	}
}

// AssertRemarshal fails unless re-marshaled bytes are identical to the
// original wire input — the differential re-marshal invariant.
func AssertRemarshal(t testing.TB, orig, remarshaled []byte) {
	t.Helper()
	if bytes.Equal(orig, remarshaled) {
		return
	}
	i := 0
	for i < len(orig) && i < len(remarshaled) && orig[i] == remarshaled[i] {
		i++
	}
	t.Fatalf("re-marshal not byte-identical: len %d vs %d, first diff at %d\n orig: % x\n re:   % x",
		len(orig), len(remarshaled), i, clip(orig, i), clip(remarshaled, i))
}

// clip windows b around offset i for readable failure output.
func clip(b []byte, i int) []byte {
	lo, hi := i-16, i+16
	if lo < 0 {
		lo = 0
	}
	if hi > len(b) {
		hi = len(b)
	}
	return b[lo:hi]
}
