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
// This package holds the pieces those targets share: the corpus-file
// encoding that gencorpus writes the checked-in seeds in, prefix-truncation
// sweeps, and byte-identity assertions with readable diffs. Plain `go test`
// runs every file under a target's testdata/fuzz/<Target> as a subtest of
// that target, so each seed and past crasher replays deterministically
// without -fuzz.
package wiretest

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// corpusHeader is the first line of a native Go fuzz corpus file.
const corpusHeader = "go test fuzz v1"

// CorpusEntry renders data as a one-argument []byte corpus file in the
// native `go test fuzz v1` encoding.
func CorpusEntry(data []byte) []byte {
	return []byte(fmt.Sprintf("%s\n[]byte(%q)\n", corpusHeader, data))
}

// ParseCorpusEntry decodes a one-argument []byte corpus file written in the
// native `go test fuzz v1` encoding (the format CorpusEntry produces and
// `go test -fuzz` writes for crashers).
func ParseCorpusEntry(content []byte) ([]byte, error) {
	lines := strings.Split(strings.TrimRight(string(content), "\n"), "\n")
	if len(lines) < 2 || strings.TrimSpace(lines[0]) != corpusHeader {
		return nil, fmt.Errorf("wiretest: not a %q corpus file", corpusHeader)
	}
	arg := strings.TrimSpace(strings.Join(lines[1:], "\n"))
	const prefix, suffix = "[]byte(", ")"
	if !strings.HasPrefix(arg, prefix) || !strings.HasSuffix(arg, suffix) {
		return nil, fmt.Errorf("wiretest: corpus arg %q is not a []byte literal", arg)
	}
	lit := arg[len(prefix) : len(arg)-len(suffix)]
	s, err := strconv.Unquote(lit)
	if err != nil {
		return nil, fmt.Errorf("wiretest: corpus arg %q: %w", arg, err)
	}
	return []byte(s), nil
}

// WriteCorpus writes entries as corpus files named seed-000, seed-001, …
// under dir, creating it as needed (the gencorpus command's backend).
func WriteCorpus(dir string, entries ...[]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, e := range entries {
		name := filepath.Join(dir, fmt.Sprintf("seed-%03d", i))
		if err := os.WriteFile(name, CorpusEntry(e), 0o644); err != nil {
			return err
		}
	}
	return nil
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
