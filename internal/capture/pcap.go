package capture

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/svrlab/svrlab/internal/netsim"
)

// pcap file support: captured records serialize to the classic libpcap
// format (microsecond timestamps, LINKTYPE_RAW), so a lab capture can be
// opened in real Wireshark/tcpdump — closing the loop with the paper's
// tooling — and captures can be archived and re-analyzed offline.

const (
	pcapMagic   = 0xa1b2c3d4
	pcapVMajor  = 2
	pcapVMinor  = 4
	linktypeRaw = 101 // raw IP packets
	maxSnapLen  = 262144
)

var errPcapRecord = errors.New("capture: record not representable in pcap")

func writePcapHeader(w io.Writer) error {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:], pcapMagic)
	binary.LittleEndian.PutUint16(hdr[4:], pcapVMajor)
	binary.LittleEndian.PutUint16(hdr[6:], pcapVMinor)
	// thiszone=0, sigfigs=0
	binary.LittleEndian.PutUint32(hdr[16:], maxSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:], linktypeRaw)
	_, err := w.Write(hdr)
	return err
}

func writePcapRecord(w io.Writer, rec []byte, ts time.Duration, wire []byte) error {
	usec := ts.Microseconds()
	if usec < 0 || usec/1_000_000 > 0xffffffff || len(wire) > maxSnapLen {
		return errPcapRecord
	}
	binary.LittleEndian.PutUint32(rec[0:], uint32(usec/1_000_000))
	binary.LittleEndian.PutUint32(rec[4:], uint32(usec%1_000_000))
	binary.LittleEndian.PutUint32(rec[8:], uint32(len(wire)))
	binary.LittleEndian.PutUint32(rec[12:], uint32(len(wire)))
	if _, err := w.Write(rec); err != nil {
		return err
	}
	_, err := w.Write(wire)
	return err
}

// WritePcap serializes records to w in libpcap format. Records with a
// negative timestamp, a timestamp whose seconds overflow the 32-bit pcap
// field, or a wire image over the snap length cannot be represented and
// return an error instead of writing silently truncated fields.
func WritePcap(w io.Writer, records []Record) error {
	if err := writePcapHeader(w); err != nil {
		return err
	}
	rec := make([]byte, 16)
	for i := range records {
		if err := writePcapRecord(w, rec, records[i].TS, records[i].Wire); err != nil {
			return err
		}
	}
	return nil
}

// PcapTap streams the packets crossing one host's access point to a
// libpcap file as they cross it. A sniffer keeps no wire bytes, so this tap
// is how a lab run is saved for Wireshark: the file is byte-identical to
// WritePcap over the same packets.
type PcapTap struct {
	w      *bufio.Writer
	rec    []byte
	err    error
	closed bool
}

// AttachPcap writes the pcap header to w and taps h, appending one record
// per packet from then on until Close.
func AttachPcap(h *netsim.Host, w io.Writer) *PcapTap {
	t := &PcapTap{w: bufio.NewWriter(w), rec: make([]byte, 16)}
	t.err = writePcapHeader(t.w)
	h.Tap(t.write)
	return t
}

// write is the TapFunc AttachPcap registers. After the first error it
// writes nothing more.
func (t *PcapTap) write(at time.Duration, _ netsim.Dir, wire []byte) {
	if t.err == nil && !t.closed {
		t.err = writePcapRecord(t.w, t.rec, at, wire)
	}
}

// Close flushes the buffered records to the writer and stops the tap. It
// returns the first error the tap met, and it does not close the writer.
func (t *PcapTap) Close() error {
	t.closed = true
	if err := t.w.Flush(); t.err == nil {
		t.err = err
	}
	return t.err
}

var errPcap = errors.New("capture: malformed pcap")

// ReadPcap parses a libpcap file produced by WritePcap or a PcapTap (or any
// little-endian, microsecond, LINKTYPE_RAW capture). pcap stores no
// direction, so every restored record carries the zero Dir, netsim.DirUp;
// a caller that needs direction re-derives it from the addresses.
func ReadPcap(r io.Reader) ([]Record, error) {
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != pcapMagic {
		return nil, errPcap
	}
	if binary.LittleEndian.Uint16(hdr[4:]) != pcapVMajor {
		return nil, errPcap
	}
	if lt := binary.LittleEndian.Uint32(hdr[20:]); lt != linktypeRaw {
		return nil, fmt.Errorf("capture: unsupported linktype %d", lt)
	}
	var out []Record
	rec := make([]byte, 16)
	for {
		if _, err := io.ReadFull(r, rec); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, err
		}
		sec := binary.LittleEndian.Uint32(rec[0:])
		usec := binary.LittleEndian.Uint32(rec[4:])
		caplen := binary.LittleEndian.Uint32(rec[8:])
		origlen := binary.LittleEndian.Uint32(rec[12:])
		// usec is a sub-second field: a value of a million or more cannot
		// come from a well-formed writer and would not survive the
		// microsecond round-trip. Truncated packets (caplen < origlen)
		// are rejected too: the lab's own writer never produces them, and
		// a restored record must re-serialize byte-identically.
		if caplen > maxSnapLen || caplen != origlen || usec >= 1_000_000 {
			return nil, errPcap
		}
		wire := make([]byte, caplen)
		if _, err := io.ReadFull(r, wire); err != nil {
			return nil, errPcap
		}
		out = append(out, Record{
			TS:   time.Duration(sec)*time.Second + time.Duration(usec)*time.Microsecond,
			Wire: wire,
		})
	}
}
