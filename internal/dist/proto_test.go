package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"

	"repro/internal/petri"
)

// Tests for the wire decoders that run on bytes from a peer.

// hugeMaskInit is a session init whose spec-mask count is 2^61: eight
// times that wraps to zero in 64 bits, so a multiply-based bounds check
// passes it and the mask allocation panics with "len out of range".
func hugeMaskInit() []byte {
	b := binary.AppendUvarint(nil, 0) // index
	b = binary.AppendUvarint(b, 1)    // workers
	b = binary.AppendUvarint(b, 1)    // shards
	b = binary.AppendUvarint(b, 0)    // level start
	b = binary.AppendUvarint(b, 1)    // level end
	b = petri.AppendNet(b, ringNet(1, 2))
	return binary.AppendUvarint(b, 1<<61)
}

// TestInitHugeMaskCount: one hostile init frame must fail its session
// with an error, not crash the worker process; the same connection then
// serves a normal exploration.
func TestInitHugeMaskCount(t *testing.T) {
	if _, err := decodeInit(hugeMaskInit()); err == nil {
		t.Fatal("decodeInit accepted a 2^61-word mask")
	}
	cs, ws := net.Pipe()
	errc := make(chan error, 1)
	go func() { errc <- ServeConn(ws, newLogWriter("worker")) }()
	p := &Pool{logw: newLogWriter("coord")}
	if _, err := addPipeWorker(p, cs); err != nil {
		t.Fatal(err)
	}
	c := p.workers[0]
	if err := c.send(msgInit, hugeMaskInit()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.expect(msgStats); err == nil || !strings.Contains(err.Error(), "mask length") {
		t.Fatalf("want the worker's mask-length error report, got %v", err)
	}
	n := ringNet(2, 3)
	opt := petri.ExploreOptions{MaxMarkings: 100}
	got, err := n.ExploreDist(p, opt)
	if err != nil {
		t.Fatalf("session after the hostile init: %v", err)
	}
	requireSameReach(t, "session after the hostile init", n.Explore(opt), got)
	cs.Close()
	if err := <-errc; err != nil {
		t.Fatalf("worker exited: %v", err)
	}
}

// frameDecoders maps each frame type a peer may send to the production
// decoder for its payload, wrapped to return the canonical re-encoding
// of what was decoded.
var frameDecoders = map[byte]func([]byte) ([]byte, error){
	msgHello: func(b []byte) ([]byte, error) {
		pid, err := checkHello(b)
		return appendHello(pid), err
	},
	msgInit: func(b []byte) ([]byte, error) {
		m, err := decodeInit(b)
		if err != nil {
			return nil, err
		}
		return appendInit(nil, m), nil
	},
	msgRecords: func(b []byte) ([]byte, error) {
		recs, rest, err := petri.DecodeVecDeltas(nil, b)
		if err == nil && len(rest) != 0 {
			err = errors.New("trailing bytes")
		}
		return petri.AppendVecDeltas(nil, recs), err
	},
	msgLevel: func(b []byte) ([]byte, error) {
		start, end, err := decodeLevel(b)
		return appendLevel(nil, start, end), err
	},
	msgStats: func(b []byte) ([]byte, error) {
		m, err := decodeStats(b)
		return appendStats(nil, m), err
	},
	msgChunk: decodeChunk,
}

// decodeChunk walks one candidate chunk through the merge's cursor,
// state group by state group, and re-encodes what it read. A chunk is
// cut at group boundaries, so it must end exactly after a group.
func decodeChunk(b []byte) ([]byte, error) {
	s := &chunkStream{buf: b}
	var enc []byte
	for len(s.buf) > 0 {
		id, _, err := decodeUvarint(s.buf)
		if err != nil {
			return nil, err
		}
		cands, err := s.nextState(int(id))
		if err != nil {
			return nil, err
		}
		enc = binary.AppendUvarint(enc, id)
		enc = binary.AppendUvarint(enc, uint64(cands))
		for k := 0; k < cands; k++ {
			tag, trans, known, h, err := s.nextCand()
			if err != nil {
				return nil, err
			}
			enc = binary.AppendUvarint(enc, uint64(trans)<<2|uint64(tag))
			switch tag {
			case candKnown:
				enc = binary.AppendUvarint(enc, uint64(known))
			case candNew:
				enc = binary.AppendUvarint(enc, h)
			}
		}
	}
	return enc, nil
}

// FuzzDistFrames feeds arbitrary (type, payload) frames to every
// decoder that runs on bytes from a peer — the coordinator's hello
// check, candidate-chunk cursor and stats decoder, and the worker's
// init, record and level-commit decoders. No input may panic,
// and every malformed one must be rejected: an accepted payload must
// re-encode to a canonical form that decodes to itself and is no longer
// than the input (only padded varints may shrink), and strict prefixes
// of an accepted payload must fail — except for chunks, whose prefixes
// ending at a state-group boundary are chunks themselves.
func FuzzDistFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		decode := frameDecoders[typ]
		if decode == nil {
			return
		}
		canon, err := decode(payload)
		if err != nil {
			return
		}
		again, err := decode(canon)
		if err != nil {
			t.Fatalf("type %d: canonical re-encoding rejected: %v", typ, err)
		}
		if !bytes.Equal(again, canon) {
			t.Fatalf("type %d: canonical re-encoding is not a fixed point", typ)
		}
		if len(canon) > len(payload) {
			t.Fatalf("type %d: %d-byte payload re-encodes to %d bytes", typ, len(payload), len(canon))
		}
		if typ == msgChunk {
			return
		}
		// Sample about 64 cut points, always including the one-byte
		// truncation, so that large payloads stay cheap to fuzz.
		step := 1 + len(payload)/64
		for cut := len(payload) - 1; cut >= 0; cut -= step {
			if _, err := decode(payload[:cut]); err == nil {
				t.Fatalf("type %d: %d-byte prefix of an accepted %d-byte payload accepted", typ, cut, len(payload))
			}
		}
	})
}
