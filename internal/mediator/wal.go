package mediator

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"barter/internal/catalog"
	"barter/internal/core"
)

// The write-ahead log gives a shard process-restart durability: every escrow
// deposit and every flag verdict is appended before the reply leaves, and
// NewShard replays the log so a restarted shard remembers who cheated. The
// format is an 8-byte magic followed by self-delimiting records — one type
// byte, a fixed-size payload, and a CRC-32 (IEEE) of type+payload. Replay
// stops at the first torn or corrupt record and truncates the file there, so
// a crash mid-append costs at most the record being written, never the log.
// Appends are not fsynced: the target failure is a process restart (the
// swarm's kill/restart churn), not a power loss.
const (
	walMagic      = "BARTWAL1"
	walTypDeposit = 1
	walTypFlag    = 2
	walDepositLen = 32 // u64 exchange + u32 sender + u32 object + 16-byte key
	walFlagLen    = 8  // u32 peer + u32 delta
)

type wal struct {
	f *os.File
	// err remembers the first append failure: the shard keeps serving from
	// memory (degraded durability) but the loss is recorded and reported,
	// never silently swallowed. Guarded by the owning shard's mutex, like
	// every append.
	err     error
	dropped int // records lost since err: the shard's Counts.WALLost
}

// walDeposit is one replayed escrow record.
type walDeposit struct {
	exchange uint64
	sender   core.PeerID
	object   catalog.ObjectID
	key      [16]byte
}

// walPath names shard index's log inside dir.
func walPath(dir string, index int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d.wal", index))
}

// openWAL opens or creates the log at path, replays every intact record into
// the callbacks, truncates whatever torn tail follows the last intact record,
// and leaves the file positioned for appending.
func openWAL(path string, onDeposit func(walDeposit), onFlag func(core.PeerID, uint32)) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	good := 0
	if len(data) >= len(walMagic) && string(data[:len(walMagic)]) == walMagic {
		good = len(walMagic)
		for {
			typ, payload, n := walParseRecord(data[good:])
			if n == 0 {
				break
			}
			switch typ {
			case walTypDeposit:
				d := walDeposit{
					exchange: binary.BigEndian.Uint64(payload[0:8]),
					sender:   core.PeerID(binary.BigEndian.Uint32(payload[8:12])),
					object:   catalog.ObjectID(binary.BigEndian.Uint32(payload[12:16])),
				}
				copy(d.key[:], payload[16:32])
				if onDeposit != nil {
					onDeposit(d)
				}
			case walTypFlag:
				if onFlag != nil {
					onFlag(core.PeerID(binary.BigEndian.Uint32(payload[0:4])), binary.BigEndian.Uint32(payload[4:8]))
				}
			}
			good += n
		}
	} else {
		// Empty or unrecognized: start a fresh log.
		if err := f.Truncate(0); err != nil {
			_ = f.Close()
			return nil, err
		}
		if _, err := f.WriteAt([]byte(walMagic), 0); err != nil {
			_ = f.Close()
			return nil, err
		}
		good = len(walMagic)
	}
	if good < len(data) {
		if err := f.Truncate(int64(good)); err != nil {
			_ = f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		_ = f.Close()
		return nil, err
	}
	return &wal{f: f}, nil
}

// walParseRecord decodes one record from the head of b, returning its type,
// payload, and total encoded length — or n == 0 if b starts with a torn,
// unknown, or corrupt record.
func walParseRecord(b []byte) (typ byte, payload []byte, n int) {
	if len(b) < 1 {
		return 0, nil, 0
	}
	var plen int
	switch b[0] {
	case walTypDeposit:
		plen = walDepositLen
	case walTypFlag:
		plen = walFlagLen
	default:
		return 0, nil, 0
	}
	total := 1 + plen + 4
	if len(b) < total {
		return 0, nil, 0
	}
	if crc32.ChecksumIEEE(b[:1+plen]) != binary.BigEndian.Uint32(b[1+plen:total]) {
		return 0, nil, 0
	}
	return b[0], b[1 : 1+plen], total
}

func (w *wal) appendDeposit(d walDeposit) {
	rec := make([]byte, 0, 1+walDepositLen+4)
	rec = append(rec, walTypDeposit)
	rec = binary.BigEndian.AppendUint64(rec, d.exchange)
	rec = binary.BigEndian.AppendUint32(rec, uint32(d.sender))
	rec = binary.BigEndian.AppendUint32(rec, uint32(d.object))
	rec = append(rec, d.key[:]...)
	w.append(rec)
}

func (w *wal) appendFlag(p core.PeerID, delta uint32) {
	rec := make([]byte, 0, 1+walFlagLen+4)
	rec = append(rec, walTypFlag)
	rec = binary.BigEndian.AppendUint32(rec, uint32(p))
	rec = binary.BigEndian.AppendUint32(rec, delta)
	w.append(rec)
}

// append seals the record with its checksum and writes it. A write failure
// (disk full, dir removed) degrades the shard to in-memory durability
// rather than failing the client request — but visibly: the first failure
// is remembered in err and announced on stderr, and every lost record is
// counted in dropped (the shard's Counts.WALLost, exchswarm's wal_lost=,
// which fails the run), so a restart that will forget state is never a
// surprise.
func (w *wal) append(rec []byte) {
	rec = binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec))
	if _, err := w.f.Write(rec); err != nil {
		w.dropped++
		if w.err == nil {
			w.err = err
			fmt.Fprintf(os.Stderr, "mediator: wal %s: append failed, degrading to in-memory durability: %v\n", w.f.Name(), err)
		}
	}
}

func (w *wal) Close() {
	if w != nil && w.f != nil {
		_ = w.f.Close()
	}
}
