package yokan

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Write-ahead log for the LSM backend. Each record is:
//
//	u32 crc32(body) | u32 len(body) | body
//	body = op byte ('P' put, 'D' delete) | uvarint klen | key | uvarint vlen | val
//
// Deletes carry no value. Replay stops cleanly at the first torn record,
// which is the correct crash-recovery behaviour: everything before it was
// acknowledged only if the sync policy says so.
//
// The log is segmented: each active memtable has its own wal-NNNNNNNN.log
// segment, rotated when the memtable is swapped to the immutable flush
// queue. A segment is deleted only after the memtable it backs is durably
// flushed to an SSTable and committed to the manifest, so no acknowledged
// write ever has zero durable homes.
const (
	walOpPut = 'P'
	walOpDel = 'D'
)

// groupCommitWindow is how long a group-commit leader waits for riders
// before issuing the shared fsync.
var groupCommitWindow = 200 * time.Microsecond

type wal struct {
	path string
	// durable selects group commit: waitDurable elects a leader that syncs
	// once for every record written before it. Without it waitDurable
	// returns at once and durability comes from the next rotation (the
	// paper's ingest-once default).
	durable bool

	// mu guards the writer state (file, buffer, len).
	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	len    int64
	closed bool

	// Group-commit state: synced is the byte offset durably on disk,
	// leader marks that some waiter is currently collecting the group.
	gcMu   sync.Mutex
	gcCond *sync.Cond
	synced int64
	leader bool

	// appends / syncs are cumulative counters for the storage metrics:
	// group commit's whole point is syncs << appends under SyncWrites.
	appends int64
	syncs   int64
}

func openWAL(path string, durable bool) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("yokan: open wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	w := &wal{
		path:    path,
		durable: durable,
		f:       f,
		w:       bufio.NewWriterSize(f, 1<<16),
		len:     st.Size(),
		synced:  st.Size(),
	}
	w.gcCond = sync.NewCond(&w.gcMu)
	return w, nil
}

// append writes one record and returns the log offset its durability
// covers. The caller must invoke waitDurable(off) after releasing the
// database lock.
func (w *wal) append(op byte, key, val []byte) (int64, error) {
	body := make([]byte, 0, 1+2*binary.MaxVarintLen64+len(key)+len(val))
	body = append(body, op)
	body = binary.AppendUvarint(body, uint64(len(key)))
	body = append(body, key...)
	if op == walOpPut {
		body = binary.AppendUvarint(body, uint64(len(val)))
		body = append(body, val...)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], crc32.ChecksumIEEE(body))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(body)))

	w.mu.Lock()
	if _, err := w.w.Write(hdr[:]); err != nil {
		w.mu.Unlock()
		return 0, err
	}
	if _, err := w.w.Write(body); err != nil {
		w.mu.Unlock()
		return 0, err
	}
	w.len += int64(len(hdr) + len(body))
	off := w.len
	w.appends++
	w.mu.Unlock()
	return off, nil
}

// waitDurable blocks until the record ending at off is on disk; without
// durable it returns at once. A leader is elected among the waiters, sleeps a
// short window so concurrent appenders can pile on, then issues one fsync
// that acknowledges the whole group.
func (w *wal) waitDurable(off int64) error {
	if !w.durable {
		return nil
	}
	w.gcMu.Lock()
	for w.synced < off {
		if !w.leader {
			w.leader = true
			w.gcMu.Unlock()

			time.Sleep(groupCommitWindow)
			w.mu.Lock()
			var err error
			if w.closed {
				// Rotation closed this segment under the database lock;
				// its flush already fsynced everything we would cover.
			} else {
				err = w.w.Flush()
				if err == nil {
					err = w.f.Sync()
				}
				if err == nil {
					w.syncs++
				}
			}
			target := w.len
			w.mu.Unlock()

			w.gcMu.Lock()
			w.leader = false
			if err == nil {
				w.synced = target
			}
			w.gcCond.Broadcast()
			if err != nil {
				w.gcMu.Unlock()
				return err
			}
		} else {
			w.gcCond.Wait()
		}
	}
	w.gcMu.Unlock()
	return nil
}

// flush pushes buffered records to disk and fsyncs. Used at rotation: a
// swapped-out memtable's segment must be durable before the memtable is
// handed to the background flusher.
func (w *wal) flush() error {
	w.mu.Lock()
	var err error
	if !w.closed {
		err = w.w.Flush()
		if err == nil {
			err = w.f.Sync()
		}
		if err == nil {
			w.syncs++
		}
	}
	target := w.len
	w.mu.Unlock()
	if err != nil {
		return err
	}
	w.gcMu.Lock()
	if target > w.synced {
		w.synced = target
	}
	w.gcCond.Broadcast()
	w.gcMu.Unlock()
	return nil
}

// stats returns cumulative (appends, fsyncs).
func (w *wal) stats() (appends, syncs int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appends, w.syncs
}

func (w *wal) close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	err := w.w.Flush()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	target := w.len
	w.mu.Unlock()
	// Release any group-commit waiters; the buffer reached the OS.
	w.gcMu.Lock()
	if target > w.synced {
		w.synced = target
	}
	w.gcCond.Broadcast()
	w.gcMu.Unlock()
	return err
}

// walSegmentName formats the n-th segment file name.
func walSegmentName(n int) string {
	return fmt.Sprintf("wal-%08d.log", n)
}

// walSegments lists the WAL segments of dir in replay order (ascending
// number).
func walSegments(dir string) ([]string, error) {
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, err
	}
	sort.Strings(segs)
	return segs, nil
}

// replayWAL feeds every intact record to fn. It tolerates a truncated or
// corrupt tail (crash mid-append) by stopping there.
func replayWAL(path string, fn func(op byte, key, val []byte) error) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil // clean EOF or torn header: stop
		}
		crc := binary.LittleEndian.Uint32(hdr[0:])
		n := binary.LittleEndian.Uint32(hdr[4:])
		if n > maxWALRecord {
			return nil // corrupt length: stop
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			return nil // torn record: stop
		}
		if crc32.ChecksumIEEE(body) != crc {
			return nil // corrupt record: stop
		}
		op := body[0]
		rest := body[1:]
		klen, m := binary.Uvarint(rest)
		if m <= 0 || uint64(len(rest)-m) < klen {
			return nil
		}
		key := rest[m : m+int(klen)]
		var val []byte
		if op == walOpPut {
			rest = rest[m+int(klen):]
			vlen, m2 := binary.Uvarint(rest)
			if m2 <= 0 || uint64(len(rest)-m2) < vlen {
				return nil
			}
			val = rest[m2 : m2+int(vlen)]
		}
		if err := fn(op, key, val); err != nil {
			return err
		}
	}
}

const maxWALRecord = 1 << 28 // 256 MiB sanity cap per record
