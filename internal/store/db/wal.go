package db

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// recKind enumerates WAL record kinds.
type recKind int

const (
	recCreateTable recKind = iota
	recInsert
	recUpdate
	recDelete
	recCommitMark
)

// walRecord is one logical log entry. Table mutations are grouped under a
// commit mark; only marked groups are replayed by Recover, so a crash
// mid-commit never exposes partial transactions.
type walRecord struct {
	Kind   recKind
	Table  string
	Key    int64
	Row    Row
	Schema *Schema
	TxID   uint64
}

// ErrSinkFailed wraps the error of a failed sink flush. The WAL latches
// the first one: the committers of that batch and every commit after it
// get it back.
var ErrSinkFailed = errors.New("db: WAL sink write failed")

// walBatch is one group commit: the records of every transaction that
// staged while the previous flush was in flight, written to the sink as a
// single buffered write. Staging happens under the same lock as appending
// to the in-memory log, so a batch's records are always the contiguous
// range [start, end) of that log — no copy needed. done is created lazily
// by the first follower and closes once the batch is on the sink (or has
// failed: err is set before done closes).
type walBatch struct {
	start, end int
	done       chan struct{}
	err        error
}

// WAL is an append-only write-ahead log. Records live in memory and are
// optionally mirrored to an io.Writer in the framed binary format of
// walfile.go, for durability beyond the process (the experiments use the
// in-memory form; cmd/ebid-server attaches a file).
//
// Sink mirroring uses group commit: concurrent committers staging while a
// flush is in flight coalesce into one batch, and the whole batch reaches
// the sink with a single Write — one flush per batch instead of one per
// transaction. The in-memory record list is appended synchronously under
// w.mu, so replay order always equals commit order and Recover's
// semantics are unchanged; only the sink's flush boundary moves.
//
// A sink failure is not papered over: the flush's error goes to every
// committer in its batch, and the WAL latches it, so every later commit
// fails before installing anything. Memory past the failed batch no
// longer matches the file; the owner of the process should restart it
// from the file (see Failed).
type WAL struct {
	mu      sync.Mutex
	records []walRecord
	sink    io.Writer
	// needHeader is set until the file header has gone out with a
	// batch: NewWALWithSink starts a file, AttachSink continues one.
	needHeader bool
	// err is the latched sink failure; failed, once made by Failed,
	// closes when err is set.
	err    error
	failed chan struct{}
	// cur is the open batch the next stager joins; nil when the next
	// stager should lead a new batch. free is a spent batch available for
	// reuse (only batches no follower ever waited on). Guarded by mu.
	cur  *walBatch
	free *walBatch
	// window, when positive, is how long a batch leader lingers before
	// flushing so followers can pile in (group-commit window). Guarded by
	// mu.
	window time.Duration

	// flushMu serializes sink flushes; buf, the encoded batch, belongs to
	// the flusher and is reused across batches.
	flushMu sync.Mutex
	buf     []byte

	// group-commit stats, guarded by mu.
	batches  uint64
	flushed  uint64
	maxBatch int
}

// NewWAL returns an in-memory WAL.
func NewWAL() *WAL { return &WAL{} }

// NewWALWithSink returns a WAL that additionally mirrors every record to
// w, starting a new WAL file: the file header goes out with the first
// batch.
func NewWALWithSink(w io.Writer) *WAL {
	return &WAL{sink: w, needHeader: true}
}

// AttachSink starts mirroring records appended from here on to sink,
// which must continue the file LoadWAL read this log from (header
// included, truncated to LoadWAL's offset). Records already in the log
// are not rewritten.
func (w *WAL) AttachSink(sink io.Writer) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sink = sink
	w.needHeader = false
}

// Err returns the latched sink failure, or nil.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Failed returns a channel that is closed once a sink flush has failed
// (Err then says why). A process serving from this WAL watches it and
// exits, so its supervisor restarts it from the file instead of letting
// it serve state the file does not hold.
func (w *WAL) Failed() <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed == nil {
		w.failed = make(chan struct{})
		if w.err != nil {
			close(w.failed)
		}
	}
	return w.failed
}

// SetCommitWindow sets how long a group-commit leader waits for followers
// before flushing to the sink. Zero (the default) flushes immediately;
// batching then still happens whenever commits arrive while a flush is in
// flight.
func (w *WAL) SetCommitWindow(d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.window = d
}

// GroupCommitStats reports sink batching: batches flushed, records
// flushed, and the largest batch seen.
func (w *WAL) GroupCommitStats() (batches, records uint64, maxBatch int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.batches, w.flushed, w.maxBatch
}

// walWait is a pending sink flush: the staged batch plus this stager's
// role in it. The zero value waits for nothing, so the no-sink path needs
// no branch at the call sites. A value type — handing it back costs no
// allocation, unlike a wait closure.
type walWait struct {
	w      *WAL
	b      *walBatch
	leader bool
}

// Wait blocks until the staged records reach the sink — the batch leader
// performs the flush, followers ride it — and returns the flush's error.
// Callers must not hold database locks (that is what lets concurrent
// commits pile into the batch).
func (ww walWait) Wait() error {
	if ww.b == nil {
		return nil
	}
	if ww.leader {
		return ww.w.flushBatch(ww.b)
	}
	<-ww.b.done
	return ww.b.err
}

// append logs one record. The returned walWait blocks until the record
// reaches the sink (no-op when there is no sink); callers must invoke it
// without holding database locks. After a sink failure it logs nothing
// and returns the latched error.
func (w *WAL) append(rec walRecord) (walWait, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return walWait{}, w.err
	}
	w.records = append(w.records, rec)
	if w.sink == nil {
		return walWait{}, nil
	}
	return w.stageLocked(1), nil
}

// appendCommit writes a transaction's mutations followed by a commit mark,
// as one atomic group. The returned walWait is as for append. With a sink
// it first checks that every record can be framed (checkRecord), so a
// value the file cannot hold fails the commit before anything is logged
// or installed; after a sink failure it returns the latched error.
func (w *WAL) appendCommit(txID uint64, writes []walRecord) (walWait, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return walWait{}, w.err
	}
	if w.sink != nil {
		for i := range writes {
			if err := checkRecord(&writes[i]); err != nil {
				return walWait{}, err
			}
		}
	}
	for _, rec := range writes {
		rec.TxID = txID
		w.records = append(w.records, rec)
	}
	w.records = append(w.records, walRecord{Kind: recCommitMark, TxID: txID})
	if w.sink == nil {
		return walWait{}, nil
	}
	return w.stageLocked(len(writes) + 1), nil
}

// stageLocked queues the last n in-memory records for the sink. Caller
// holds w.mu. The first stager after a seal leads the batch (its Wait
// performs the flush); later stagers join and their Waits just block on
// the leader. Batch order equals staging order, so the sink's record
// order always matches the in-memory log.
func (w *WAL) stageLocked(n int) walWait {
	if b := w.cur; b != nil {
		b.end = len(w.records)
		if b.done == nil {
			b.done = make(chan struct{})
		}
		return walWait{w: w, b: b}
	}
	b := w.free
	if b == nil {
		b = &walBatch{}
	}
	w.free = nil
	b.start = len(w.records) - n
	b.end = len(w.records)
	b.done = nil
	b.err = nil
	w.cur = b
	w.batches++
	return walWait{w: w, b: b, leader: true}
}

// flushBatch is the leader's wait: linger for the commit window, seal the
// batch, encode it and push it to the sink in one write. flushMu makes
// flushes strictly sequential, so a new leader formed during this flush
// cannot overtake it, and a failure is latched before the next flush
// starts, so nothing is written past a failed batch.
func (w *WAL) flushBatch(b *walBatch) error {
	w.mu.Lock()
	window := w.window
	w.mu.Unlock()
	if window > 0 {
		time.Sleep(window)
	}
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	// Seal: stagers from here on start the next batch. No follower can
	// join after this point, so b's range and done channel are final.
	w.mu.Lock()
	if w.cur == b {
		w.cur = nil
	}
	recs := w.records[b.start:b.end]
	done := b.done
	err := w.err
	sink := w.sink
	header := w.needHeader
	w.needHeader = false
	w.mu.Unlock()
	if err == nil {
		if err = w.encode(header, recs); err == nil {
			_, err = sink.Write(w.buf)
		}
		if err != nil {
			err = fmt.Errorf("%w: %w", ErrSinkFailed, err)
		}
	}
	w.mu.Lock()
	if err != nil && w.err == nil {
		w.err = err
		if w.failed != nil {
			close(w.failed)
		}
	}
	if err == nil {
		w.flushed += uint64(len(recs))
		w.maxBatch = max(w.maxBatch, len(recs))
	}
	b.err = err
	if done == nil {
		// Nobody but this leader ever referenced b; recycle it.
		w.free = b
	}
	w.mu.Unlock()
	if done != nil {
		close(done)
	}
	return err
}

// encode frames recs into w.buf, after the file header when header is
// set. Caller holds flushMu.
func (w *WAL) encode(header bool, recs []walRecord) error {
	buf := w.buf[:0]
	if header {
		buf = append(buf, walMagic...)
	}
	var err error
	for i := range recs {
		if buf, err = appendFrame(buf, &recs[i]); err != nil {
			break
		}
	}
	w.buf = buf
	return err
}

// Len returns the number of records in the log.
func (w *WAL) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.records)
}

// committed returns the replayable prefix of the log: table creations plus
// mutation groups that reached their commit mark.
func (w *WAL) committed() []walRecord {
	w.mu.Lock()
	defer w.mu.Unlock()
	// First pass: find committed transaction ids.
	done := map[uint64]bool{}
	for _, rec := range w.records {
		if rec.Kind == recCommitMark {
			done[rec.TxID] = true
		}
	}
	out := make([]walRecord, 0, len(w.records))
	for _, rec := range w.records {
		switch rec.Kind {
		case recCreateTable:
			out = append(out, rec)
		case recInsert, recUpdate, recDelete:
			if done[rec.TxID] {
				out = append(out, rec)
			}
		}
	}
	return out
}

// TruncateTail drops the last n records, simulating log damage for
// crash-recovery testing.
func (w *WAL) TruncateTail(n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n > len(w.records) {
		n = len(w.records)
	}
	w.records = w.records[:len(w.records)-n]
}
