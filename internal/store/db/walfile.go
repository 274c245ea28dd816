package db

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// The WAL file format: a header, then one frame per log record.
//
//	file    = walMagic frame*
//	frame   = word:u32le payload crc:u32le
//	payload = kind:byte txid:uvarint table:string key:varint body
//	string  = len:uvarint bytes
//
// The frame word holds the payload length in its low 24 bits and a check
// of those bits in its top byte (frameWord), so a damaged length reads as
// corruption rather than as a frame running past the end of the file. crc
// is the IEEE CRC32 of the payload, the checksum the session bricks use.
// body depends on kind: for insert and update, the row as a uvarint
// column count and per column a name string, a type tag and the value
// (int64 as a varint, string as a string, float64 as its 8 IEEE 754 bytes
// little-endian, bool and nil in the tag alone); for create-table, the
// schema as JSON; nothing otherwise.
//
// A process crash can only cut the file short, so LoadWAL treats a final
// frame cut off by the end of the input as a torn tail and drops it.
// Anything else that does not decode — a bad CRC, a damaged or oversized
// length, a malformed payload, a missing header — is corruption, which
// LoadWAL reports instead of truncating the log there.
const (
	walMagic = "MRBWAL\x00\x01" // format version in the last byte
	// maxFrame bounds a frame's payload. LoadWAL never allocates past it
	// on a length it has not yet read the data for, and a commit whose
	// record could not fit fails before it installs anything.
	maxFrame = 1 << 20
)

// Column value tags.
const (
	tagNil byte = iota
	tagInt
	tagStr
	tagFloat
	tagFalse
	tagTrue
)

// ErrCorruptWAL reports a WAL file that is damaged somewhere other than a
// torn final frame.
var ErrCorruptWAL = errors.New("db: corrupt WAL file")

// frameWord packs a payload length (< 1<<24) with its check byte.
func frameWord(n uint32) uint32 {
	return n | uint32(byte(n)^byte(n>>8)^byte(n>>16)^0xA5)<<24
}

func badValue(col string, v any) error {
	return fmt.Errorf("%w: column %s holds a %T, which is not a Row value", ErrBadValue, col, v)
}

// checkRecord reports whether rec can be framed: every row value is one
// of the Row contract's types, and the record fits maxFrame (checked
// against an upper bound of its encoded size).
func checkRecord(rec *walRecord) error {
	size := len(rec.Table) + 4*binary.MaxVarintLen64
	for k, v := range rec.Row {
		size += len(k) + 2*binary.MaxVarintLen64 + 1
		switch v := v.(type) {
		case nil, int64, float64, bool:
		case string:
			size += len(v)
		default:
			return badValue(k, v)
		}
	}
	if size > maxFrame {
		return fmt.Errorf("%w: a %d-byte %s row exceeds the WAL frame limit of %d bytes", ErrBadValue, size, rec.Table, maxFrame)
	}
	return nil
}

func appendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// appendFrame appends rec to buf as one frame. It fails only on what
// checkRecord rejects, leaving buf as it was.
func appendFrame(buf []byte, rec *walRecord) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, byte(rec.Kind))
	buf = binary.AppendUvarint(buf, rec.TxID)
	buf = appendString(buf, rec.Table)
	buf = binary.AppendVarint(buf, rec.Key)
	switch rec.Kind {
	case recCreateTable:
		js, err := json.Marshal(rec.Schema)
		if err != nil {
			return buf[:start], fmt.Errorf("db: encoding schema of %s: %w", rec.Table, err)
		}
		buf = append(buf, js...)
	case recInsert, recUpdate:
		buf = binary.AppendUvarint(buf, uint64(len(rec.Row)))
		for k, v := range rec.Row {
			buf = appendString(buf, k)
			switch v := v.(type) {
			case nil:
				buf = append(buf, tagNil)
			case int64:
				buf = binary.AppendVarint(append(buf, tagInt), v)
			case string:
				buf = appendString(append(buf, tagStr), v)
			case float64:
				buf = binary.LittleEndian.AppendUint64(append(buf, tagFloat), math.Float64bits(v))
			case bool:
				if v {
					buf = append(buf, tagTrue)
				} else {
					buf = append(buf, tagFalse)
				}
			default:
				return buf[:start], badValue(k, v)
			}
		}
	}
	n := len(buf) - start - 4
	if n > maxFrame {
		return buf[:start], fmt.Errorf("%w: a %d-byte %s record exceeds the WAL frame limit of %d bytes", ErrBadValue, n, rec.Table, maxFrame)
	}
	binary.LittleEndian.PutUint32(buf[start:], frameWord(uint32(n)))
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start+4:])), nil
}

// LoadWAL reads a WAL file back into a fresh WAL — the crash-safe startup
// path of a process whose previous incarnation mirrored its log to disk.
// Every frame's CRC is verified and column values decode straight to the
// Row contract's types; column and table names are interned, so the
// replayed rows share their key strings.
//
// offset is the end of the last complete frame. It is short of the input
// only when the final frame was cut off by the end of the input (a crash
// mid-write); the caller truncates the file there before appending. Any
// other damage is an error wrapping ErrCorruptWAL, and the caller should
// keep the file and refuse to start. An empty input, or a prefix of the
// header, loads as an empty log at offset 0. Commit-mark atomicity is
// untouched: a transaction whose mark fell in the torn tail is simply
// never replayed.
func LoadWAL(r io.Reader) (w *WAL, offset int64, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var hdr [len(walMagic)]byte
	n, err := io.ReadFull(br, hdr[:])
	if string(hdr[:n]) != walMagic[:n] {
		return nil, 0, fmt.Errorf("%w: no WAL header (a log from an older build, or not a WAL file)", ErrCorruptWAL)
	}
	if cutShort(err) {
		return &WAL{}, 0, nil // empty, or the first write was torn inside the header
	}
	if err != nil {
		return nil, 0, fmt.Errorf("db: reading WAL: %w", err)
	}
	offset = int64(len(walMagic))
	w = &WAL{}
	names := map[string]string{}
	var buf []byte
	for {
		var word [4]byte
		if _, err := io.ReadFull(br, word[:]); err != nil {
			if cutShort(err) {
				return w, offset, nil
			}
			return nil, offset, fmt.Errorf("db: reading WAL: %w", err)
		}
		h := binary.LittleEndian.Uint32(word[:])
		n := h & (1<<24 - 1)
		if frameWord(n) != h {
			return nil, offset, fmt.Errorf("%w: frame at offset %d has a damaged length word %#08x", ErrCorruptWAL, offset, h)
		}
		if n > maxFrame {
			return nil, offset, fmt.Errorf("%w: frame at offset %d claims %d bytes, over the %d-byte limit", ErrCorruptWAL, offset, n, maxFrame)
		}
		if buf, err = readFrame(br, buf, int(n)+4); err != nil {
			if cutShort(err) {
				return w, offset, nil // torn tail
			}
			return nil, offset, fmt.Errorf("db: reading WAL: %w", err)
		}
		payload := buf[:n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[n:]) {
			return nil, offset, fmt.Errorf("%w: frame at offset %d fails its CRC", ErrCorruptWAL, offset)
		}
		rec, err := decodeRecord(payload, names)
		if err != nil {
			return nil, offset, fmt.Errorf("%w: frame at offset %d: %v", ErrCorruptWAL, offset, err)
		}
		w.records = append(w.records, rec)
		offset += int64(n) + 8
	}
}

// cutShort reports whether a read failed only because the input ended.
func cutShort(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// readFrame reads n bytes into buf, which is reused across frames. It
// grows buf only as the data arrives, so a length word claiming more
// than the input holds costs no more memory than the input does.
func readFrame(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		step := min(n-len(buf), max(len(buf), 64<<10))
		buf = slices.Grow(buf, step)
		m, err := io.ReadFull(r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// payloadReader decodes one frame payload. A read past the end or a
// malformed varint sets bad and empties the input, so every later read
// returns a zero value; the caller checks bad once at the end.
type payloadReader struct {
	b   []byte
	bad bool
}

func (p *payloadReader) fail() {
	p.bad = true
	p.b = nil
}

func (p *payloadReader) byte() byte {
	if len(p.b) == 0 {
		p.fail()
		return 0
	}
	c := p.b[0]
	p.b = p.b[1:]
	return c
}

func (p *payloadReader) uvarint() uint64 {
	v, n := binary.Uvarint(p.b)
	if n <= 0 {
		p.fail()
		return 0
	}
	p.b = p.b[n:]
	return v
}

func (p *payloadReader) varint() int64 {
	v, n := binary.Varint(p.b)
	if n <= 0 {
		p.fail()
		return 0
	}
	p.b = p.b[n:]
	return v
}

func (p *payloadReader) bytes() []byte {
	n := p.uvarint()
	if n > uint64(len(p.b)) {
		p.fail()
		return nil
	}
	s := p.b[:n]
	p.b = p.b[n:]
	return s
}

func (p *payloadReader) float() float64 {
	if len(p.b) < 8 {
		p.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(p.b))
	p.b = p.b[8:]
	return v
}

// intern returns the canonical copy of name, so every replayed row shares
// one string per column name.
func intern(names map[string]string, b []byte) string {
	if s, ok := names[string(b)]; ok {
		return s
	}
	s := string(b)
	names[s] = s
	return s
}

// decodeRecord decodes one frame payload (see the format above).
func decodeRecord(b []byte, names map[string]string) (walRecord, error) {
	p := payloadReader{b: b}
	rec := walRecord{Kind: recKind(p.byte()), TxID: p.uvarint()}
	rec.Table = intern(names, p.bytes())
	rec.Key = p.varint()
	switch rec.Kind {
	case recCreateTable:
		if p.bad {
			break
		}
		rec.Schema = new(Schema)
		if err := json.Unmarshal(p.b, rec.Schema); err != nil {
			return rec, fmt.Errorf("schema of %q: %v", rec.Table, err)
		}
		p.b = nil
	case recInsert, recUpdate:
		n := p.uvarint()
		if n > uint64(len(p.b)/2) { // a column takes at least a name length and a tag
			p.fail()
			break
		}
		row := make(Row, n)
		for i := uint64(0); i < n && !p.bad; i++ {
			k := intern(names, p.bytes())
			switch p.byte() {
			case tagNil:
				row[k] = nil
			case tagInt:
				row[k] = p.varint()
			case tagStr:
				row[k] = string(p.bytes())
			case tagFloat:
				row[k] = p.float()
			case tagFalse:
				row[k] = false
			case tagTrue:
				row[k] = true
			default:
				p.fail()
			}
		}
		if len(row) != int(n) {
			p.fail() // a repeated column name
		}
		rec.Row = row
	case recDelete, recCommitMark:
	default:
		return rec, fmt.Errorf("unknown record kind %d", rec.Kind)
	}
	if p.bad || len(p.b) != 0 {
		return rec, errors.New("malformed payload")
	}
	return rec, nil
}
