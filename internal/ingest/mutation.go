// Package ingest is the live-ingestion subsystem: it accepts paper and
// citation mutations at runtime, makes them durable in a write-ahead log,
// and republishes AttRank rankings in the background without blocking
// readers — the missing piece between the immutable graph.Network that
// attrank-serve ranks at startup and the living corpus of a production
// scholarly search engine.
//
// Architecture (see DESIGN.md §"Live ingestion"):
//
//   - Mutation: one accepted write (a new paper or a new citation edge).
//   - WAL: an fsync'd, CRC-checked, length-prefixed record log. Every
//     mutation is durable before it is acknowledged.
//   - Ingester: the coordinator. It validates mutations against the
//     current corpus (base network + delta overlay), appends them to the
//     WAL, buffers them in the delta, and wakes the re-rank scheduler.
//   - Scheduler: a background goroutine that debounces mutations (rank
//     after K mutations or T elapsed, whichever first), compacts the
//     delta into a fresh immutable graph.Network via graph.NewBuilderFrom,
//     runs core.Tracker.Update (warm-started), and atomically swaps a
//     versioned Ranking for readers.
//   - Snapshot: the compacted network written atomically in the .anb
//     binary format; the WAL is then truncated. Recovery = snapshot +
//     WAL tail replay, and replay is idempotent, so a crash between
//     snapshot rename and WAL truncation is harmless.
package ingest

import (
	"encoding/binary"
	"fmt"
)

// Mutation kinds as stored in the WAL. Values are part of the on-disk
// format; never renumber.
const (
	KindPaper    byte = 1
	KindCitation byte = 2
	// KindEpoch is an epoch-commit marker, written by the re-rank
	// scheduler (never by clients): every mutation before the marker is
	// part of epoch Epoch's compaction, everything after belongs to a
	// later epoch. Markers are what make WAL shipping deterministic — a
	// follower that compacts exactly Count buffered mutations at each
	// marker and ranks at RankedAt reproduces the leader's warm-start
	// chain, and therefore its scores, bit for bit.
	KindEpoch byte = 3
)

// PaperMut adds one paper to the corpus.
type PaperMut struct {
	ID      string
	Year    int
	Authors []string
	Venue   string
}

// CitationMut adds one citation edge Citing→Cited. Both endpoints must
// already exist (in the base network, the delta, or earlier in the same
// batch).
type CitationMut struct {
	Citing, Cited string
}

// Epoch marker flag bits (EpochMark.Flags). Part of the on-disk format;
// never renumber.
const (
	// MarkPush marks an epoch published by the incremental push updater
	// instead of a full power-method rank. A follower keeps its
	// mutations buffered rather than compacting them, and publishes the
	// epoch from the leader's shipped scores.
	MarkPush byte = 1 << 0
	// MarkReconcile marks a full epoch that reconciles a preceding push
	// streak — its scores are exact again, and a follower compacts the
	// streak's citations at this boundary.
	MarkReconcile byte = 1 << 1
)

// EpochMark is the payload of a KindEpoch marker record.
type EpochMark struct {
	// Epoch is the ranking epoch this marker commits.
	Epoch uint64
	// RankedAt is the effective ranking time tN the leader used; a
	// follower checks the leader's shipped epoch against it, and derives
	// the epoch's impulse indicator with it.
	RankedAt int
	// Count is how many mutations since the previous marker belong to
	// this epoch. For a full epoch they are compacted; for a push epoch
	// (MarkPush) they stay buffered and are absorbed incrementally.
	Count uint32
	// Flags carries the push/full decision (MarkPush, MarkReconcile), so
	// a follower knows whether to compact at the marker. Markers written
	// before this field decode with Flags == 0, i.e. full epochs.
	Flags byte
}

// Mutation is one write: exactly one of Paper, Citation or Epoch is
// set, selected by Kind.
type Mutation struct {
	Kind     byte
	Paper    PaperMut
	Citation CitationMut
	Epoch    EpochMark
}

// encode appends the WAL payload encoding of m to buf and returns the
// extended slice. Layout: kind byte, then length-prefixed (u16) strings;
// the paper year is an i32 and the author count a u16, all little-endian.
func (m Mutation) encode(buf []byte) ([]byte, error) {
	putStr := func(s string) error {
		if len(s) > 0xFFFF {
			return fmt.Errorf("ingest: string field of %d bytes exceeds 65535", len(s))
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
		buf = append(buf, s...)
		return nil
	}
	buf = append(buf, m.Kind)
	switch m.Kind {
	case KindPaper:
		p := m.Paper
		if err := putStr(p.ID); err != nil {
			return nil, err
		}
		if int(int32(p.Year)) != p.Year {
			return nil, fmt.Errorf("ingest: year %d outside the 32-bit range", p.Year)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(p.Year)))
		if len(p.Authors) > 0xFFFF {
			return nil, fmt.Errorf("ingest: %d authors exceeds 65535", len(p.Authors))
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(p.Authors)))
		for _, a := range p.Authors {
			if err := putStr(a); err != nil {
				return nil, err
			}
		}
		if err := putStr(p.Venue); err != nil {
			return nil, err
		}
	case KindCitation:
		if err := putStr(m.Citation.Citing); err != nil {
			return nil, err
		}
		if err := putStr(m.Citation.Cited); err != nil {
			return nil, err
		}
	case KindEpoch:
		buf = binary.LittleEndian.AppendUint64(buf, m.Epoch.Epoch)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(m.Epoch.RankedAt)))
		buf = binary.LittleEndian.AppendUint32(buf, m.Epoch.Count)
		buf = append(buf, m.Epoch.Flags)
	default:
		return nil, fmt.Errorf("ingest: unknown mutation kind %d", m.Kind)
	}
	return buf, nil
}

// DecodeMutation parses one WAL record payload produced by the encoder —
// the hook internal/replication uses to decode shipped records on a
// follower.
func DecodeMutation(payload []byte) (Mutation, error) { return decodeMutation(payload) }

// WireSize returns the WAL bytes one record of m occupies (8-byte
// record header + payload). The encoding is deterministic, so a
// follower re-encoding shipped records into its own log can translate
// local offsets back into leader offsets record by record.
func (m Mutation) WireSize() (int64, error) {
	buf, err := m.encode(nil)
	if err != nil {
		return 0, err
	}
	return int64(8 + len(buf)), nil
}

// decodeMutation parses one WAL payload produced by encode.
func decodeMutation(payload []byte) (Mutation, error) {
	var m Mutation
	pos := 0
	getStr := func() (string, error) {
		if pos+2 > len(payload) {
			return "", fmt.Errorf("ingest: truncated string length")
		}
		n := int(binary.LittleEndian.Uint16(payload[pos:]))
		pos += 2
		if pos+n > len(payload) {
			return "", fmt.Errorf("ingest: truncated string body")
		}
		s := string(payload[pos : pos+n])
		pos += n
		return s, nil
	}
	if len(payload) == 0 {
		return m, fmt.Errorf("ingest: empty mutation payload")
	}
	m.Kind = payload[0]
	pos = 1
	switch m.Kind {
	case KindPaper:
		id, err := getStr()
		if err != nil {
			return m, err
		}
		if pos+4 > len(payload) {
			return m, fmt.Errorf("ingest: truncated paper year")
		}
		year := int32(binary.LittleEndian.Uint32(payload[pos:]))
		pos += 4
		if pos+2 > len(payload) {
			return m, fmt.Errorf("ingest: truncated author count")
		}
		count := int(binary.LittleEndian.Uint16(payload[pos:]))
		pos += 2
		var authors []string
		for i := 0; i < count; i++ {
			a, err := getStr()
			if err != nil {
				return m, err
			}
			authors = append(authors, a)
		}
		venue, err := getStr()
		if err != nil {
			return m, err
		}
		m.Paper = PaperMut{ID: id, Year: int(year), Authors: authors, Venue: venue}
	case KindCitation:
		citing, err := getStr()
		if err != nil {
			return m, err
		}
		cited, err := getStr()
		if err != nil {
			return m, err
		}
		m.Citation = CitationMut{Citing: citing, Cited: cited}
	case KindEpoch:
		if pos+16 > len(payload) {
			return m, fmt.Errorf("ingest: truncated epoch marker")
		}
		m.Epoch.Epoch = binary.LittleEndian.Uint64(payload[pos:])
		m.Epoch.RankedAt = int(int32(binary.LittleEndian.Uint32(payload[pos+8:])))
		m.Epoch.Count = binary.LittleEndian.Uint32(payload[pos+12:])
		pos += 16
		// Markers written before the push path carried no flags byte;
		// they decode as Flags == 0 (a plain full epoch).
		if pos < len(payload) {
			m.Epoch.Flags = payload[pos]
			pos++
		}
	default:
		return m, fmt.Errorf("ingest: unknown mutation kind %d", m.Kind)
	}
	if pos != len(payload) {
		return m, fmt.Errorf("ingest: %d trailing bytes in mutation payload", len(payload)-pos)
	}
	return m, nil
}
