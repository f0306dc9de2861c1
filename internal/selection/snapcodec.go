package selection

// On-disk binary format for compiled selection snapshots.
//
// A Compiled set is flat arrays plus a dictionary, which makes it almost
// its own file format: the layout below writes each array as a raw
// little-endian section at an 8-byte-aligned offset, so a loader on a
// little-endian machine slices the file (or an mmap of it) in place and
// only the dictionary strings are materialized on the heap. Everything is
// checksummed with CRC-32C — the header, the section table, and each
// section payload — so a torn write or flipped bit is detected before a
// snapshot can serve a single query.
//
//	offset  size  field
//	0       8     magic "QBSNAP1\x00"
//	8       4     format version (uint32, = SnapshotVersion)
//	12      4     section count (uint32)
//	16      8     epoch (uint64)
//	24      4     database count (uint32)
//	28      4     term count (uint32)
//	32      8     posting count (uint64)
//	40      16    reserved (0)
//	56      4     CRC-32C of bytes [0, 56)
//	60      4     padding (0)
//	64      ...   section table: count × {id u32, crc u32, off u64, len u64},
//	              then table CRC-32C (u32), zero-padded to 8 bytes
//	...           section payloads, each at an 8-byte-aligned offset
//
// Sections (ids are stable; readers skip unknown ids, so the format can
// grow without a version bump as long as existing sections keep meaning):
//
//	1 names      u32 offsets[dbs+1], then concatenated name bytes
//	2 fprints    u64[dbs] model fingerprints (optional)
//	3 dict       u32 offsets[terms+1], then concatenated term bytes
//	4 docs       f64[dbs]
//	5 cw         f64[dbs]
//	7 poststart  i32[terms+1]
//	8 postdb     i32[postings]
//	9 postdf     f64[postings]
//
// Id 6 is retired and never reused: version 1 stored CORI's per-term idf
// there and avg_cw in header bytes 40..48. Both are derived from the rows
// and the cw column when a query is scored, so version 2 stores neither,
// and a version 1 file is refused like any other stale snapshot.
//
// All integers are little-endian. The encoder emits sections in id order
// with deterministic padding, so the byte stream is a pure function of the
// snapshot — the golden test pins it.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// SnapshotVersion is the current format version.
const SnapshotVersion = 2

var snapshotMagic = [8]byte{'Q', 'B', 'S', 'N', 'A', 'P', '1', 0}

// Section ids.
const (
	secNames     = 1
	secFprints   = 2
	secDict      = 3
	secDocs      = 4
	secCW        = 5
	secPostStart = 7
	secPostDB    = 8
	secPostDF    = 9
)

// sectionName labels section ids for diagnostics (cmd/lmtool snapshot).
func sectionName(id uint32) string {
	switch id {
	case secNames:
		return "names"
	case secFprints:
		return "fprints"
	case secDict:
		return "dict"
	case secDocs:
		return "docs"
	case secCW:
		return "cw"
	case secPostStart:
		return "poststart"
	case secPostDB:
		return "postdb"
	case secPostDF:
		return "postdf"
	}
	return fmt.Sprintf("unknown(%d)", id)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	snapHeaderSize  = 64
	snapEntrySize   = 24
	maxSnapSections = 64 // decode guard against corrupt counts
)

// Snapshot is a compiled model set plus the serving metadata that must
// survive a restart: the database names behind the compiled indices, the
// epoch the snapshot was stamped with, and (optionally) one fingerprint
// per database so a loader can detect that the persisted models moved on
// without it.
type Snapshot struct {
	Epoch        uint64
	Names        []string
	Fingerprints []uint64 // len == len(Names) when present, else nil
	Compiled     *Compiled
}

// AppendSnapshot encodes s in the versioned binary format, appending to
// dst (which is usually nil) and returning the extended slice.
func AppendSnapshot(dst []byte, s *Snapshot) ([]byte, error) {
	if s.Compiled == nil {
		return nil, fmt.Errorf("selection: snapshot has no compiled set")
	}
	// The format has no delta: a patched snapshot is written as its fold.
	c := s.Compiled.folded()
	terms := c.terms
	if len(s.Names) != c.n {
		return nil, fmt.Errorf("selection: snapshot has %d names for %d databases", len(s.Names), c.n)
	}
	if s.Fingerprints != nil && len(s.Fingerprints) != c.n {
		return nil, fmt.Errorf("selection: snapshot has %d fingerprints for %d databases", len(s.Fingerprints), c.n)
	}

	type section struct {
		id      uint32
		payload []byte
	}
	sections := []section{
		{secNames, encodeStringTable(s.Names)},
	}
	if s.Fingerprints != nil {
		sections = append(sections, section{secFprints, encodeUint64s(s.Fingerprints)})
	}
	sections = append(sections,
		section{secDict, encodeStringTable(terms)},
		section{secDocs, encodeFloat64s(c.docs)},
		section{secCW, encodeFloat64s(c.cw)},
		section{secPostStart, encodeInt32s(c.base.start)},
		section{secPostDB, encodeInt32s(c.base.db)},
		section{secPostDF, encodeFloat64s(c.base.df)},
	)

	base := len(dst)
	// Header.
	dst = append(dst, snapshotMagic[:]...)
	dst = appendU32(dst, SnapshotVersion)
	dst = appendU32(dst, uint32(len(sections)))
	dst = appendU64(dst, s.Epoch)
	dst = appendU32(dst, uint32(c.n))
	dst = appendU32(dst, uint32(len(terms)))
	dst = appendU64(dst, uint64(len(c.base.db)))
	dst = appendU64(dst, 0) // reserved
	dst = appendU64(dst, 0) // reserved
	dst = appendU32(dst, crc32.Checksum(dst[base:base+56], castagnoli))
	dst = appendU32(dst, 0) // pad to 64

	// Section table: offsets are assigned first (8-aligned, in id order),
	// then the table is emitted and checksummed.
	tableLen := len(sections)*snapEntrySize + 4
	off := uint64(snapHeaderSize + align8(tableLen))
	tableStart := len(dst)
	for _, sec := range sections {
		dst = appendU32(dst, sec.id)
		dst = appendU32(dst, crc32.Checksum(sec.payload, castagnoli))
		dst = appendU64(dst, off)
		dst = appendU64(dst, uint64(len(sec.payload)))
		off += uint64(align8(len(sec.payload)))
	}
	dst = appendU32(dst, crc32.Checksum(dst[tableStart:], castagnoli))
	dst = pad8(dst, base)

	for _, sec := range sections {
		dst = append(dst, sec.payload...)
		dst = pad8(dst, base)
	}
	return dst, nil
}

// EncodeSnapshot is AppendSnapshot into a fresh buffer.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	return AppendSnapshot(nil, s)
}

// DecodeSnapshot parses data (a full segment as written by AppendSnapshot)
// after verifying every checksum. On little-endian machines the numeric
// arrays of the returned Compiled alias data — the caller must keep data
// immutable and alive for the snapshot's lifetime (an mmap qualifies) — and
// for the lifetime of every snapshot patched from it, which keep sharing
// the decoded base table until a fold replaces it.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	hdr, secs, err := parseSnapshot(data, true)
	if err != nil {
		return nil, err
	}
	find := func(id uint32) []byte {
		for _, s := range secs {
			if s.id == id {
				return data[s.off : s.off+s.length]
			}
		}
		return nil
	}
	need := func(id uint32) ([]byte, error) {
		for _, s := range secs {
			if s.id == id {
				return data[s.off : s.off+s.length], nil
			}
		}
		return nil, fmt.Errorf("selection: snapshot missing section %s", sectionName(id))
	}

	nDBs, nTerms, nPost := int(hdr.dbs), int(hdr.terms), int(hdr.postings)
	c := &Compiled{n: nDBs}
	var snap Snapshot
	snap.Epoch = hdr.epoch
	snap.Compiled = c

	namesPayload, err := need(secNames)
	if err != nil {
		return nil, err
	}
	if snap.Names, err = decodeStringTable(namesPayload, nDBs, "names"); err != nil {
		return nil, err
	}
	if fp := find(secFprints); fp != nil {
		if len(fp) != 8*nDBs {
			return nil, fmt.Errorf("selection: fprints section is %d bytes, want %d", len(fp), 8*nDBs)
		}
		snap.Fingerprints = decodeUint64s(fp)
	}
	dictPayload, err := need(secDict)
	if err != nil {
		return nil, err
	}
	terms, err := decodeStringTable(dictPayload, nTerms, "dict")
	if err != nil {
		return nil, err
	}
	c.dict = newTermDict(nTerms)
	for i, t := range terms {
		if id, fresh := c.dict.intern(t); !fresh {
			return nil, fmt.Errorf("selection: dict term %d %q repeats term %d", i, t, id)
		}
	}
	c.terms = c.dict.view()
	if c.docs, err = sectionFloat64s(need, secDocs, nDBs); err != nil {
		return nil, err
	}
	if c.cw, err = sectionFloat64s(need, secCW, nDBs); err != nil {
		return nil, err
	}
	for i, w := range c.cw {
		// A collection size is a term count: CORI's avg_cw is their exact sum.
		if w < 0 || w >= 1<<53 || w != math.Trunc(w) {
			return nil, fmt.Errorf("selection: database %d has collection size %v", i, w)
		}
		c.sumCW += int64(w)
	}
	base := &csr{}
	c.base, c.postings = base, nPost
	if base.start, err = sectionInt32s(need, secPostStart, nTerms+1); err != nil {
		return nil, err
	}
	if base.db, err = sectionInt32s(need, secPostDB, nPost); err != nil {
		return nil, err
	}
	if base.df, err = sectionFloat64s(need, secPostDF, nPost); err != nil {
		return nil, err
	}

	// Structural validation: everything a scorer indexes with must be in
	// range, so a snapshot that passes decode can never panic at query
	// time. (Checksums catch accidents; this catches crafted input.)
	if len(base.start) == 0 || base.start[0] != 0 {
		return nil, fmt.Errorf("selection: poststart does not begin at 0")
	}
	for i := 1; i < len(base.start); i++ {
		if base.start[i] < base.start[i-1] {
			return nil, fmt.Errorf("selection: poststart not monotonic at term %d", i)
		}
		if base.start[i] == base.start[i-1] {
			c.empty++ // the encoder writes none; the next fold drops it
		}
	}
	if int(base.start[len(base.start)-1]) != nPost {
		return nil, fmt.Errorf("selection: poststart ends at %d, want %d postings", base.start[len(base.start)-1], nPost)
	}
	for i, db := range base.db {
		if db < 0 || int(db) >= nDBs {
			return nil, fmt.Errorf("selection: posting %d references database %d of %d", i, db, nDBs)
		}
	}
	return &snap, nil
}

// SectionInfo describes one section of a snapshot segment for diagnostics.
type SectionInfo struct {
	ID     uint32
	Name   string
	Offset uint64
	Length uint64
	CRC    uint32
	OK     bool // payload checksum matched
}

// SnapshotInfo is the parsed header and section table of a segment.
type SnapshotInfo struct {
	Version  uint32
	Epoch    uint64
	DBs      uint32
	Terms    uint32
	Postings uint64
	Sections []SectionInfo
}

// InspectSnapshot parses the header and section table of a segment and
// verifies each section's checksum without building a Compiled — the
// debugging view behind `lmtool snapshot`. Unlike DecodeSnapshot it
// tolerates payload corruption (reporting it per section) but not a
// corrupt header or table, which it cannot interpret.
func InspectSnapshot(data []byte) (*SnapshotInfo, error) {
	hdr, secs, err := parseSnapshot(data, false)
	if err != nil {
		return nil, err
	}
	info := &SnapshotInfo{
		Version:  hdr.version,
		Epoch:    hdr.epoch,
		DBs:      hdr.dbs,
		Terms:    hdr.terms,
		Postings: hdr.postings,
	}
	for _, s := range secs {
		payload := data[s.off : s.off+s.length]
		info.Sections = append(info.Sections, SectionInfo{
			ID:     s.id,
			Name:   sectionName(s.id),
			Offset: s.off,
			Length: s.length,
			CRC:    s.crc,
			OK:     crc32.Checksum(payload, castagnoli) == s.crc,
		})
	}
	return info, nil
}

type snapHeader struct {
	version  uint32
	epoch    uint64
	dbs      uint32
	terms    uint32
	postings uint64
}

type snapSection struct {
	id     uint32
	crc    uint32
	off    uint64
	length uint64
}

// parseSnapshot validates the header and section table (always) and each
// section payload checksum (when verifyPayloads is set), returning
// bounds-checked section descriptors.
func parseSnapshot(data []byte, verifyPayloads bool) (snapHeader, []snapSection, error) {
	var hdr snapHeader
	if len(data) < snapHeaderSize {
		return hdr, nil, fmt.Errorf("selection: snapshot too short (%d bytes)", len(data))
	}
	if [8]byte(data[:8]) != snapshotMagic {
		return hdr, nil, fmt.Errorf("selection: bad snapshot magic %q", data[:8])
	}
	if got, want := binary.LittleEndian.Uint32(data[56:]), crc32.Checksum(data[:56], castagnoli); got != want {
		return hdr, nil, fmt.Errorf("selection: snapshot header checksum %08x, want %08x", got, want)
	}
	hdr.version = binary.LittleEndian.Uint32(data[8:])
	if hdr.version != SnapshotVersion {
		return hdr, nil, fmt.Errorf("selection: unsupported snapshot version %d (want %d)", hdr.version, SnapshotVersion)
	}
	count := binary.LittleEndian.Uint32(data[12:])
	hdr.epoch = binary.LittleEndian.Uint64(data[16:])
	hdr.dbs = binary.LittleEndian.Uint32(data[24:])
	hdr.terms = binary.LittleEndian.Uint32(data[28:])
	hdr.postings = binary.LittleEndian.Uint64(data[32:])
	if count > maxSnapSections {
		return hdr, nil, fmt.Errorf("selection: implausible section count %d", count)
	}
	tableLen := int(count)*snapEntrySize + 4
	if len(data) < snapHeaderSize+tableLen {
		return hdr, nil, fmt.Errorf("selection: snapshot truncated in section table")
	}
	table := data[snapHeaderSize : snapHeaderSize+int(count)*snapEntrySize]
	if got, want := binary.LittleEndian.Uint32(data[snapHeaderSize+int(count)*snapEntrySize:]),
		crc32.Checksum(table, castagnoli); got != want {
		return hdr, nil, fmt.Errorf("selection: section table checksum %08x, want %08x", got, want)
	}
	// Canonical layout: there is exactly one writer, and it lays sections
	// out back to back in table order, 8-aligned, with zero padding. The
	// parser demands that shape, which makes every byte of a segment
	// accounted for — covered by the header CRC, the table CRC, a section
	// CRC, or a must-be-zero pad — so no flipped bit anywhere survives
	// undetected.
	if !allZero(data[40:56]) || !allZero(data[60:snapHeaderSize]) {
		return hdr, nil, fmt.Errorf("selection: nonzero reserved header bytes")
	}
	expect := uint64(snapHeaderSize + align8(tableLen))
	if !allZero(data[snapHeaderSize+tableLen : expect]) {
		return hdr, nil, fmt.Errorf("selection: nonzero section table padding")
	}
	secs := make([]snapSection, count)
	for i := range secs {
		e := table[i*snapEntrySize:]
		secs[i] = snapSection{
			id:     binary.LittleEndian.Uint32(e),
			crc:    binary.LittleEndian.Uint32(e[4:]),
			off:    binary.LittleEndian.Uint64(e[8:]),
			length: binary.LittleEndian.Uint64(e[16:]),
		}
		s := secs[i]
		if s.off != expect || s.length > uint64(len(data))-s.off {
			return hdr, nil, fmt.Errorf("selection: section %s [%d, +%d) breaks canonical layout (want offset %d in segment of %d)",
				sectionName(s.id), s.off, s.length, expect, len(data))
		}
		expect = s.off + uint64(align8(int(s.length)))
		if expect > uint64(len(data)) {
			return hdr, nil, fmt.Errorf("selection: section %s overruns the segment", sectionName(s.id))
		}
		if !allZero(data[s.off+s.length : expect]) {
			return hdr, nil, fmt.Errorf("selection: nonzero padding after section %s", sectionName(s.id))
		}
		if verifyPayloads {
			payload := data[s.off : s.off+s.length]
			if got := crc32.Checksum(payload, castagnoli); got != s.crc {
				return hdr, nil, fmt.Errorf("selection: section %s checksum %08x, want %08x",
					sectionName(s.id), got, s.crc)
			}
		}
	}
	if expect != uint64(len(data)) {
		return hdr, nil, fmt.Errorf("selection: %d trailing bytes after the last section", uint64(len(data))-expect)
	}
	return hdr, secs, nil
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// --- payload encoders -------------------------------------------------

func appendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func align8(n int) int { return (n + 7) &^ 7 }

// pad8 zero-pads dst so its length relative to base is 8-byte aligned.
func pad8(dst []byte, base int) []byte {
	for (len(dst)-base)%8 != 0 {
		dst = append(dst, 0)
	}
	return dst
}

// encodeStringTable lays out strings as u32 end-offsets followed by the
// concatenated bytes: offsets[0] = 0, offsets[i+1] = end of string i.
func encodeStringTable(strs []string) []byte {
	total := 0
	for _, s := range strs {
		total += len(s)
	}
	out := make([]byte, 0, 4*(len(strs)+1)+total)
	out = appendU32(out, 0)
	end := uint32(0)
	for _, s := range strs {
		end += uint32(len(s))
		out = appendU32(out, end)
	}
	for _, s := range strs {
		out = append(out, s...)
	}
	return out
}

// decodeStringTable parses an encodeStringTable payload with n entries.
// The blob is converted to a string once; entries are substrings of it, so
// the dictionary costs one allocation plus the map.
func decodeStringTable(payload []byte, n int, what string) ([]string, error) {
	offBytes := 4 * (n + 1)
	if n < 0 || len(payload) < offBytes {
		return nil, fmt.Errorf("selection: %s section is %d bytes, too short for %d offsets", what, len(payload), n+1)
	}
	blob := string(payload[offBytes:])
	prev := binary.LittleEndian.Uint32(payload)
	if prev != 0 {
		return nil, fmt.Errorf("selection: %s offsets do not begin at 0", what)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		end := binary.LittleEndian.Uint32(payload[4*(i+1):])
		if end < prev || int(end) > len(blob) {
			return nil, fmt.Errorf("selection: %s offset %d out of order or out of range", what, i+1)
		}
		out[i] = blob[prev:end]
		prev = end
	}
	if int(prev) != len(blob) {
		return nil, fmt.Errorf("selection: %s blob has %d trailing bytes", what, len(blob)-int(prev))
	}
	return out, nil
}

func encodeFloat64s(vals []float64) []byte {
	out := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		out = appendU64(out, math.Float64bits(v))
	}
	return out
}

func encodeInt32s(vals []int32) []byte {
	out := make([]byte, 0, 4*len(vals))
	for _, v := range vals {
		out = appendU32(out, uint32(v))
	}
	return out
}

func encodeUint64s(vals []uint64) []byte {
	out := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		out = appendU64(out, v)
	}
	return out
}

func decodeUint64s(payload []byte) []uint64 {
	out := make([]uint64, len(payload)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(payload[8*i:])
	}
	return out
}

// sectionFloat64s returns section id as a []float64 of length n — a
// zero-copy view when the platform allows, a decoded heap copy otherwise.
func sectionFloat64s(need func(uint32) ([]byte, error), id uint32, n int) ([]float64, error) {
	payload, err := need(id)
	if err != nil {
		return nil, err
	}
	if len(payload) != 8*n {
		return nil, fmt.Errorf("selection: %s section is %d bytes, want %d", sectionName(id), len(payload), 8*n)
	}
	if v := castFloat64(payload); v != nil {
		return v, nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return out, nil
}

// sectionInt32s is sectionFloat64s for []int32 sections.
func sectionInt32s(need func(uint32) ([]byte, error), id uint32, n int) ([]int32, error) {
	payload, err := need(id)
	if err != nil {
		return nil, err
	}
	if len(payload) != 4*n {
		return nil, fmt.Errorf("selection: %s section is %d bytes, want %d", sectionName(id), len(payload), 4*n)
	}
	if v := castInt32(payload); v != nil {
		return v, nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	return out, nil
}
