package storage

import (
	"fmt"
	"math/bits"
	"sort"
)

// The columnar segment layer: after FinishLoad seals a table, every column
// is additionally held as a sequence of fixed-size encoded segments, each
// carrying a min/max zone map. The batch executor's scans read through this
// layer — pruning whole segments whose zone map disproves a predicate and
// decoding the survivors straight into its arena batches — while the flat
// Cols slices remain the random-access store for index builds, the
// sampling-based estimators, and the scalar oracle path.
//
// Encodings are chosen per segment at build time:
//
//   - dictionary: low-NDV segments store the sorted distinct values once
//     and bit-pack an index per row (a constant segment packs zero bits);
//   - frame-of-reference bit-packing: dense ranges store v-Min in the
//     fewest bits that fit the segment's spread;
//   - raw: wide segments alias the column slice directly (zero copy).

// DefaultSegmentRows is the production segment granularity: a multiple of
// the executor's batch size so serial scan chunks never straddle a segment,
// and small enough that one segment's decode scratch stays L1-resident.
const DefaultSegmentRows = 4096

// segmentRows is the build-time segment granularity. Tests shrink it (via
// SetSegmentRows) to exercise multi-segment pruning on tiny fixtures.
var segmentRows = DefaultSegmentRows

// SetSegmentRows overrides the segment granularity for tables sealed after
// the call and returns a function restoring the previous value. It is a test
// hook — production code seals at DefaultSegmentRows — and must not be
// called while loads or executions are in flight.
func SetSegmentRows(n int) (restore func()) {
	old := segmentRows
	if n < 1 {
		n = 1
	}
	segmentRows = n
	return func() { segmentRows = old }
}

// SegEncoding identifies how one segment stores its values.
type SegEncoding uint8

const (
	// EncRaw aliases the column slice unencoded.
	EncRaw SegEncoding = iota
	// EncDict stores sorted distinct values plus bit-packed indexes.
	EncDict
	// EncPack stores bit-packed frame-of-reference offsets from Min.
	EncPack
)

func (e SegEncoding) String() string {
	switch e {
	case EncRaw:
		return "raw"
	case EncDict:
		return "dict"
	case EncPack:
		return "pack"
	default:
		return fmt.Sprintf("SegEncoding(%d)", uint8(e))
	}
}

// dictMaxNDV bounds dictionary encoding: beyond this many distinct values a
// segment's dictionary stops paying for itself against plain bit-packing.
const dictMaxNDV = 256

// packMaxBits bounds frame-of-reference encoding: a spread needing more
// bits than this compresses too little to justify the decode work.
const packMaxBits = 32

// Segment is one fixed-size encoded run of a column with its zone map.
// Segments are immutable after construction and safe for concurrent reads.
type Segment struct {
	// Min and Max are the zone map: the smallest and largest value in the
	// segment. Scans prune the whole segment when a predicate cannot hold
	// anywhere in [Min, Max].
	Min, Max int64

	rows   int
	enc    SegEncoding
	raw    []int64  // EncRaw: aliases the sealed column slice
	dict   []int64  // EncDict: sorted distinct values
	packed []uint64 // EncDict codes or EncPack offsets, width bits each
	width  uint     // bits per packed value; 0 encodes a constant segment
}

// Rows reports the number of values in the segment.
func (s *Segment) Rows() int { return s.rows }

// Encoding reports the segment's storage encoding.
func (s *Segment) Encoding() SegEncoding { return s.enc }

// EncodedBits reports the packed bits per value (0 for raw and constant
// segments); tests and the storage benchmark use it to assert compression.
func (s *Segment) EncodedBits() uint {
	if s.enc == EncRaw {
		return 64
	}
	return s.width
}

// Get returns value i. Constant-width arithmetic for every encoding, so
// scattered access (index-scan residual filters, sparse gathers) stays O(1).
func (s *Segment) Get(i int) int64 {
	switch s.enc {
	case EncRaw:
		return s.raw[i]
	case EncDict:
		return s.dict[s.code(i)]
	default:
		return s.Min + int64(s.code(i))
	}
}

// code extracts packed value i (width > 0 may straddle a word boundary).
func (s *Segment) code(i int) uint64 {
	w := s.width
	if w == 0 {
		return 0
	}
	bit := uint(i) * w
	word, off := bit>>6, bit&63
	v := s.packed[word] >> off
	if off+w > 64 {
		v |= s.packed[word+1] << (64 - off)
	}
	return v & (1<<w - 1)
}

// DecodeRange materializes values [lo, hi) of the segment. Raw segments
// return a zero-copy subslice; encoded segments decode into dst (grown as
// needed) and return it. The result is read-only and valid until dst is
// reused.
func (s *Segment) DecodeRange(dst []int64, lo, hi int) []int64 {
	if s.enc == EncRaw {
		return s.raw[lo:hi]
	}
	n := hi - lo
	if cap(dst) < n {
		dst = make([]int64, n)
	}
	dst = dst[:n]
	switch {
	case s.width == 0:
		c := s.Min
		if s.enc == EncDict {
			c = s.dict[0]
		}
		for i := range dst {
			dst[i] = c
		}
	case s.enc == EncDict:
		for i := range dst {
			dst[i] = s.dict[s.code(lo+i)]
		}
	default:
		for i := range dst {
			dst[i] = s.Min + int64(s.code(lo+i))
		}
	}
	return dst
}

// Gather writes Get(int(rids[k])-base) into dst[k*stride] for each k — the
// late-materialization primitive: the executor hands it a selection vector
// of absolute row ids plus the segment's base row, and only the selected
// values are ever decoded. The encoding switch sits outside the loop so
// each case is a tight copy or unpack loop.
func (s *Segment) Gather(dst []int64, stride int, rids []int32, base int) {
	switch {
	case s.enc == EncRaw:
		for k, r := range rids {
			dst[k*stride] = s.raw[int(r)-base]
		}
	case s.width == 0:
		c := s.Min
		if s.enc == EncDict {
			c = s.dict[0]
		}
		for k := range rids {
			dst[k*stride] = c
		}
	case s.enc == EncDict:
		for k, r := range rids {
			dst[k*stride] = s.dict[s.code(int(r)-base)]
		}
	default:
		for k, r := range rids {
			dst[k*stride] = s.Min + int64(s.code(int(r)-base))
		}
	}
}

// buildSegment encodes one run of column values. vals must stay immutable
// for the segment's lifetime (EncRaw aliases it).
func buildSegment(vals []int64) *Segment {
	s := &Segment{rows: len(vals)}
	if len(vals) == 0 {
		s.enc = EncRaw
		return s
	}
	mn, mx := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	s.Min, s.Max = mn, mx
	if mn == mx {
		// Constant segment: zero packed bits, dictionary of one.
		s.enc, s.dict, s.width = EncDict, []int64{mn}, 0
		return s
	}

	// Distinct values up to the dictionary cutoff; one pass, abandoned the
	// moment the segment proves too diverse.
	distinct := make(map[int64]uint64, dictMaxNDV)
	for _, v := range vals {
		if _, ok := distinct[v]; !ok {
			if len(distinct) == dictMaxNDV {
				distinct = nil
				break
			}
			distinct[v] = 0
		}
	}

	spread := uint64(mx) - uint64(mn)
	packBits := uint(bits.Len64(spread))
	if distinct != nil {
		dictBits := uint(bits.Len64(uint64(len(distinct) - 1)))
		// Dictionary wins when its codes are strictly narrower than the
		// frame-of-reference offsets; ties go to pack (no dictionary to
		// chase on decode).
		if dictBits < packBits || packBits > packMaxBits {
			s.enc = EncDict
			s.dict = make([]int64, 0, len(distinct))
			for v := range distinct { //detlint:ignore — sorted immediately below
				s.dict = append(s.dict, v)
			}
			sort.Slice(s.dict, func(i, j int) bool { return s.dict[i] < s.dict[j] })
			for i, v := range s.dict {
				distinct[v] = uint64(i)
			}
			s.width = dictBits
			s.packed = packAll(vals, s.width, func(v int64) uint64 { return distinct[v] })
			return s
		}
	}
	if packBits <= packMaxBits {
		s.enc, s.width = EncPack, packBits
		s.packed = packAll(vals, s.width, func(v int64) uint64 { return uint64(v) - uint64(mn) })
		return s
	}
	s.enc, s.raw = EncRaw, vals
	return s
}

// packAll bit-packs code(v) for every value at the given width.
func packAll(vals []int64, width uint, code func(int64) uint64) []uint64 {
	if width == 0 {
		return nil
	}
	packed := make([]uint64, (uint(len(vals))*width+63)/64+1)
	for i, v := range vals {
		c := code(v)
		bit := uint(i) * width
		word, off := bit>>6, bit&63
		packed[word] |= c << off
		if off+width > 64 {
			packed[word+1] |= c >> (64 - off)
		}
	}
	return packed
}
