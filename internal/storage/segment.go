package storage

// Zone maps: after FinishLoad seals a table, every column is cut into
// fixed-size segments, each carrying the min and max of its rows. The flat
// Cols slices stay the only copy of the data; a segment holds no values.
// The batch executor's scans test their predicates against the zone maps
// and skip the row ranges (sequential scans) or row ids (index scans) of
// every segment some predicate disproves, reading the survivors from Cols.

// DefaultSegmentRows is the production segment granularity: a multiple of
// the executor's batch size so scan chunks never straddle a segment, and
// fine enough that clustered predicates disprove most segments.
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

// Segment is the zone map of one fixed-size run of a column. Segments are
// immutable after construction and safe for concurrent reads.
type Segment struct {
	// Min and Max are the smallest and largest value in the segment. Scans
	// prune the whole segment when a predicate cannot hold anywhere in
	// [Min, Max].
	Min, Max int64

	rows int
}

// Rows reports the number of values in the segment.
func (s *Segment) Rows() int { return s.rows }

// buildSegment computes the zone map of one run of column values.
func buildSegment(vals []int64) *Segment {
	s := &Segment{rows: len(vals)}
	if len(vals) == 0 {
		return s
	}
	s.Min, s.Max = vals[0], vals[0]
	for _, v := range vals[1:] {
		s.Min = min(s.Min, v)
		s.Max = max(s.Max, v)
	}
	return s
}
