package obs

import "testing"

// TestRing drives both ring element types — mutation events and kept
// request traces — through the Ring contract: Seq stamped under the
// lock and never renumbered across overwrite, newest-first Recent with
// its limit clamped at the retained boundary, the keep filter counting
// only kept records against the limit, and a capacity floor of one.
func TestRing(t *testing.T) {
	t.Run("MutationEvent", func(t *testing.T) {
		testRing(t,
			func(i int) MutationEvent { return MutationEvent{Kind: "document", PagesInvalidated: i} },
			func(e MutationEvent) int { return e.PagesInvalidated },
			func(e MutationEvent) bool { return e.PagesInvalidated%2 == 0 })
	})
	t.Run("TraceRecord", func(t *testing.T) {
		// The keep filter is the one /api/v1/traces?slow=1 applies.
		testRing(t,
			func(i int) TraceRecord { return TraceRecord{Path: "/p", Status: i, Slow: i%2 == 0} },
			func(r TraceRecord) int { return r.Status },
			func(r TraceRecord) bool { return r.Slow })
	})
}

// testRing checks one element type. mk builds the i-th record, id reads
// i back, and even keeps exactly the records with an even i.
func testRing[T sequenced[T]](t *testing.T, mk func(int) T, id func(T) int, even func(T) bool) {
	t.Helper()
	// fill records n records into a ring of the given capacity, checking
	// each returned stamp.
	fill := func(t *testing.T, capacity, n int) *Ring[T] {
		t.Helper()
		r := NewRing[T](capacity)
		for i := 0; i < n; i++ {
			if got := id(r.Record(mk(i))); got != i {
				t.Fatalf("Record #%d returned record %d", i, got)
			}
		}
		return r
	}
	// want checks that got holds exactly the records ids, in order, each
	// stamped with its own index as Seq.
	want := func(t *testing.T, what string, got []T, ids ...int) {
		t.Helper()
		if len(got) != len(ids) {
			t.Fatalf("%s: got %d records, want %d", what, len(got), len(ids))
		}
		for i, v := range got {
			if id(v) != ids[i] || seqOf(v) != uint64(ids[i]) {
				t.Errorf("%s[%d] = record %d seq %d, want %d", what, i, id(v), seqOf(v), ids[i])
			}
		}
	}

	t.Run("wraparound", func(t *testing.T) {
		r := fill(t, 3, 6)
		if r.Total() != 6 {
			t.Errorf("Total = %d, want 6", r.Total())
		}
		want(t, "Recent(0)", r.Recent(0, nil), 5, 4, 3)
		want(t, "Recent(2)", r.Recent(2, nil), 5, 4)
	})
	t.Run("limit_clamp", func(t *testing.T) {
		r := fill(t, 4, 9) // wrapped twice, retaining seqs 5..8
		for _, tc := range []struct{ limit, want int }{
			{0, 4},   // all retained
			{-1, 4},  // negative = all retained
			{2, 2},   // below the boundary
			{4, 4},   // exactly the boundary
			{5, 4},   // one past the boundary
			{100, 4}, // far past
		} {
			want(t, "Recent", r.Recent(tc.limit, nil), []int{8, 7, 6, 5}[:tc.want]...)
		}
	})
	t.Run("partially_filled", func(t *testing.T) {
		r := fill(t, 8, 0)
		want(t, "empty Recent(5)", r.Recent(5, nil))
		r = fill(t, 8, 2)
		want(t, "Recent(5)", r.Recent(5, nil), 1, 0)
	})
	t.Run("capacity_clamp", func(t *testing.T) {
		r := fill(t, 0, 2)
		want(t, "Recent(0)", r.Recent(0, nil), 1)
	})
	t.Run("keep_filter", func(t *testing.T) {
		r := fill(t, 4, 9) // retaining 5..8, of which 8 and 6 are kept
		want(t, "Recent(0, keep)", r.Recent(0, even), 8, 6)
		// The limit counts kept records: two of them, not two scanned.
		want(t, "Recent(2, keep)", r.Recent(2, even), 8, 6)
		want(t, "Recent(1, keep)", r.Recent(1, even), 8)
		if r.Total() != 9 {
			t.Errorf("Total = %d, want 9", r.Total())
		}
	})
}

// seqOf reads the Seq stamp of either ring element type.
func seqOf(v any) uint64 {
	switch x := v.(type) {
	case MutationEvent:
		return x.Seq
	case TraceRecord:
		return x.Seq
	}
	panic("seqOf: unknown ring element")
}

// TestEventRing: a mutation-event ring of 4 holding 6 records keeps the
// newest 4, Seq never renumbers, and Recent returns newest first.
func TestEventRing(t *testing.T) {
	r := NewRing[MutationEvent](4)
	for i := 0; i < 6; i++ {
		e := r.Record(MutationEvent{Kind: "structure-swap", PagesInvalidated: i})
		if e.Seq != uint64(i) {
			t.Fatalf("Record #%d stamped Seq %d", i, e.Seq)
		}
	}
	if r.Total() != 6 {
		t.Errorf("Total = %d, want 6", r.Total())
	}
	got := r.Recent(0, nil)
	if len(got) != 4 {
		t.Fatalf("Recent(0) len = %d, want 4", len(got))
	}
	for i, e := range got {
		if want := uint64(5 - i); e.Seq != want || e.PagesInvalidated != int(want) {
			t.Errorf("Recent[%d] = seq %d record %d, want %d", i, e.Seq, e.PagesInvalidated, want)
		}
	}
	if two := r.Recent(2, nil); len(two) != 2 || two[0].Seq != 5 || two[1].Seq != 4 {
		t.Errorf("Recent(2) = %+v", two)
	}
}

// TestEventRingWraparoundSeq: overwriting old events never renumbers —
// after 2×capacity records the retained window is the newest capacity
// seqs, contiguous and descending.
func TestEventRingWraparoundSeq(t *testing.T) {
	r := NewRing[MutationEvent](3)
	for i := 0; i < 6; i++ {
		if e := r.Record(MutationEvent{Kind: "document"}); e.Seq != uint64(i) {
			t.Fatalf("Record #%d stamped Seq %d", i, e.Seq)
		}
	}
	got := r.Recent(0, nil)
	if len(got) != 3 {
		t.Fatalf("Recent(0) len = %d, want 3", len(got))
	}
	for i, e := range got {
		if want := uint64(5 - i); e.Seq != want {
			t.Errorf("Recent[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
	if r.Total() != 6 {
		t.Errorf("Total = %d, want 6", r.Total())
	}
}
