package obs

import "sync"

// sequenced is a Ring element: a record that carries its own sequence
// stamp.
type sequenced[T any] interface{ withSeq(uint64) T }

// Ring is a bounded ring of the most recent records — mutation events
// (MutationEvent) or kept request traces (TraceRecord). Records arrive
// at control-plane or sampled rates, not per request, so a plain mutex
// is the right tool. Each record is stamped with a sequence number
// under the lock; the ring drops old records but never renumbers.
type Ring[T sequenced[T]] struct {
	mu   sync.Mutex
	buf  []T
	next uint64 // total records ever stored
}

// NewRing returns a ring holding the last capacity records (at least
// one).
func NewRing[T sequenced[T]](capacity int) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring[T]{buf: make([]T, 0, capacity)}
}

// Record stamps v with the next sequence number and stores it,
// returning the stamped record. The caller sets every other field.
func (r *Ring[T]) Record(v T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	seq := r.next
	v = v.withSeq(seq)
	r.next++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
	} else {
		r.buf[seq%uint64(cap(r.buf))] = v
	}
	return v
}

// Recent returns up to limit retained records, newest first. A non-nil
// keep filters the records, and the limit counts kept ones only.
// limit <= 0 means all retained (kept) records.
func (r *Ring[T]) Recent(limit int, keep func(T) bool) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.buf)
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]T, 0, limit)
	for i := 0; i < n && len(out) < limit; i++ {
		v := r.buf[(r.next-1-uint64(i))%uint64(cap(r.buf))]
		if keep == nil || keep(v) {
			out = append(out, v)
		}
	}
	return out
}

// Total reports how many records have ever been stored, including
// those the ring has since dropped.
func (r *Ring[T]) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}
