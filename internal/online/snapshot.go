// Durable snapshot state for the online plane: the exportable/restorable
// form of a Manager (deployed layout, drift reference, counters) and its
// Collector (rolling windows, cumulative extent histograms), plus the
// strict canonical binary codec the snapshot store persists them with.
// The codec follows the observation wire format's discipline (wire.go)
// and decodes through the same strict Reader (reader.go): little-endian,
// length-and-count prefixed, canonical object order — and the decoder
// rejects truncation, trailing bytes, non-finite or negative counts, and
// unsorted IDs, so decode(encode(s)) == s and encode(decode(b)) == b for
// every accepted input (FuzzDecodeSnapshot leans on the second identity).
package online

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
)

// CollectorState is a Collector's durable state: the closed-window ring,
// the partially filled current window, the lifetime window count, and the
// cumulative extent histograms with their bucket width. Every charge made
// before the export is in Cur, so the state is exact at the moment of
// capture.
type CollectorState struct {
	// Total is the lifetime closed-window count (ring evictions included).
	Total int64
	// ExtPages is the extent-histogram bucket width in pages.
	ExtPages int64
	// Cur is the current (not yet closed) window.
	Cur Window
	// Closed is the ring of closed windows, oldest first.
	Closed []Window
	// Extents holds the cumulative per-object extent histograms.
	Extents map[catalog.ObjectID][]float64
}

// ManagerState is a Manager's durable state: everything a restarted
// advisor needs to resume drift detection mid-window instead of starting
// cold — the deployed layout, the reference profile that layout was
// optimized for, the lifetime counters, and the collector's windows.
type ManagerState struct {
	// Layout is the deployed layout in class-set form (unit-granular at
	// partition granularity, like Manager.CurrentSetLayout).
	Layout catalog.SetLayout
	// HasRef reports whether an initial Advise anchored a reference; Ref
	// is only meaningful when set.
	HasRef bool
	// Ref is the reference window drift checks compare against.
	Ref Window
	// Stats are the manager's lifetime counters.
	Stats Stats
	// Collector is the rolling-window collector's state.
	Collector CollectorState
}

// ExportState captures the manager's durable state, exact at the moment of
// capture.
func (m *Manager) ExportState() ManagerState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := ManagerState{
		Layout: m.cur.Clone(),
		HasRef: m.hasRef,
		Stats:  m.stats,
	}
	if m.hasRef {
		st.Ref = m.ref.Clone()
	}
	st.Collector = m.col.ExportState()
	st.Stats.WindowsClosed = st.Collector.Total
	return st
}

// RestoreState replaces the manager's online state with a previously
// exported one, validating every ID and class against the manager's own
// catalogs (the unit catalog for the layout and reference at partition
// granularity, the base catalog for collector windows): a snapshot from a
// different schema is rejected whole, never partially applied.
func (m *Manager) RestoreState(st ManagerState) error {
	if err := m.validLayout(st.Layout); err != nil {
		return fmt.Errorf("online: restore layout: %w", err)
	}
	if st.HasRef {
		if err := validProfileIDs(st.Ref.Profile, m.cat); err != nil {
			return fmt.Errorf("online: restore reference window: %w", err)
		}
	}
	if err := validStats(st.Stats); err != nil {
		return fmt.Errorf("online: restore stats: %w", err)
	}
	base := m.cfg.Cat
	if err := validProfileIDs(st.Collector.Cur.Profile, base); err != nil {
		return fmt.Errorf("online: restore current window: %w", err)
	}
	for i, w := range st.Collector.Closed {
		if err := validProfileIDs(w.Profile, base); err != nil {
			return fmt.Errorf("online: restore closed window %d: %w", i, err)
		}
	}
	for id := range st.Collector.Extents {
		if base.Object(id) == nil {
			return fmt.Errorf("online: restore extents: object %d not in catalog", id)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.col.RestoreState(st.Collector); err != nil {
		return fmt.Errorf("online: restore collector: %w", err)
	}
	m.cur = st.Layout.Clone()
	m.hasRef = st.HasRef
	if st.HasRef {
		m.ref = st.Ref.Clone()
	} else {
		m.ref = Window{}
	}
	m.stats = st.Stats
	return nil
}

// validLayout checks a restored layout covers the manager's catalog
// exactly, with copy sets the box provisions and the manager's copy cap
// admits — the sets its searches can start from.
func (m *Manager) validLayout(l catalog.SetLayout) error {
	objs := m.cat.Objects()
	if len(l) != len(objs) {
		return fmt.Errorf("layout places %d objects, catalog has %d", len(l), len(objs))
	}
	avail := m.cfg.Box.Carried()
	for _, o := range objs {
		set, ok := l[o.ID]
		if !ok {
			return fmt.Errorf("object %q (%d) not placed", o.Name, o.ID)
		}
		if !set.Valid() {
			return fmt.Errorf("object %q placed on invalid class set %#x", o.Name, uint8(set))
		}
		if set&^avail != 0 {
			return fmt.Errorf("object %q placed on %v, not all in box %q", o.Name, set, m.cfg.Box.Name)
		}
		if set.Count() > m.cfg.Replication.Cap() {
			return fmt.Errorf("object %q holds %d copies, the manager's cap is %d", o.Name, set.Count(), m.cfg.Replication.Cap())
		}
	}
	return nil
}

// validProfileIDs checks every profiled object exists in cat.
func validProfileIDs(p iosim.Profile, cat *catalog.Catalog) error {
	for id := range p {
		if cat.Object(id) == nil {
			return fmt.Errorf("profiled object %d not in catalog", id)
		}
	}
	return nil
}

// validStats rejects negative lifetime counters.
func validStats(s Stats) error {
	if s.WindowsClosed < 0 || s.Checks < 0 || s.Drifts < 0 || s.ReAdvises < 0 || s.Fallbacks < 0 {
		return fmt.Errorf("negative counter in %+v", s)
	}
	return nil
}

// ExportState captures the collector's durable state.
func (c *Collector) ExportState() CollectorState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CollectorState{
		Total:    c.total,
		ExtPages: c.extPages,
		Cur:      c.cur.Clone(),
		Extents:  make(map[catalog.ObjectID][]float64, len(c.ext)),
	}
	for _, w := range c.closed {
		st.Closed = append(st.Closed, w.Clone())
	}
	for id, h := range c.ext {
		st.Extents[id] = append([]float64(nil), h...)
	}
	return st
}

// RestoreState replaces the collector's state (windows, histograms,
// counters) with a previously exported one; charges made before the
// restore are discarded with the replaced state. The ring keeps its
// configured capacity, dropping the oldest restored windows if the
// snapshot retained more.
func (c *Collector) RestoreState(st CollectorState) error {
	if st.Total < 0 {
		return fmt.Errorf("negative window total %d", st.Total)
	}
	if st.ExtPages < 1 {
		return fmt.Errorf("extent bucket width %d below 1 page", st.ExtPages)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	closed := st.Closed
	if len(closed) > c.max {
		closed = closed[len(closed)-c.max:]
	}
	c.closed = c.closed[:0]
	for _, w := range closed {
		c.closed = append(c.closed, w.Clone())
	}
	cur := st.Cur.Clone()
	if cur.Profile == nil {
		cur.Profile = iosim.NewProfile()
	}
	c.cur = cur
	c.total = st.Total
	c.extPages = st.ExtPages
	c.ext = make(map[catalog.ObjectID][]float64, len(st.Extents))
	for id, h := range st.Extents {
		c.ext[id] = append([]float64(nil), h...)
	}
	return nil
}

// AppendManagerState appends st's canonical binary encoding to dst and
// returns the extended slice. Maps are encoded in ascending ID order, so
// equal states encode to equal bytes.
func AppendManagerState(dst []byte, st ManagerState) []byte {
	dst = appendLayout(dst, st.Layout)
	if st.HasRef {
		dst = append(dst, 1)
		dst = appendWindow(dst, st.Ref)
	} else {
		dst = append(dst, 0)
	}
	for _, v := range [...]int64{st.Stats.WindowsClosed, st.Stats.Checks, st.Stats.Drifts, st.Stats.ReAdvises, st.Stats.Fallbacks, st.Collector.Total, st.Collector.ExtPages} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	dst = appendWindow(dst, st.Collector.Cur)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(st.Collector.Closed)))
	for _, w := range st.Collector.Closed {
		dst = appendWindow(dst, w)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(st.Collector.Extents)))
	for _, id := range sortedIDs(st.Collector.Extents) {
		h := st.Collector.Extents[id]
		dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(h)))
		for _, v := range h {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// DecodeManagerState decodes one AppendManagerState encoding, consuming b
// exactly. It is strict: truncation, trailing bytes, unsorted or
// duplicate IDs, unknown flags, and non-finite or negative values are all
// errors.
func DecodeManagerState(b []byte) (ManagerState, error) {
	r := NewReader(b)
	st, err := readManagerState(r)
	if err == nil && r.Rest() != 0 {
		err = fmt.Errorf("%d trailing bytes", r.Rest())
	}
	if err != nil {
		return ManagerState{}, err
	}
	return st, nil
}

// readManagerState reads one manager-state record from r. Where Count has
// vouched for a run of fixed-size entries the reads inside it cannot fail
// and go unchecked.
func readManagerState(r *Reader) (ManagerState, error) {
	var st ManagerState
	var err error
	if st.Layout, err = readLayout(r); err != nil {
		return st, err
	}
	switch flag := r.U8(); {
	case r.Err() != nil:
		return st, r.Err()
	case flag == 1:
		st.HasRef = true
		if st.Ref, err = readWindow(r); err != nil {
			return st, fmt.Errorf("reference window: %w", err)
		}
	case flag != 0:
		return st, fmt.Errorf("unknown reference flag %d", flag)
	}
	for _, f := range []*int64{&st.Stats.WindowsClosed, &st.Stats.Checks, &st.Stats.Drifts, &st.Stats.ReAdvises, &st.Stats.Fallbacks, &st.Collector.Total} {
		*f = r.NonNegI64()
	}
	if r.Err() != nil {
		return st, fmt.Errorf("counter: %w", r.Err())
	}
	if st.Collector.ExtPages = r.NonNegI64(); r.Err() != nil {
		return st, fmt.Errorf("extent width: %w", r.Err())
	}
	if st.Collector.ExtPages < 1 {
		return st, fmt.Errorf("extent bucket width %d below 1 page", st.Collector.ExtPages)
	}
	if st.Collector.Cur, err = readWindow(r); err != nil {
		return st, fmt.Errorf("current window: %w", err)
	}
	nclosed := r.Count(windowMinBytes)
	if r.Err() != nil {
		return st, fmt.Errorf("closed windows: %w", r.Err())
	}
	for i := 0; i < nclosed; i++ {
		w, err := readWindow(r)
		if err != nil {
			return st, fmt.Errorf("closed window %d: %w", i, err)
		}
		st.Collector.Closed = append(st.Collector.Closed, w)
	}
	next := r.Count(8)
	if r.Err() != nil {
		return st, fmt.Errorf("extent histograms: %w", r.Err())
	}
	st.Collector.Extents = make(map[catalog.ObjectID][]float64, next)
	last := int64(-1)
	for i := 0; i < next; i++ {
		id := r.U32()
		if r.Err() != nil {
			return st, r.Err()
		}
		if int64(id) <= last {
			return st, fmt.Errorf("extent histogram IDs not strictly increasing at %d", id)
		}
		last = int64(id)
		nb := r.Count(8)
		if r.Err() != nil {
			return st, fmt.Errorf("extent histogram %d: %w", id, r.Err())
		}
		h := make([]float64, nb)
		if bkt := r.Counts(h); bkt >= 0 {
			return st, fmt.Errorf("extent histogram %d bucket %d: invalid count %v", id, bkt, h[bkt])
		}
		st.Collector.Extents[catalog.ObjectID(id)] = h
	}
	return st, nil
}

// windowMinBytes is the smallest encoded window: three scalars plus an
// empty object count.
const windowMinBytes = 8*3 + 4

// appendWindow appends a window's canonical encoding: the three scalars
// then the profile entries in ascending ID order (zero vectors included —
// the encoding preserves the profile exactly).
func appendWindow(dst []byte, w Window) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(w.CPU))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(w.Elapsed))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(w.Txns))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(w.Profile)))
	for _, id := range sortedIDs(w.Profile) {
		v := w.Profile[id]
		dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
		for t := 0; t < device.NumIOTypes; t++ {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v[t]))
		}
	}
	return dst
}

// readWindow reads one appendWindow encoding.
func readWindow(r *Reader) (Window, error) {
	var w Window
	w.CPU = time.Duration(r.NonNegI64())
	w.Elapsed = time.Duration(r.NonNegI64())
	w.Txns = r.NonNegI64()
	n := r.Count(4 + 8*device.NumIOTypes)
	if r.Err() != nil {
		return w, r.Err()
	}
	w.Profile = iosim.NewProfile()
	last := int64(-1)
	for i := 0; i < n; i++ {
		id := r.U32()
		if int64(id) <= last {
			return w, fmt.Errorf("profile IDs not strictly increasing at %d", id)
		}
		last = int64(id)
		var vec iosim.IOVector
		if t := r.Counts(vec[:]); t >= 0 {
			return w, fmt.Errorf("object %d: invalid I/O count %v", id, vec[t])
		}
		w.Profile[catalog.ObjectID(id)] = &vec
	}
	return w, nil
}

// multiCopy flags a layout byte that carries a copy-set mask rather than a
// class. A unit holding one copy is written as its class — the byte a
// single-class deployment has always been recorded with, so those records
// are unchanged — and only a unit holding several is written as a flagged
// mask; each set therefore has exactly one encoding.
const multiCopy = 0x80

// appendLayout appends a layout's canonical encoding in ascending ID
// order.
func appendLayout(dst []byte, l catalog.SetLayout) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(l)))
	for _, id := range sortedIDs(l) {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
		if cls, ok := l[id].Single(); ok {
			dst = append(dst, byte(cls))
		} else {
			dst = append(dst, multiCopy|byte(l[id]))
		}
	}
	return dst
}

// readLayout reads one appendLayout encoding.
func readLayout(r *Reader) (catalog.SetLayout, error) {
	n := r.Count(5)
	if r.Err() != nil {
		return nil, fmt.Errorf("layout: %w", r.Err())
	}
	l := make(catalog.SetLayout, n)
	last := int64(-1)
	for i := 0; i < n; i++ {
		id, b := r.U32(), r.U8()
		if int64(id) <= last {
			return nil, fmt.Errorf("layout IDs not strictly increasing at %d", id)
		}
		last = int64(id)
		set := device.ClassSet(b &^ multiCopy)
		switch {
		case b&multiCopy == 0 && int(b) < device.NumClasses:
			set = device.Singleton(device.Class(b))
		case b&multiCopy == 0:
			return nil, fmt.Errorf("layout object %d: unknown class %d", id, b)
		case !set.Valid() || set.IsSingleton():
			return nil, fmt.Errorf("layout object %d: %#x is not a multi-copy class set", id, b)
		}
		l[catalog.ObjectID(id)] = set
	}
	return l, nil
}

// sortedIDs returns a map's object IDs in ascending order — the canonical
// encoding order.
func sortedIDs[V any](m map[catalog.ObjectID]V) []catalog.ObjectID {
	ids := make([]catalog.ObjectID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
