// Package metrics implements the tracing/monitoring substrate (the paper
// deploys Prometheus): fixed-window latency collectors with percentile
// queries, request counters, and gauge series for CPU utilisation. All
// values are indexed by simulated time.
//
// Collectors run in one of two modes. The exact mode retains every raw
// sample per window — bit-exact percentiles, memory O(requests). The sketch
// mode keeps one mergeable quantile sketch per window (stats.Sketch,
// DDSketch-style) — percentiles within a documented relative-error bound α,
// memory O(windows), which is what million-user runs need. Both modes share
// one query API; window storage is a head-indexed ring with amortized O(1)
// trimming, so periodic retention trims never reallocate per call. The
// raw-sample read Between is exact-only and panics on a sketch collector.
// An exact window stores whole-nanosecond latencies as 4-byte counts and
// falls back to float64 only for samples that are not (see exactWindow); a
// closed exact window is sealed to its exact size, with no append growth
// slack, and hands its buffer on to the next window.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"ursa/internal/sim"
	"ursa/internal/stats"
)

// DefaultWindow is the sampling window used throughout the paper's
// evaluation (metrics are collected once per minute).
const DefaultWindow = sim.Minute

// Windowed aggregates float64 samples into fixed, contiguous time windows.
type Windowed struct {
	window sim.Time
	// alpha > 0 selects sketch mode with that relative-error bound.
	alpha float64

	// Live windows are start[head:] — head advances on Trim and the
	// arrays compact (copy down) only when more than half is dead, so
	// trimming is amortized O(1) per window instead of O(windows) per call.
	head  int
	start []sim.Time    // window start times, ascending
	exact []exactWindow // exact mode: samples per window

	sketches []*stats.Sketch // sketch mode: one sketch per window
	free     []*stats.Sketch // recycled sketches from trimmed windows
	scratch  *stats.Sketch   // merge buffer for multi-window queries
}

// exactWindow holds one exact window's samples in insertion order. Samples
// are milliseconds, and every latency comes from sim.Time.Millis, which is
// float64(ns)/1e6 of an integer nanosecond count: below 2³² ns (4.295 s) the
// window stores that count in 4 bytes and reads it back as float64(u)/1e6,
// the same expression, so the round trip is bit-exact. A sample that does
// not round-trip bit for bit (utilisation, negatives, -0, NaN, ±Inf, ≥ 2³²
// ns, any other float) promotes the window to float64 storage in insertion
// order, and the window stays wide.
type exactWindow struct {
	ns   []uint32  // whole nanoseconds, while the window is narrow
	wide []float64 // non-nil once promoted; ns is then nil
}

// exactWindowHeader is the size of an exactWindow: two slice headers.
const exactWindowHeader = 48

// wholeNanos returns v's nanosecond count when storing it as one is
// lossless: the count fits 32 bits and converts back to v's exact bits, so
// -0 and NaN never collapse into 0.
func wholeNanos(v float64) (uint32, bool) {
	x := v*1e6 + 0.5 // rounds to nearest once truncated; NaN fails the range test
	if !(x >= 0 && x < 1<<32) {
		return 0, false
	}
	u := uint32(x)
	return u, math.Float64bits(float64(u)/1e6) == math.Float64bits(v)
}

func (e *exactWindow) count() int {
	if e.wide != nil {
		return len(e.wide)
	}
	return len(e.ns)
}

func (e *exactWindow) add(v float64) {
	if e.wide == nil {
		if u, ok := wholeNanos(v); ok {
			e.ns = append(e.ns, u)
			return
		}
		e.promote()
	}
	e.wide = append(e.wide, v)
}

// promote moves a narrow window to float64 storage, keeping sample order.
func (e *exactWindow) promote() {
	e.wide = e.appendTo(make([]float64, 0, len(e.ns)+1))
	e.ns = nil
}

// appendTo appends the window's samples, as float64 milliseconds in
// insertion order, to dst.
func (e *exactWindow) appendTo(dst []float64) []float64 {
	if e.wide != nil {
		return append(dst, e.wide...)
	}
	n := len(dst)
	dst = slices.Grow(dst, len(e.ns))[:n+len(e.ns)]
	out := dst[n:]
	for i, u := range e.ns[:len(out)] {
		out[i] = nanosToMillis(u)
	}
	return dst
}

// nanosToMillis reads a stored count back as the float64 milliseconds it
// was recorded as.
func nanosToMillis(u uint32) float64 { return float64(u) / 1e6 }

// extend appends src's samples in order, promoting e if src is wide.
func (e *exactWindow) extend(src *exactWindow) {
	if e.wide == nil && src.wide == nil {
		e.ns = append(e.ns, src.ns...)
		return
	}
	if e.wide == nil {
		e.promote()
	}
	e.wide = src.appendTo(e.wide)
}

// seal drops append's growth slack from a closed window: its samples move
// to an exact-size slice. A narrow window's old buffer is returned, emptied,
// for the next window to append into, so append growth happens about once
// per collector rather than once per window. The buffer is dropped (nil is
// returned) when its spare capacity exceeds what append growth leaves — a
// quarter of the count just sealed plus 256 samples — so an open window
// holds no more slack than a freshly grown one, and a collector whose load
// falls sheds its peak-sized buffer.
func (e *exactWindow) seal() []uint32 {
	if e.wide != nil {
		if cap(e.wide) > len(e.wide) {
			e.wide = append(make([]float64, 0, len(e.wide)), e.wide...)
		}
		return nil
	}
	buf := e.ns
	e.ns = append(make([]uint32, 0, len(buf)), buf...)
	if cap(buf)-len(buf) > len(buf)/4+256 {
		return nil
	}
	return buf[:0]
}

// NewWindowed returns an exact-mode collector with the given window size.
func NewWindowed(window sim.Time) *Windowed {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Windowed{window: window}
}

// NewWindowedSketch returns a sketch-mode collector: each window stores a
// mergeable quantile sketch with relative-error bound alpha instead of raw
// samples, so memory is O(windows) regardless of sample count. The raw-sample
// read Between panics in this mode.
func NewWindowedSketch(window sim.Time, alpha float64) *Windowed {
	w := NewWindowed(window)
	if alpha <= 0 || alpha >= 1 {
		panic(fmt.Sprintf("metrics: sketch alpha %v out of (0,1)", alpha))
	}
	w.alpha = alpha
	return w
}

// Window reports the configured window size.
func (w *Windowed) Window() sim.Time { return w.window }

// Sketched reports whether the collector is in sketch mode.
func (w *Windowed) Sketched() bool { return w.alpha > 0 }

// Alpha reports the sketch relative-error bound (0 in exact mode).
func (w *Windowed) Alpha() float64 { return w.alpha }

// newSketch hands out a recycled or fresh per-window sketch.
func (w *Windowed) newSketch() *stats.Sketch {
	if n := len(w.free); n > 0 {
		s := w.free[n-1]
		w.free = w.free[:n-1]
		return s
	}
	return stats.NewSketch(w.alpha)
}

// addAt records v into the physical window index i.
func (w *Windowed) addAt(i int, v float64) {
	if w.Sketched() {
		w.sketches[i].Add(v)
		return
	}
	w.exact[i].add(v)
}

// appendWindow opens a new newest window. In exact mode it first seals the
// previous newest window (exactWindow.seal), and the new window appends
// into the buffer the seal hands back. A late out-of-order sample routed to
// a sealed window simply reallocates (or promotes) it.
func (w *Windowed) appendWindow(ws sim.Time) {
	w.start = append(w.start, ws)
	if w.Sketched() {
		w.sketches = append(w.sketches, w.newSketch())
		return
	}
	var buf []uint32
	if n := len(w.exact); n > w.head {
		buf = w.exact[n-1].seal()
	}
	w.exact = append(w.exact, exactWindow{ns: buf})
}

// insertWindow inserts an empty window at physical index i (out-of-order
// arrivals only — the rare path).
func (w *Windowed) insertWindow(i int, ws sim.Time) {
	w.start = append(w.start, 0)
	copy(w.start[i+1:], w.start[i:])
	w.start[i] = ws
	if w.Sketched() {
		w.sketches = append(w.sketches, nil)
		copy(w.sketches[i+1:], w.sketches[i:])
		w.sketches[i] = w.newSketch()
	} else {
		w.exact = slices.Insert(w.exact, i, exactWindow{})
	}
}

// dropOldest frees the oldest live window and advances the ring head.
func (w *Windowed) dropOldest() {
	if w.Sketched() {
		s := w.sketches[w.head]
		s.Reset()
		w.free = append(w.free, s)
		w.sketches[w.head] = nil
	} else {
		w.exact[w.head] = exactWindow{}
	}
	w.head++
}

// compact copies live windows to the front once more than half the backing
// arrays are dead, keeping Trim amortized O(1).
func (w *Windowed) compact() {
	if w.head == 0 || 2*w.head < len(w.start) {
		return
	}
	n := copy(w.start, w.start[w.head:])
	w.start = w.start[:n]
	if w.Sketched() {
		copy(w.sketches, w.sketches[w.head:])
		clear(w.sketches[n:])
		w.sketches = w.sketches[:n]
	} else {
		copy(w.exact, w.exact[w.head:])
		clear(w.exact[n:])
		w.exact = w.exact[:n]
	}
	w.head = 0
}

// Add records one sample at time t. Samples normally arrive in
// non-decreasing window order (discrete-event time is monotone); a sample
// whose window precedes the newest one is routed to the window it belongs
// to — inserting the window if it never existed — instead of being silently
// folded into the newest window.
func (w *Windowed) Add(t sim.Time, v float64) {
	ws := t / w.window * w.window
	if n := len(w.start); n > w.head && w.start[n-1] == ws {
		w.addAt(n-1, v) // the common case: the newest window
		return
	}
	w.addAt(w.windowIndex(ws), v)
}

// windowIndex returns the physical index of the live window starting at ws,
// opening it if it does not exist: as the newest window, or inserted at its
// sorted position for an out-of-order arrival.
func (w *Windowed) windowIndex(ws sim.Time) int {
	n := len(w.start)
	if n == w.head || w.start[n-1] < ws {
		w.appendWindow(ws)
		return n
	}
	i := w.head + sort.Search(n-w.head, func(i int) bool { return w.start[w.head+i] >= ws })
	if i == n || w.start[i] != ws {
		w.insertWindow(i, ws)
	}
	return i
}

// NumWindows reports how many (non-empty) windows exist.
func (w *Windowed) NumWindows() int { return len(w.start) - w.head }

// mustExact panics when a raw-sample read reaches a sketch collector, which
// retains no samples to return.
func (w *Windowed) mustExact(op string) {
	if w.Sketched() {
		panic("metrics: " + op + " reads raw samples, which a sketch-mode collector does not keep; use Count and the percentile queries")
	}
}

// WindowStartAt reports the start time of the i-th live window.
func (w *Windowed) WindowStartAt(i int) sim.Time { return w.start[w.head+i] }

// WindowCountAt reports the sample count of the i-th live window.
func (w *Windowed) WindowCountAt(i int) int {
	if w.Sketched() {
		return int(w.sketches[w.head+i].Count())
	}
	return w.exact[w.head+i].count()
}

// WindowQuantileAt reports the p-th percentile of the i-th live window
// (NaN when the window is empty — sketch windows are never empty).
func (w *Windowed) WindowQuantileAt(i int, p float64) float64 {
	if w.Sketched() {
		return w.sketches[w.head+i].Quantile(p)
	}
	i += w.head
	if w.exact[i].count() == 0 {
		return math.NaN()
	}
	return w.exactPercentile(i, i+1, p)
}

// exactPercentile selects the p-th percentile of the samples of physical
// windows [lo, hi) in a pooled scratch buffer — 0 for no samples, like
// stats.Percentile. It allocates nothing in steady state. When every window
// is narrow it gathers and selects the nanosecond counts themselves and
// converts only the bracketing pair: u ↦ float64(u)/1e6 is strictly
// increasing below 2³², so the answer is bit-identical to selecting over
// the float64 samples.
func (w *Windowed) exactPercentile(lo, hi int, p float64) float64 {
	narrow := true
	for i := lo; i < hi && narrow; i++ {
		narrow = w.exact[i].wide == nil
	}
	if narrow {
		scratch := nsScratch.Get().(*[]uint32)
		buf := (*scratch)[:0]
		for i := lo; i < hi; i++ {
			buf = append(buf, w.exact[i].ns...)
		}
		v := stats.SelectPercentile(buf, p, nanosToMillis)
		*scratch = buf[:0]
		nsScratch.Put(scratch)
		return v
	}
	scratch := stats.GetScratch()
	buf := *scratch
	for i := lo; i < hi; i++ {
		buf = w.exact[i].appendTo(buf)
	}
	v := stats.PercentileInPlace(buf, p)
	*scratch = buf[:0]
	stats.PutScratch(scratch)
	return v
}

// nsScratch recycles the count buffers of all-narrow percentile queries,
// as stats.GetScratch does for float64 ones.
var nsScratch = sync.Pool{New: func() any {
	s := make([]uint32, 0, 256)
	return &s
}}

// windowRange binary-searches the ascending start slice and returns the
// half-open physical index range of windows whose start lies in [from, to).
func (w *Windowed) windowRange(from, to sim.Time) (lo, hi int) {
	n := len(w.start) - w.head
	lo = w.head + sort.Search(n, func(i int) bool { return w.start[w.head+i] >= from })
	hi = lo + sort.Search(n-(lo-w.head), func(i int) bool { return w.start[lo+i] >= to })
	return lo, hi
}

// Between returns all samples in windows with start in [from, to). The
// returned slice is freshly allocated; callers may keep and mutate it. It is
// an exact-mode read and panics on a sketch collector — query Count and
// PercentileBetween there.
func (w *Windowed) Between(from, to sim.Time) []float64 {
	w.mustExact("Between")
	lo, hi := w.windowRange(from, to)
	n := 0
	for i := lo; i < hi; i++ {
		n += w.exact[i].count()
	}
	if n == 0 {
		return nil
	}
	out := make([]float64, 0, n)
	for i := lo; i < hi; i++ {
		out = w.exact[i].appendTo(out)
	}
	return out
}

// Count reports the number of samples in [from, to).
func (w *Windowed) Count(from, to sim.Time) int {
	lo, hi := w.windowRange(from, to)
	n := 0
	for i := lo; i < hi; i++ {
		if w.Sketched() {
			n += int(w.sketches[i].Count())
		} else {
			n += w.exact[i].count()
		}
	}
	return n
}

// PercentileBetween computes the p-th percentile over [from, to) — 0 when
// the range is empty, matching stats.Percentile on an empty slice. In exact
// mode it gathers the samples into a pooled scratch buffer and selects in
// place, allocating nothing in steady state; in sketch mode it merges the
// window sketches into a reusable scratch sketch (bucket-exact, so the
// answer equals a single sketch over the whole range).
func (w *Windowed) PercentileBetween(from, to sim.Time, p float64) float64 {
	lo, hi := w.windowRange(from, to)
	if w.Sketched() {
		if lo == hi {
			return 0
		}
		if hi-lo == 1 {
			return w.sketches[lo].Quantile(p)
		}
		if w.scratch == nil {
			w.scratch = stats.NewSketch(w.alpha)
		}
		w.scratch.Reset()
		for i := lo; i < hi; i++ {
			w.scratch.Merge(w.sketches[i])
		}
		return w.scratch.Quantile(p)
	}
	return w.exactPercentile(lo, hi, p)
}

// PerWindowPercentile returns, for each aligned window of the run
// [0, horizon), the p-th percentile, with NaN marking windows that have no
// samples — a true 0 ms percentile and "no data" are distinct (the Fig. 2
// heat-maps and violation accounting must not conflate them). This is the
// Fig. 2 heat-map primitive: one value per minute per tier.
func (w *Windowed) PerWindowPercentile(horizon sim.Time, p float64) []float64 {
	n := int((horizon + w.window - 1) / w.window)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.NaN()
	}
	for i := w.head; i < len(w.start); i++ {
		idx := int(w.start[i] / w.window)
		if idx < 0 || idx >= n {
			continue
		}
		if w.Sketched() {
			out[idx] = w.sketches[i].Quantile(p)
		} else if w.exact[i].count() > 0 {
			out[idx] = w.exactPercentile(i, i+1, p)
		}
	}
	return out
}

// Trim drops windows that start before cutoff, bounding memory on long
// runs. Amortized O(1) per dropped window: the ring head advances and the
// backing arrays compact only when mostly dead.
func (w *Windowed) Trim(cutoff sim.Time) {
	for w.head < len(w.start) && w.start[w.head] < cutoff {
		w.dropOldest()
	}
	w.compact()
}

// Reset discards all samples.
func (w *Windowed) Reset() {
	if w.Sketched() {
		for i := w.head; i < len(w.start); i++ {
			s := w.sketches[i]
			s.Reset()
			w.free = append(w.free, s)
		}
		clear(w.sketches)
		w.sketches = w.sketches[:0]
	} else {
		clear(w.exact)
		w.exact = w.exact[:0]
	}
	w.start = w.start[:0]
	w.head = 0
}

// FootprintBytes estimates the retained heap bytes of the collector:
// backing arrays plus per-window payloads (raw samples or sketches). It is
// the accounting the bounded-memory tests and the bytes/window benchmark
// report; exact mode grows with sample count, sketch mode with window count.
func (w *Windowed) FootprintBytes() int {
	b := 8 * cap(w.start)
	if w.Sketched() {
		b += 8 * (cap(w.sketches) + cap(w.free))
		for i := w.head; i < len(w.sketches); i++ {
			b += w.sketches[i].FootprintBytes()
		}
		for _, s := range w.free {
			b += s.FootprintBytes()
		}
		if w.scratch != nil {
			b += w.scratch.FootprintBytes()
		}
		return b
	}
	b += exactWindowHeader * cap(w.exact)
	for i := w.head; i < len(w.exact); i++ {
		b += 4*cap(w.exact[i].ns) + 8*cap(w.exact[i].wide)
	}
	return b
}

// LatencyRecorder keeps one Windowed collector per request class.
type LatencyRecorder struct {
	window  sim.Time
	alpha   float64 // >0: per-class collectors are sketch-backed
	byClass map[string]*Windowed
}

// NewLatencyRecorder returns an empty exact-mode recorder with the given
// window.
func NewLatencyRecorder(window sim.Time) *LatencyRecorder {
	return &LatencyRecorder{window: window, byClass: map[string]*Windowed{}}
}

// NewLatencyRecorderSketch returns a recorder whose per-class collectors
// are sketch-backed with relative-error bound alpha.
func NewLatencyRecorderSketch(window sim.Time, alpha float64) *LatencyRecorder {
	r := NewLatencyRecorder(window)
	r.alpha = alpha
	return r
}

// Record stores a latency sample (milliseconds) for a request class.
func (r *LatencyRecorder) Record(t sim.Time, class string, latencyMs float64) {
	w, ok := r.byClass[class]
	if !ok {
		if r.alpha > 0 {
			w = NewWindowedSketch(r.window, r.alpha)
		} else {
			w = NewWindowed(r.window)
		}
		r.byClass[class] = w
	}
	w.Add(t, latencyMs)
}

// Class returns the collector for the class, or nil when never recorded.
func (r *LatencyRecorder) Class(class string) *Windowed { return r.byClass[class] }

// Classes lists recorded classes in sorted order.
func (r *LatencyRecorder) Classes() []string {
	out := make([]string, 0, len(r.byClass))
	for c := range r.byClass {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Merged returns the recorder's all-class view: a fresh collector with the
// recorder's window and mode whose windows are the union of the class
// windows. Each window holds the classes' samples concatenated in sorted
// class order (exact mode) or the Merge of the class sketches (sketch mode).
// Its order statistics — Count, PercentileBetween, PerWindowPercentile,
// WindowCountAt, WindowQuantileAt — equal those of one collector fed every
// recorded sample, so the all-class reading needs no second store. The view
// shares no memory with the recorder.
func (r *LatencyRecorder) Merged() *Windowed {
	m := &Windowed{window: r.window, alpha: r.alpha}
	for _, c := range r.Classes() {
		w := r.byClass[c]
		for i := w.head; i < len(w.start); i++ {
			j := m.windowIndex(w.start[i])
			if m.Sketched() {
				m.sketches[j].Merge(w.sketches[i])
			} else {
				m.exact[j].extend(&w.exact[i])
			}
		}
	}
	return m
}

// Trim drops windows before cutoff in every class collector.
func (r *LatencyRecorder) Trim(cutoff sim.Time) {
	for _, w := range r.byClass {
		w.Trim(cutoff)
	}
}

// FootprintBytes sums the footprint of every class collector.
func (r *LatencyRecorder) FootprintBytes() int {
	b := 0
	for _, w := range r.byClass {
		b += w.FootprintBytes()
	}
	return b
}

// Reset discards all samples for all classes.
func (r *LatencyRecorder) Reset() {
	for _, w := range r.byClass {
		w.Reset()
	}
}

// CounterSeries counts events per fixed window (request counts → RPS).
// Storage is a head-indexed ring with a running prefix sum, so range totals
// are O(log windows) and retention trims are amortized O(1).
type CounterSeries struct {
	window sim.Time

	head   int
	start  []sim.Time
	counts []float64
	// cum[i] is the all-time cumulative count through window i; base is the
	// all-time cumulative before physical index 0 (nonzero after
	// compaction). Totals are prefix differences — exact for the integer
	// event counts this series records.
	cum  []float64
	base float64
}

// NewCounterSeries returns a counter with the given window.
func NewCounterSeries(window sim.Time) *CounterSeries {
	if window <= 0 {
		window = DefaultWindow
	}
	return &CounterSeries{window: window}
}

// cumAt reads the cumulative count through physical index i (i may be
// head−1 … −1 for "before everything retained").
func (c *CounterSeries) cumAt(i int) float64 {
	if i < 0 {
		return c.base
	}
	return c.cum[i]
}

// Inc adds n events at time t. Out-of-order events (an earlier window than
// the newest) are routed to the window they belong to instead of being
// silently credited to the newest window.
func (c *CounterSeries) Inc(t sim.Time, n float64) {
	ws := t / c.window * c.window
	m := len(c.start)
	if m == c.head || c.start[m-1] < ws {
		c.start = append(c.start, ws)
		c.counts = append(c.counts, n)
		c.cum = append(c.cum, c.cumAt(m-1)+n)
		return
	}
	if c.start[m-1] == ws {
		c.counts[m-1] += n
		c.cum[m-1] += n
		return
	}
	// Out-of-order: find (or insert) the window and patch the suffix of the
	// prefix-sum array — rare, so O(windows) here is fine.
	i := c.head + sort.Search(m-c.head, func(i int) bool { return c.start[c.head+i] >= ws })
	if i == m || c.start[i] != ws {
		c.start = append(c.start, 0)
		copy(c.start[i+1:], c.start[i:])
		c.start[i] = ws
		c.counts = append(c.counts, 0)
		copy(c.counts[i+1:], c.counts[i:])
		c.counts[i] = 0
		c.cum = append(c.cum, 0)
		copy(c.cum[i+1:], c.cum[i:])
		c.cum[i] = c.cumAt(i - 1)
	}
	c.counts[i] += n
	for ; i < len(c.cum); i++ {
		c.cum[i] += n
	}
}

// compact copies live windows down once more than half the arrays are dead.
func (c *CounterSeries) compact() {
	if c.head == 0 || 2*c.head < len(c.start) {
		return
	}
	c.base = c.cum[c.head-1]
	n := copy(c.start, c.start[c.head:])
	copy(c.counts, c.counts[c.head:])
	copy(c.cum, c.cum[c.head:])
	c.start, c.counts, c.cum = c.start[:n], c.counts[:n], c.cum[:n]
	c.head = 0
}

// Total reports the number of events in [from, to). Both bounds are
// binary-searched and the sum is a prefix difference, so long-run Rate
// queries no longer walk the window series.
func (c *CounterSeries) Total(from, to sim.Time) float64 {
	n := len(c.start) - c.head
	lo := c.head + sort.Search(n, func(i int) bool { return c.start[c.head+i] >= from })
	hi := lo + sort.Search(n-(lo-c.head), func(i int) bool { return c.start[lo+i] >= to })
	if lo == hi {
		return 0
	}
	return c.cumAt(hi-1) - c.cumAt(lo-1)
}

// Rate reports events per second over [from, to).
func (c *CounterSeries) Rate(from, to sim.Time) float64 {
	d := (to - from).Seconds()
	if d <= 0 {
		return 0
	}
	return c.Total(from, to) / d
}

// Trim drops windows that start before cutoff (amortized O(1) per window).
func (c *CounterSeries) Trim(cutoff sim.Time) {
	for c.head < len(c.start) && c.start[c.head] < cutoff {
		c.head++
	}
	c.compact()
}

// FootprintBytes estimates retained heap bytes.
func (c *CounterSeries) FootprintBytes() int {
	return 8 * (cap(c.start) + cap(c.counts) + cap(c.cum))
}

// Reset discards all counts.
func (c *CounterSeries) Reset() {
	c.start = c.start[:0]
	c.counts = c.counts[:0]
	c.cum = c.cum[:0]
	c.head = 0
	c.base = 0
}

// Gauge integrates a piecewise-constant value over time, yielding exact
// time-averages — used for CPU utilisation and allocation accounting. It is
// already O(1) memory: only the running integral is retained, never a
// history series.
type Gauge struct {
	last     sim.Time
	value    float64
	integral float64 // ∫ value dt, in value·seconds
}

// NewGauge returns a gauge with initial value v at time t.
func NewGauge(t sim.Time, v float64) *Gauge {
	return &Gauge{last: t, value: v}
}

// Set updates the gauge to value v at time t, accumulating the integral of
// the previous value over [last, t).
func (g *Gauge) Set(t sim.Time, v float64) {
	if t < g.last {
		panic("metrics: Gauge.Set with time going backwards")
	}
	g.integral += g.value * (t - g.last).Seconds()
	g.last = t
	g.value = v
}

// Value reports the current value.
func (g *Gauge) Value() float64 { return g.value }

// IntegralUntil reports ∫value dt (value·seconds) from creation through t.
func (g *Gauge) IntegralUntil(t sim.Time) float64 {
	if t < g.last {
		panic("metrics: IntegralUntil before last update")
	}
	return g.integral + g.value*(t-g.last).Seconds()
}
