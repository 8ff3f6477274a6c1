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
// trimming, so periodic retention trims never reallocate per call. Raw-sample
// reads (Between, WindowAt) are exact-only and panic on a sketch collector.
// A closed exact window is sealed to its exact size, so retained samples
// cost 8 bytes each with no append growth slack.
package metrics

import (
	"fmt"
	"math"
	"sort"

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
	head    int
	start   []sim.Time  // window start times, ascending
	samples [][]float64 // exact mode: samples per window

	sketches []*stats.Sketch // sketch mode: one sketch per window
	free     []*stats.Sketch // recycled sketches from trimmed windows
	scratch  *stats.Sketch   // merge buffer for multi-window queries
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
// reads Between and WindowAt panic in this mode.
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
	w.samples[i] = append(w.samples[i], v)
}

// appendWindow opens a new newest window. In exact mode it first seals the
// previous newest window: its samples move to an exact-capacity slice, so a
// closed window keeps none of append's growth slack. A late out-of-order
// sample routed to a sealed window simply reallocates it.
func (w *Windowed) appendWindow(ws sim.Time) {
	w.start = append(w.start, ws)
	if w.Sketched() {
		w.sketches = append(w.sketches, w.newSketch())
		return
	}
	if n := len(w.samples); n > w.head {
		if prev := w.samples[n-1]; cap(prev) > len(prev) {
			w.samples[n-1] = append(make([]float64, 0, len(prev)), prev...)
		}
	}
	w.samples = append(w.samples, nil)
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
		w.samples = append(w.samples, nil)
		copy(w.samples[i+1:], w.samples[i:])
		w.samples[i] = nil
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
		w.samples[w.head] = nil
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
		clearSketchTail(w.sketches[n:])
		w.sketches = w.sketches[:n]
	} else {
		copy(w.samples, w.samples[w.head:])
		clearSampleTail(w.samples[n:])
		w.samples = w.samples[:n]
	}
	w.head = 0
}

func clearSketchTail(tail []*stats.Sketch) {
	for i := range tail {
		tail[i] = nil
	}
}

func clearSampleTail(tail [][]float64) {
	for i := range tail {
		tail[i] = nil
	}
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

// WindowAt returns the i-th live window's start and samples. It is an
// exact-mode read and panics on a sketch collector — use WindowCountAt and
// WindowQuantileAt there.
func (w *Windowed) WindowAt(i int) (sim.Time, []float64) {
	w.mustExact("WindowAt")
	return w.start[w.head+i], w.samples[w.head+i]
}

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
	return len(w.samples[w.head+i])
}

// WindowQuantileAt reports the p-th percentile of the i-th live window
// (NaN when the window is empty — sketch windows are never empty).
func (w *Windowed) WindowQuantileAt(i int, p float64) float64 {
	if w.Sketched() {
		return w.sketches[w.head+i].Quantile(p)
	}
	s := w.samples[w.head+i]
	if len(s) == 0 {
		return math.NaN()
	}
	return stats.Percentile(s, p)
}

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
		n += len(w.samples[i])
	}
	if n == 0 {
		return nil
	}
	out := make([]float64, 0, n)
	for i := lo; i < hi; i++ {
		out = append(out, w.samples[i]...)
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
			n += len(w.samples[i])
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
	scratch := stats.GetScratch()
	buf := *scratch
	for i := lo; i < hi; i++ {
		buf = append(buf, w.samples[i]...)
	}
	v := stats.PercentileInPlace(buf, p)
	*scratch = buf[:0]
	stats.PutScratch(scratch)
	return v
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
		} else if len(w.samples[i]) > 0 {
			out[idx] = stats.Percentile(w.samples[i], p)
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
		clearSketchTail(w.sketches)
		w.sketches = w.sketches[:0]
	} else {
		clearSampleTail(w.samples)
		w.samples = w.samples[:0]
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
	b += 24 * cap(w.samples)
	for i := w.head; i < len(w.samples); i++ {
		b += 8 * cap(w.samples[i])
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
				m.samples[j] = append(m.samples[j], w.samples[i]...)
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

// AverageOver reports the time-average of the gauge over [from, t] given
// the integral at the `from` instant (callers snapshot IntegralUntil(from)).
func (g *Gauge) AverageOver(fromIntegral float64, from, to sim.Time) float64 {
	d := (to - from).Seconds()
	if d <= 0 {
		return g.value
	}
	return (g.IntegralUntil(to) - fromIntegral) / d
}
