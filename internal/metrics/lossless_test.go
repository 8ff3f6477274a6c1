package metrics

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ursa/internal/sim"
	"ursa/internal/stats"
)

// refWindowed is the exact collector's float64 layout — one []float64 per
// window, every sample stored as given — kept as the oracle the 4-byte
// whole-nanosecond storage must match bit for bit on every read.
type refWindowed struct {
	window  sim.Time
	start   []sim.Time
	samples [][]float64
}

// index returns the position of the window starting at ws, inserting it in
// sorted position when absent.
func (r *refWindowed) index(ws sim.Time) int {
	i := sort.Search(len(r.start), func(i int) bool { return r.start[i] >= ws })
	if i == len(r.start) || r.start[i] != ws {
		r.start = slices.Insert(r.start, i, ws)
		r.samples = slices.Insert(r.samples, i, []float64(nil))
	}
	return i
}

func (r *refWindowed) add(t sim.Time, v float64) {
	i := r.index(t / r.window * r.window)
	r.samples[i] = append(r.samples[i], v)
}

func (r *refWindowed) trim(cutoff sim.Time) {
	i := sort.Search(len(r.start), func(i int) bool { return r.start[i] >= cutoff })
	r.start, r.samples = r.start[i:], r.samples[i:]
}

func (r *refWindowed) between(from, to sim.Time) []float64 {
	lo := sort.Search(len(r.start), func(i int) bool { return r.start[i] >= from })
	hi := sort.Search(len(r.start), func(i int) bool { return r.start[i] >= to })
	var out []float64
	for i := lo; i < hi; i++ {
		out = append(out, r.samples[i]...)
	}
	return out
}

// refMerged is LatencyRecorder.Merged over reference collectors: each
// window holds the classes' samples concatenated in sorted class order.
func refMerged(window sim.Time, byClass map[string]*refWindowed) *refWindowed {
	m := &refWindowed{window: window}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		r := byClass[c]
		for i, s := range r.start {
			j := m.index(s)
			m.samples[j] = append(m.samples[j], r.samples[i]...)
		}
	}
	return m
}

var losslessPercentiles = []float64{0, 25, 50, 99, 100}

// sameBits is bit equality: -0 differs from 0 and NaN payloads must match.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// compareReads holds every read of w to the reference, bit for bit.
func compareReads(t *testing.T, what string, w *Windowed, r *refWindowed, horizon sim.Time) {
	t.Helper()
	if w.NumWindows() != len(r.start) {
		t.Fatalf("%s: NumWindows = %d, want %d", what, w.NumWindows(), len(r.start))
	}
	type span struct{ from, to sim.Time }
	spans := []span{{0, math.MaxInt64}, {0, 0}}
	for i, s := range r.start {
		if g := w.WindowStartAt(i); g != s {
			t.Fatalf("%s: WindowStartAt(%d) = %v, want %v", what, i, g, s)
		}
		if g, want := w.WindowCountAt(i), len(r.samples[i]); g != want {
			t.Fatalf("%s: WindowCountAt(%d) = %d, want %d", what, i, g, want)
		}
		for _, p := range losslessPercentiles {
			want := math.NaN()
			if len(r.samples[i]) > 0 {
				want = stats.Percentile(r.samples[i], p)
			}
			if g := w.WindowQuantileAt(i, p); !sameBits(g, want) {
				t.Fatalf("%s: WindowQuantileAt(%d, %v) = %v, want %v", what, i, p, g, want)
			}
		}
		spans = append(spans, span{s, s + r.window}, span{s, s + 3*r.window})
	}
	for _, sp := range spans {
		want := r.between(sp.from, sp.to)
		got := w.Between(sp.from, sp.to)
		if !slices.EqualFunc(got, want, sameBits) {
			t.Fatalf("%s: Between(%v, %v) = %v, want %v", what, sp.from, sp.to, got, want)
		}
		if g := w.Count(sp.from, sp.to); g != len(want) {
			t.Fatalf("%s: Count(%v, %v) = %d, want %d", what, sp.from, sp.to, g, len(want))
		}
		for _, p := range losslessPercentiles {
			if g, wp := w.PercentileBetween(sp.from, sp.to, p), stats.Percentile(want, p); !sameBits(g, wp) {
				t.Fatalf("%s: PercentileBetween(%v, %v, %v) = %v, want %v", what, sp.from, sp.to, p, g, wp)
			}
		}
	}
	n := int((horizon + r.window - 1) / r.window)
	for _, p := range losslessPercentiles {
		want := make([]float64, n)
		for i := range want {
			want[i] = math.NaN()
		}
		for i, s := range r.start {
			if idx := int(s / r.window); idx < n && len(r.samples[i]) > 0 {
				want[idx] = stats.Percentile(r.samples[i], p)
			}
		}
		if g := w.PerWindowPercentile(horizon, p); !slices.EqualFunc(g, want, sameBits) {
			t.Fatalf("%s: PerWindowPercentile(%v, %v) = %v, want %v", what, horizon, p, g, want)
		}
	}
}

// losslessSample decodes one sample. Whole-nanosecond latencies (what
// sim.Time.Millis yields) are the common case; when wideEvery > 0, about one
// sample in wideEvery is instead a value the narrow format cannot hold — or
// sits on its 2³² ns edge — so windows promote at varying points.
func losslessSample(next func() byte, wideEvery byte) float64 {
	ns := func() sim.Time {
		return sim.Time(binary.LittleEndian.Uint32([]byte{next(), next(), next(), next()}))
	}
	if wideEvery == 0 || next()%wideEvery != 0 {
		return ns().Millis()
	}
	switch next() % 8 {
	case 0: // either side of 2³² ns
		return sim.Time(1<<32 + int64(next()) - 128).Millis()
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Float64frombits(0x7ff8000000000000 | uint64(next()))
	case 3:
		return -ns().Millis()
	case 4: // a utilisation share (some, like 0.2, are whole nanoseconds)
		return float64(next()) / 255
	case 5:
		return math.Inf(1 - 2*int(next()%2))
	case 6:
		return ns().Millis() + 1e-9
	default: // arbitrary bits
		var b [8]byte
		for i := range b {
			b[i] = next()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
}

// checkLossless replays a byte-coded stream on a LatencyRecorder and on
// reference collectors, comparing every read of each class collector and of
// Merged along the way and at the end. The first byte sets how often a
// sample is wide; each later op byte selects an in-order Record (with the
// class in its high bits), a late Record up to 255 s back, a Trim, a Reset
// or a mid-stream comparison.
func checkLossless(t *testing.T, data []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	rec := NewLatencyRecorder(sim.Minute)
	ref := map[string]*refWindowed{}
	classes := []string{"write", "read", "scan"}
	now := sim.Time(0)
	check := func() {
		t.Helper()
		horizon := now + sim.Minute
		for _, c := range rec.Classes() {
			compareReads(t, "class "+c, rec.Class(c), ref[c], horizon)
		}
		compareReads(t, "Merged", rec.Merged(), refMerged(sim.Minute, ref), horizon)
	}
	wideEvery := next()
	for len(data) > 0 {
		op := next()
		switch op % 16 {
		case 12:
			cutoff := now - sim.Time(next()%8)*sim.Minute
			rec.Trim(cutoff)
			for _, r := range ref {
				r.trim(cutoff)
			}
		case 13:
			rec.Reset()
			for _, r := range ref {
				r.start, r.samples = nil, nil
			}
		case 14, 15:
			check()
		default:
			at := now
			if op%16 >= 10 {
				at = max(0, now-sim.Time(next())*sim.Second)
			} else {
				now += sim.Time(next()%32) * sim.Second / 2
				at = now
			}
			c := classes[int(op>>4)%len(classes)]
			v := losslessSample(next, wideEvery)
			rec.Record(at, c, v)
			if ref[c] == nil {
				ref[c] = &refWindowed{window: sim.Minute}
			}
			ref[c].add(at, v)
		}
	}
	check()
}

// TestWholeNanosRoundTrip: every sim.Time.Millis latency below 2³² ns is
// stored narrow and read back bit-exact; values the 4-byte format cannot
// hold are refused.
func TestWholeNanosRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 100000; k++ {
		ns := rng.Int63n(1 << 32)
		switch k {
		case 0:
			ns = 0
		case 1:
			ns = 1<<32 - 1
		}
		v := sim.Time(ns).Millis()
		if u, ok := wholeNanos(v); !ok || int64(u) != ns {
			t.Fatalf("%d ns (%v ms): wholeNanos = %d, %v", ns, v, u, ok)
		}
	}
	for _, v := range []float64{
		sim.Time(1 << 32).Millis(), math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		-sim.Millisecond.Millis(), 1.0 / 3, sim.Second.Millis() + 1e-9,
	} {
		if u, ok := wholeNanos(v); ok {
			t.Fatalf("%v stored narrow as %d ns", v, u)
		}
	}
}

// TestWindowedLosslessAgainstReference is the property test: random streams
// at every wide-sample rate, from all-narrow to all-wide, read back
// identically from the 4-byte storage and the float64 reference.
func TestWindowedLosslessAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, wideEvery := range []byte{0, 1, 2, 10, 100} {
		for seed := 0; seed < 40; seed++ {
			data := make([]byte, 64+rng.Intn(2048))
			rng.Read(data)
			data[0] = wideEvery
			checkLossless(t, data)
		}
	}
}

// FuzzWindowedLossless drives checkLossless with arbitrary streams; the
// seed corpus and any crasher under testdata/fuzz/FuzzWindowedLossless
// replay under plain `go test`.
func FuzzWindowedLossless(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 1, 9, 9, 9, 9, 14})
	f.Add([]byte{3, 0x11, 7, 0, 1, 2, 3, 4, 0x2a, 1, 9, 0, 1, 2, 3, 4, 12, 2, 15, 13, 0, 5, 3, 1, 1, 1, 1})
	f.Add([]byte{1, 0, 3, 1, 0, 0x10, 3, 1, 1, 0x20, 3, 1, 2, 77, 14, 0x1b, 200, 1, 3, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		checkLossless(t, data)
	})
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestExactReadsAllocateNothing: on a warm exact collector holding narrow
// and promoted windows, the hot reads gather into pooled scratch and
// allocate nothing.
func TestExactReadsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random, so pooled scratch reallocates")
	}
	w := benchWindowed(480, 64)
	for i := 0; i < 480; i += 3 {
		w.Add(sim.Time(i)*sim.Minute+sim.Second, 0.37) // promote every third window
	}
	from, to := 200*sim.Minute, 230*sim.Minute
	for name, read := range map[string]func(){
		"PercentileBetween": func() { w.PercentileBetween(from, to, 99) },
		"WindowQuantileAt":  func() { w.WindowQuantileAt(200, 99); w.WindowQuantileAt(201, 99) },
		"Count":             func() { w.Count(from, to) },
	} {
		if n := testing.AllocsPerRun(100, read); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, n)
		}
	}
}
