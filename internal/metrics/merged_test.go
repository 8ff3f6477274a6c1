package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ursa/internal/sim"
)

// sameFloat is bit equality with NaN equal to NaN (PerWindowPercentile's
// "no data" marker).
func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// TestLatencyRecorderMergedMatchesSingleCollector feeds one interleaved
// multi-class stream to a LatencyRecorder and to a single all-class
// collector, with late samples routed to closed (sealed) and never-opened
// windows and a Trim part-way through, then holds every order-statistic read
// of Merged() to the single collector's, bit for bit, in both modes.
func TestLatencyRecorderMergedMatchesSingleCollector(t *testing.T) {
	for _, mode := range []struct {
		name  string
		alpha float64
	}{{"exact", 0}, {"sketch", 0.01}} {
		t.Run(mode.name, func(t *testing.T) {
			rec := NewLatencyRecorder(sim.Minute)
			all := NewWindowed(sim.Minute)
			if mode.alpha > 0 {
				rec = NewLatencyRecorderSketch(sim.Minute, mode.alpha)
				all = NewWindowedSketch(sim.Minute, mode.alpha)
			}
			rng := rand.New(rand.NewSource(7))
			classes := []string{"write", "read", "scan"}
			record := func(at sim.Time) {
				v := rng.ExpFloat64() * 20
				if rng.Intn(25) == 0 {
					v = 0
				}
				c := classes[rng.Intn(len(classes))]
				rec.Record(at, c, v)
				all.Add(at, v)
			}
			now := sim.Time(0)
			feed := func(until sim.Time) {
				for now < until {
					now += sim.Time(rng.Int63n(int64(2 * sim.Second)))
					record(now)
					if rng.Intn(50) == 0 { // a late sample, up to 3 minutes old
						record(max(0, now-sim.Time(rng.Int63n(int64(3*sim.Minute)))))
					}
				}
			}
			feed(6 * sim.Minute)
			record(9*sim.Minute + sim.Second) // opens minute 9 ahead of the stream…
			feed(12 * sim.Minute)             // …so minutes 6–8 arrive out of order
			rec.Trim(4 * sim.Minute)
			all.Trim(4 * sim.Minute)
			record(2 * sim.Minute) // a late sample before the trim cutoff reopens its window
			feed(15 * sim.Minute)
			horizon := 16 * sim.Minute

			m := rec.Merged()
			if m.Sketched() != all.Sketched() || m.Alpha() != all.Alpha() || m.Window() != all.Window() {
				t.Fatalf("merged view mode/window = (%v %v %v), want (%v %v %v)",
					m.Sketched(), m.Alpha(), m.Window(), all.Sketched(), all.Alpha(), all.Window())
			}
			if m.NumWindows() != all.NumWindows() {
				t.Fatalf("NumWindows = %d, want %d", m.NumWindows(), all.NumWindows())
			}
			for from := sim.Time(0); from < horizon; from += sim.Minute {
				for to := from; to <= horizon; to += 3 * sim.Minute {
					if g, w := m.Count(from, to), all.Count(from, to); g != w {
						t.Fatalf("Count(%v, %v) = %d, want %d", from, to, g, w)
					}
					for _, p := range []float64{0, 50, 95, 99, 100} {
						if g, w := m.PercentileBetween(from, to, p), all.PercentileBetween(from, to, p); !sameFloat(g, w) {
							t.Fatalf("PercentileBetween(%v, %v, %v) = %v, want %v", from, to, p, g, w)
						}
					}
				}
			}
			for _, p := range []float64{50, 99} {
				g, w := m.PerWindowPercentile(horizon, p), all.PerWindowPercentile(horizon, p)
				if !slices.EqualFunc(g, w, sameFloat) {
					t.Fatalf("PerWindowPercentile(p%v) = %v, want %v", p, g, w)
				}
			}
			qs := []float64{50, 90, 99}
			if g, w := WindowPoints("rt", nil, m, qs), WindowPoints("rt", nil, all, qs); !reflect.DeepEqual(g, w) {
				t.Fatalf("WindowPoints diverged:\n got %+v\nwant %+v", g, w)
			}
			if mode.alpha == 0 {
				g, w := m.Between(0, math.MaxInt64), all.Between(0, math.MaxInt64)
				slices.Sort(g)
				slices.Sort(w)
				if !slices.Equal(g, w) {
					t.Fatal("merged samples are not the single collector's multiset")
				}
			}

			// The view is a copy: writing to it leaves the recorder alone.
			before := rec.Merged().Count(0, horizon)
			m.Add(5*sim.Minute, 1)
			if got := rec.Merged().Count(0, horizon); got != before {
				t.Fatalf("adding to the merged view changed the recorder: %d → %d samples", before, got)
			}
		})
	}
}

// TestLatencyRecorderMergedEmpty: a recorder with no samples merges to an
// empty collector of its own mode.
func TestLatencyRecorderMergedEmpty(t *testing.T) {
	for _, rec := range []*LatencyRecorder{NewLatencyRecorder(sim.Minute), NewLatencyRecorderSketch(sim.Minute, 0.01)} {
		m := rec.Merged()
		if m.NumWindows() != 0 || m.Count(0, math.MaxInt64) != 0 || m.PercentileBetween(0, sim.Hour, 99) != 0 {
			t.Fatalf("empty recorder merged to %d windows", m.NumWindows())
		}
	}
}

// TestWindowedSealsClosedWindows: once a newer window opens, the closed
// exact windows hold their samples at exact capacity — 4 B per whole-
// nanosecond latency in a narrow window, 8 B per sample in a promoted one,
// plus a per-window constant — and a late sample still lands in its sealed
// window, promoting it when it is not a whole nanosecond count.
func TestWindowedSealsClosedWindows(t *testing.T) {
	const windows, perWindow = 40, 1000 // 1000 samples leave append slack before sealing
	w := NewWindowed(sim.Minute)
	for i := 0; i < windows; i++ {
		for j := 0; j < perWindow; j++ {
			v := float64(j) // whole milliseconds: narrow
			if i%4 == 1 {
				v = float64(j) / 7 // utilisation-like floats: the window goes wide
			}
			w.Add(sim.Time(i)*sim.Minute+sim.Time(j)*sim.Millisecond, v)
		}
	}
	w.Add(windows*sim.Minute, 1) // close the last full window
	narrow, wide := 0, 0
	for i := 0; i < windows; i++ {
		e := w.exact[w.head+i]
		switch {
		case i%4 != 1 && e.wide == nil && len(e.ns) == perWindow && cap(e.ns) == perWindow:
			narrow += perWindow
		case i%4 == 1 && e.ns == nil && len(e.wide) == perWindow && cap(e.wide) == perWindow:
			wide += perWindow
		default:
			t.Fatalf("closed window %d (wide: %v): %d narrow (cap %d), %d wide (cap %d); want %d at exact capacity",
				i, i%4 == 1, len(e.ns), cap(e.ns), len(e.wide), cap(e.wide), perWindow)
		}
	}
	// Per window: 8 B of start time and a 48 B header, each at most
	// doubled by the window arrays' own append growth.
	const perWindowConst = 2 * (8 + exactWindowHeader)
	samples := windows*perWindow + 1
	open := 4 * cap(w.exact[len(w.exact)-1].ns) // the newest window is not sealed
	if got, limit := w.FootprintBytes(), 4*narrow+8*wide+open+perWindowConst*w.NumWindows(); got > limit {
		t.Fatalf("FootprintBytes = %d for %d narrow and %d wide samples in %d windows, want ≤ %d",
			got, narrow, wide, w.NumWindows(), limit)
	}

	w.Add(3*sim.Minute+sim.Second, -1) // late sample into a sealed narrow window
	v := w.Between(3*sim.Minute, 4*sim.Minute)
	if len(v) != perWindow+1 || v[0] != 0 || v[perWindow-1] != perWindow-1 || v[perWindow] != -1 {
		t.Fatalf("late sample: window 3 holds %d samples ending %v", len(v), v[len(v)-1])
	}
	if e := w.exact[w.head+3]; e.ns != nil || len(e.wide) != perWindow+1 {
		t.Fatalf("late negative sample did not promote window 3: %d narrow, %d wide", len(e.ns), len(e.wide))
	}
	if got := w.Count(0, math.MaxInt64); got != samples+1 {
		t.Fatalf("Count = %d, want %d", got, samples+1)
	}
}
