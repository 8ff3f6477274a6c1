package topology

import (
	"testing"

	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/stats"
	"ursa/internal/workload"
)

func TestAllSpecsValidate(t *testing.T) {
	for _, app := range Apps() {
		spec := app.Spec
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", app.Name, err)
		}
	}
	chain := BackpressureChain(services.NestedRPC)
	if err := chain.Validate(); err != nil {
		t.Errorf("chain: %v", err)
	}
}

func TestVanillaDropsMLServices(t *testing.T) {
	v := VanillaSocialNetwork()
	for _, s := range v.Services {
		if s.Name == "sentiment-ml" || s.Name == "object-detect-ml" {
			t.Fatalf("vanilla still contains %s", s.Name)
		}
	}
	if v.Class(SentimentAnalysis) != nil || v.Class(ObjectDetect) != nil {
		t.Fatal("vanilla still declares ML classes")
	}
	if err := v.Validate(); err != nil {
		t.Fatalf("vanilla spec invalid: %v", err)
	}
	// Original is untouched (deep-copy semantics for handlers we modify).
	full := SocialNetwork()
	if full.ServiceSpecByName("image-store") == nil {
		t.Fatal("full spec broken")
	}
	found := false
	for _, st := range full.ServiceSpecByName("image-store").Handlers[UploadImage] {
		if sp, ok := st.(services.Spawn); ok && sp.Class == ObjectDetect {
			found = true
		}
	}
	if !found {
		t.Fatal("full social network lost its object-detect spawn")
	}
}

// runApp drives an app at the given total RPS for the given duration and
// returns the app for inspection.
func runApp(t *testing.T, spec services.AppSpec, mix workload.Mix, rps float64, dur sim.Time, seed int64) *services.App {
	t.Helper()
	eng := sim.NewEngine(seed)
	app := services.MustNewApp(eng, spec)
	g := workload.New(eng, app, workload.Constant{Value: rps}, mix)
	g.Start()
	eng.RunUntil(dur)
	return app
}

func TestSocialNetworkMeetsSLAsAtModerateLoad(t *testing.T) {
	app := runApp(t, SocialNetwork(), SocialNetworkMix(), 100, 10*sim.Minute, 31)
	if app.CompletedJobs() == 0 {
		t.Fatal("no jobs completed")
	}
	for _, cs := range app.Spec.Classes {
		rec := app.E2E.Class(cs.Name)
		if rec == nil {
			t.Errorf("class %s never completed", cs.Name)
			continue
		}
		// Skip the warm-up minute.
		lat := rec.Between(sim.Minute, 10*sim.Minute)
		p := stats.Percentile(lat, cs.SLAPercentile)
		if p > cs.SLAMillis {
			t.Errorf("%s: p%.0f = %.1fms exceeds SLA %.0fms at moderate load",
				cs.Name, cs.SLAPercentile, p, cs.SLAMillis)
		}
		if p < cs.SLAMillis*0.02 {
			t.Errorf("%s: p%.0f = %.1fms is implausibly far below SLA %.0fms (mis-scaled workload?)",
				cs.Name, cs.SLAPercentile, p, cs.SLAMillis)
		}
	}
}

func TestMediaServiceMeetsSLAsAtModerateLoad(t *testing.T) {
	app := runApp(t, MediaService(), MediaServiceMix(), 60, 10*sim.Minute, 32)
	for _, cs := range app.Spec.Classes {
		rec := app.E2E.Class(cs.Name)
		if rec == nil {
			t.Errorf("class %s never completed", cs.Name)
			continue
		}
		lat := rec.Between(sim.Minute, 10*sim.Minute)
		p := stats.Percentile(lat, cs.SLAPercentile)
		if p > cs.SLAMillis {
			t.Errorf("%s: p%.0f = %.1fms exceeds SLA %.0fms", cs.Name, cs.SLAPercentile, p, cs.SLAMillis)
		}
	}
}

func TestVideoPipelineMeetsSLAsAtModerateLoad(t *testing.T) {
	app := runApp(t, VideoPipeline(), VideoPipelineMix(50, 50), 4, 20*sim.Minute, 33)
	for _, cs := range app.Spec.Classes {
		rec := app.E2E.Class(cs.Name)
		if rec == nil {
			t.Errorf("class %s never completed", cs.Name)
			continue
		}
		lat := rec.Between(2*sim.Minute, 20*sim.Minute)
		p := stats.Percentile(lat, cs.SLAPercentile)
		if p > cs.SLAMillis {
			t.Errorf("%s: p%.0f = %.1fms exceeds SLA %.0fms", cs.Name, cs.SLAPercentile, p, cs.SLAMillis)
		}
	}
}

func TestVideoPipelinePriorityInversionImpossible(t *testing.T) {
	// Under pressure, high-priority p99 must stay well below low-priority
	// p99: low-priority waits, high-priority doesn't.
	app := runApp(t, VideoPipeline(), VideoPipelineMix(25, 75), 7, 20*sim.Minute, 34)
	hi := stats.Percentile(app.E2E.Class(HighPriority).Between(2*sim.Minute, 20*sim.Minute), 99)
	lo := stats.Percentile(app.E2E.Class(LowPriority).Between(2*sim.Minute, 20*sim.Minute), 99)
	if hi >= lo {
		t.Fatalf("priority inversion: high p99=%.0fms ≥ low p99=%.0fms", hi, lo)
	}
}

func TestSocialNetworkDerivedClassesFlow(t *testing.T) {
	// Uploading a post must spawn update-timeline and sentiment jobs;
	// uploading an image must spawn object-detect jobs.
	app := runApp(t, SocialNetwork(), workload.Mix{UploadPost: 1, UploadImage: 1}, 20, 5*sim.Minute, 35)
	for _, derived := range []string{UpdateTimeline, SentimentAnalysis, ObjectDetect} {
		rec := app.E2E.Class(derived)
		if rec == nil || rec.Count(0, 5*sim.Minute) == 0 {
			t.Errorf("derived class %s produced no completions", derived)
		}
	}
}

func TestMediaDerivedClassesFlow(t *testing.T) {
	app := runApp(t, MediaService(), workload.Mix{UploadVideo: 1}, 2, 10*sim.Minute, 36)
	for _, derived := range []string{TranscodeVideo, GenerateThumbnail} {
		rec := app.E2E.Class(derived)
		if rec == nil || rec.Count(0, 10*sim.Minute) == 0 {
			t.Errorf("derived class %s produced no completions", derived)
		}
	}
}

func TestChainTierNames(t *testing.T) {
	if ChainTier(1) != "tier1" || ChainTier(5) != "tier5" {
		t.Fatal("ChainTier naming wrong")
	}
}
