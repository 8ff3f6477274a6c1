// Package ursa is a reproduction of "Ursa: Lightweight Resource Management
// for Cloud-Native Microservices" (HPCA 2024) as a self-contained Go
// library. It bundles:
//
//   - a deterministic discrete-event microservice simulator (replicas,
//     processor-sharing CPUs, nested/event-driven RPC and message queues)
//     standing in for the paper's Kubernetes + Dapr testbed;
//   - Ursa itself: backpressure-free threshold profiling (§III), per-service
//     LPR exploration (Algorithm 1), the SLA-decomposition performance model
//     and MIP optimization engine (§IV), the threshold resource controller
//     and anomaly detector (§V);
//   - the competing systems of §VII-B — Sinan (CNN + boosted trees), Firm
//     (per-service RL agents) and two autoscaling configurations — with all
//     ML implemented from scratch on the standard library;
//   - the §VI benchmark applications (social network, media service, video
//     processing pipeline) and the harnesses that regenerate every table
//     and figure of the paper's evaluation.
//
// # Quick start
//
//	eng := ursa.NewEngine(1)
//	spec := ursa.SocialNetwork()
//	app, _ := ursa.NewApp(eng, spec)
//
//	// Explore the allocation space (Algorithm 1) ...
//	ex := &ursa.Explorer{Spec: spec, Mix: ursa.SocialNetworkMix(), TotalRPS: 100}
//	profiles, _, _ := ex.ExploreAll(ursa.ExploreConfig{})
//
//	// ... and let Ursa manage the deployment.
//	mgr := ursa.NewManager(spec, profiles)
//	mgr.Run(app, ursa.SocialNetworkMix(), 100, ursa.ControllerConfig{}, ursa.AnomalyConfig{})
//	gen := ursa.NewGenerator(eng, app, ursa.Constant{Value: 100}, ursa.SocialNetworkMix())
//	gen.Start()
//	eng.RunUntil(30 * ursa.Minute)
//
// See examples/ for complete programs and DESIGN.md for the system map.
package ursa

import (
	"ursa/internal/baselines/autoscale"
	"ursa/internal/cluster"
	"ursa/internal/core"
	"ursa/internal/services"
	"ursa/internal/sim"
	"ursa/internal/topology"
	"ursa/internal/trace"
	"ursa/internal/workload"
)

// Simulation engine.
type (
	// Engine is the deterministic discrete-event simulator all components
	// run on.
	Engine = sim.Engine
	// Time is simulated time in nanoseconds since the epoch.
	Time = sim.Time
)

// Time units.
const (
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
	Hour        = sim.Hour
)

// NewEngine creates a simulation engine with the given seed.
func NewEngine(seed int64) *Engine { return sim.NewEngine(seed) }

// Application modelling.
type (
	// App is a deployed application on the simulator.
	App = services.App
	// AppSpec declares an application: services plus request classes.
	AppSpec = services.AppSpec
	// ServiceSpec declares one microservice.
	ServiceSpec = services.ServiceSpec
	// ClassSpec declares one request class or priority with its SLA.
	ClassSpec = services.ClassSpec
	// Step is one handler operation (Compute, Call, Spawn, Par).
	Step = services.Step
	// Compute burns CPU for a log-normally distributed duration.
	Compute = services.Compute
	// Call invokes another service via RPC or message queue.
	Call = services.Call
	// Spawn enqueues a new measured job of another class.
	Spawn = services.Spawn
	// Par runs branches concurrently within a handler.
	Par = services.Par
	// CallMode selects nested RPC, event-driven RPC, or MQ.
	CallMode = services.CallMode
)

// Communication modes (Fig. 1).
const (
	NestedRPC = services.NestedRPC
	EventRPC  = services.EventRPC
	MQ        = services.MQ
)

// NewApp validates a spec and deploys it on the engine.
func NewApp(eng *Engine, spec AppSpec) (*App, error) { return services.NewApp(eng, spec) }

// Seq builds a handler body from steps.
func Seq(steps ...Step) []Step { return services.Seq(steps...) }

// Workload generation.
type (
	// Pattern is a time-varying request rate.
	Pattern = workload.Pattern
	// Constant is a fixed-rate pattern.
	Constant = workload.Constant
	// Diurnal ramps between Base and Peak over Period.
	Diurnal = workload.Diurnal
	// Burst multiplies Base by Factor during a window.
	Burst = workload.Burst
	// Modulate superimposes a burst on any base pattern.
	Modulate = workload.Modulate
	// Mix is a weighted request-class mix.
	Mix = workload.Mix
	// Generator injects open-loop Poisson load into an app.
	Generator = workload.Generator
)

// NewGenerator builds a load generator; call Start to begin.
func NewGenerator(eng *Engine, app *App, p Pattern, mix Mix) *Generator {
	return workload.New(eng, app, p, mix)
}

// Ursa's core (the paper's contribution).
type (
	// Explorer runs per-service LPR exploration (Algorithm 1).
	Explorer = core.Explorer
	// ExploreConfig parameterises exploration.
	ExploreConfig = core.ExploreConfig
	// Profile is one service's exploration output.
	Profile = core.Profile
	// ProfilerConfig parameterises backpressure-threshold profiling (§III).
	ProfilerConfig = core.ProfilerConfig
	// BackpressureProfile is the §III profiling outcome.
	BackpressureProfile = core.BackpressureResult
	// Model is the §IV performance model.
	Model = core.Model
	// Solution is the optimised per-service LPR thresholds.
	Solution = core.Solution
	// ClassTarget is one end-to-end SLA constraint.
	ClassTarget = core.ClassTarget
	// Manager is the assembled Ursa system (Fig. 5).
	Manager = core.Manager
	// ControllerConfig parameterises the resource controller.
	ControllerConfig = core.ControllerConfig
	// AnomalyConfig parameterises the anomaly detector.
	AnomalyConfig = core.AnomalyConfig
)

// NewManager assembles Ursa from exploration output.
func NewManager(spec AppSpec, profiles map[string]*Profile) *Manager {
	return core.NewManager(spec, profiles)
}

// ProfileBackpressureThreshold runs the Fig. 3 profiling engine against one
// service and returns its backpressure-free CPU utilisation threshold. The
// sweep runs top-down and stops once the threshold is known, so Steps is
// only the evaluated suffix of cfg.Factors; ProfileBackpressureCurve returns
// the whole sweep with the same threshold.
func ProfileBackpressureThreshold(svc ServiceSpec, classRPS map[string]float64, cfg ProfilerConfig) BackpressureProfile {
	return core.ProfileBackpressureThreshold(svc, classRPS, cfg)
}

// ProfileBackpressureCurve runs every step of the profiling sweep (the
// Fig. 4 curves) and returns them with the backpressure-free threshold.
func ProfileBackpressureCurve(svc ServiceSpec, classRPS map[string]float64, cfg ProfilerConfig) BackpressureProfile {
	return core.ProfileBackpressureCurve(svc, classRPS, cfg)
}

// TargetsFor derives SLA targets for every class of a spec.
func TargetsFor(spec AppSpec) []ClassTarget { return core.TargetsFor(spec) }

// Benchmark applications (§VI).
var (
	// SocialNetwork builds the re-implemented social network.
	SocialNetwork = topology.SocialNetwork
	// SocialNetworkMix is its §VII-C request mix.
	SocialNetworkMix = topology.SocialNetworkMix
	// VanillaSocialNetwork disables the ML services.
	VanillaSocialNetwork = topology.VanillaSocialNetwork
	// MediaService builds the re-implemented media service.
	MediaService = topology.MediaService
	// MediaServiceMix is its request mix.
	MediaServiceMix = topology.MediaServiceMix
	// VideoPipeline builds the video processing pipeline.
	VideoPipeline = topology.VideoPipeline
	// VideoPipelineMix builds a high:low priority mix.
	VideoPipelineMix = topology.VideoPipelineMix
	// BackpressureChain builds the §III study chain.
	BackpressureChain = topology.BackpressureChain
)

// Baseline resource managers (§VII-B), exposed for comparisons.

// AutoscalerConfig configures a threshold autoscaler.
type AutoscalerConfig = autoscale.Config

// Autoscaler is a CPU-threshold step scaler.
type Autoscaler = autoscale.Autoscaler

// NewAutoscaler builds an autoscaler with a custom policy.
func NewAutoscaler(cfg AutoscalerConfig) *Autoscaler { return autoscale.New(cfg) }

// AutoscalerA returns the default AWS-step-scaling policy (Auto-a).
func AutoscalerA() AutoscalerConfig { return autoscale.AutoA() }

// AutoscalerB returns the conservative tuned policy (Auto-b).
func AutoscalerB() AutoscalerConfig { return autoscale.AutoB() }

// Tracing.

// Tracer samples jobs and records per-service spans; attach one to an App
// via its Tracer field.
type Tracer = trace.Tracer

// NewTracer builds a tracer sampling one of every n jobs, retaining at most
// cap completed traces.
func NewTracer(n, cap int) *Tracer { return trace.NewTracer(n, cap) }

// Cluster capacity.

// Cluster is a pool of physical nodes gating replica placement.
type Cluster = cluster.Cluster

// NewCluster builds a cluster from node CPU capacities.
func NewCluster(capacities ...float64) *Cluster {
	return cluster.New(cluster.WorstFit, capacities...)
}

// PaperTestbed reproduces the §VII-A cluster (8 nodes, 40–88 CPUs).
func PaperTestbed() *Cluster { return cluster.PaperTestbed() }

// NewAppOnCluster deploys an application bounded by a cluster's capacity.
func NewAppOnCluster(eng *Engine, spec AppSpec, cl *Cluster) (*App, error) {
	return services.NewAppOnCluster(eng, spec, cl)
}

// SaveProfiles / LoadProfiles persist exploration output as JSON.
var (
	SaveProfiles = core.SaveProfiles
	LoadProfiles = core.LoadProfiles
)
