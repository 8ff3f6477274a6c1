package spec

import "fmt"

// fleetSeedStride separates per-tenant generator seed streams; distinct from
// the corpus stride so a fleet never reuses corpus topologies for the same
// master seed.
const fleetSeedStride = 2000003

// FleetParams parameterises the multi-tenant fleet generator: independent
// tenant applications drawn from the same seeded topology generator, sized
// for coexistence on one shared cluster.
type FleetParams struct {
	// Prefix names tenants "<Prefix>-NN" (default "tenant").
	Prefix string
	// Seed drives the per-tenant generator streams.
	Seed int64
}

func (p *FleetParams) defaults() {
	if p.Prefix == "" {
		p.Prefix = "tenant"
	}
}

// FleetMember builds tenant i of the fleet. Member i depends only on
// (Prefix, Seed, i), so a 4-tenant fleet is a prefix of the 32-tenant fleet
// and sweeps over tenant counts share per-tenant work. Two calls with equal
// arguments produce byte-identical files, like Generate.
// Members stay lean (depth ≤ 3, 4–8 target cores, cycling by index): fleets
// scale by tenant count, not by per-tenant size. SLA headroom is fixed at a
// generous 6× — unlike the adversarial corpus, a fleet should mostly admit,
// so capacity (not SLA infeasibility) is what admission control arbitrates.
func FleetMember(p FleetParams, i int) (*File, error) {
	p.defaults()
	return Generate(GenParams{
		Name:        fmt.Sprintf("%s-%02d", p.Prefix, i),
		Seed:        p.Seed*fleetSeedStride + int64(i),
		MinDepth:    2,
		MaxDepth:    3,
		TargetCores: []float64{4, 6, 8}[i%3],
		SLAHeadroom: 6,
	})
}
