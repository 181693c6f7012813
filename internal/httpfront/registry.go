package httpfront

import (
	"sort"

	"hfi/internal/faas"
	"hfi/internal/host"
	"hfi/internal/hostcall"
	"hfi/internal/sfi"
	"hfi/internal/workloads"
)

// DefaultRegistry builds the routable tenant set every serving tier
// (hfihttpd standalone, a cluster shard) exposes: the standard DefaultMix
// classes (each keeping its isolation configuration, so /v1/tenants/...
// names exercise the same (tenant, config) pool keying as the benchmarks)
// plus the hostcall guests — kv-session, stream-xform, fan-in-agg,
// hostcall-micro — under HFI with one shared world seeded by worldSeed,
// so KV state written by one tenant is visible to the others subject to
// per-tenant quotas. The "faulty" tenant traps on any non-empty body — the
// deterministic breaker-trip lever cluster hedging tests lean on.
func DefaultRegistry(worldSeed int64) map[string]Tenant {
	reg := make(map[string]Tenant)
	for _, c := range host.DefaultMix() {
		reg[c.Tenant.Name] = Tenant{Workload: c.Tenant, Iso: c.Iso}
	}
	iso := faas.Config{Name: "HFI", Scheme: sfi.HFI, World: hostcall.NewWorld(uint64(worldSeed))}
	for _, te := range workloads.HostcallTenants() {
		reg[te.Name] = Tenant{Workload: te, Iso: iso}
	}
	reg["faulty"] = Tenant{Workload: workloads.TrapTenant("faulty"), Iso: faas.StockLucet()}
	return reg
}

// RegistryNames returns reg's tenant names sorted — the stable list HTTP
// load generators draw from (see NameMix). The "faulty" trap tenant is
// excluded: sweeps and baselines measure the healthy serving path, and
// faults there are driven explicitly by tests.
func RegistryNames(reg map[string]Tenant) []string {
	names := make([]string, 0, len(reg))
	for name := range reg {
		if name == "faulty" {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NameMix is names as an open-loop mix at weight 1 each: HTTP callers
// address tenants by route name only, so host.RunOpenLoop's seeded draw
// over it is uniform.
func NameMix(names []string) []host.Class {
	mix := make([]host.Class, len(names))
	for i, name := range names {
		mix[i] = host.Class{Weight: 1, Tenant: workloads.Tenant{Name: name}}
	}
	return mix
}
