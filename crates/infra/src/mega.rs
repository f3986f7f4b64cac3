//! Generated thousand-host topologies for the `figures -- mega` campaign.
//!
//! Where [`pool`](crate::pool) hand-calibrates the seven SC98
//! infrastructures, this module *generates* shards of a much larger Grid:
//! each shard is an independent multi-site deployment (its own service
//! plane plus a few sites of uniform compute workers) sized so a farm of
//! shards crosses a thousand hosts. Shards share nothing — no processes,
//! no network — so the sim farm runs them in parallel with byte-identical
//! results at any thread count, exactly like chaos campaign cells.
//!
//! The generator is deliberately plain: constant background load, no
//! availability churn, no impairments. The mega campaign measures kernel
//! and protocol throughput at scale; chaos campaigns already cover
//! adversity.

use ew_sim::{HostId, HostSpec, HostTable, NetModel, NetworkModel, SimDuration, SiteSpec};

use crate::pool::ServiceHosts;

/// Shape of one generated shard.
#[derive(Clone, Copy, Debug)]
pub struct MegaSpec {
    /// Sites per shard. Site 0 carries the service plane; every site
    /// (including 0) carries `workers_per_site` compute hosts.
    pub sites: usize,
    /// Compute hosts per site.
    pub workers_per_site: usize,
    /// Worker speed in ops/s.
    pub worker_ops: f64,
    /// Constant background load on every site.
    pub load: f64,
    /// Which network model the shard's kernel runs.
    pub model: NetworkModel,
}

impl MegaSpec {
    /// The full-campaign shard: 4 sites × 32 workers + 6 service hosts
    /// = 134 hosts, so 8 shards exceed a thousand.
    pub fn full(model: NetworkModel) -> Self {
        MegaSpec {
            sites: 4,
            workers_per_site: 32,
            worker_ops: 1e8,
            load: 0.05,
            model,
        }
    }

    /// The CI-sized shard: 2 sites × 13 workers + 6 service hosts
    /// = 32 hosts, so 2 shards give the 64-host short variant.
    pub fn short(model: NetworkModel) -> Self {
        MegaSpec {
            sites: 2,
            workers_per_site: 13,
            worker_ops: 1e8,
            load: 0.05,
            model,
        }
    }

    /// Hosts per shard: workers plus the six-host service plane.
    pub fn hosts_per_shard(&self) -> usize {
        self.sites * self.workers_per_site + 6
    }
}

/// One generated shard, ready for `Sim::new` + `Deployment::builder`.
pub struct MegaShard {
    /// Network model (consumed by `Sim::new`).
    pub net: NetModel,
    /// Host table (consumed by `Sim::new`).
    pub hosts: HostTable,
    /// Compute workers, grouped for one `InfraSupervisor`.
    pub pool: Vec<HostId>,
    /// Service placement (same shape the SC98 pool exposes).
    pub services: ServiceHosts,
}

/// Generate shard `shard_idx` of a mega campaign. Every shard has the
/// same shape; the index only names hosts/sites so traces stay readable.
/// Determinism comes from the per-shard sim seed, not from here — the
/// generator draws no randomness at all.
pub fn build_mega_shard(spec: &MegaSpec, shard_idx: usize) -> MegaShard {
    assert!(spec.sites >= 1, "a shard needs at least one site");
    let mut net = NetModel::new(0.0).with_model(spec.model);
    let sites: Vec<_> = (0..spec.sites)
        .map(|s| {
            net.add_site(SiteSpec::simple(
                &format!("m{shard_idx}s{s}"),
                SimDuration::from_millis(15),
                2.5e6,
                spec.load,
            ))
        })
        .collect();

    let mut hosts = HostTable::new();
    let svc = sites[0];
    let g0 = hosts.add(HostSpec::dedicated("gossip0", svc, 5e7));
    let g1 = hosts.add(HostSpec::dedicated("gossip1", svc, 5e7));
    let s0 = hosts.add(HostSpec::dedicated("sched0", svc, 8e7));
    let state = hosts.add(HostSpec::dedicated("state", svc, 5e7));
    let log = hosts.add(HostSpec::dedicated("log", svc, 5e7));
    // The backup scheduler sits off-site when the shard has one.
    let backup_site = sites[1 % sites.len()];
    let s1 = hosts.add(HostSpec::dedicated("sched1", backup_site, 8e7));

    let mut pool = Vec::with_capacity(spec.sites * spec.workers_per_site);
    for (si, &site) in sites.iter().enumerate() {
        for w in 0..spec.workers_per_site {
            pool.push(hosts.add(HostSpec::dedicated(
                &format!("w{si}x{w}"),
                site,
                spec.worker_ops,
            )));
        }
    }

    MegaShard {
        net,
        hosts,
        pool,
        services: ServiceHosts {
            gossips: vec![g0, g1],
            schedulers: vec![s0, s1],
            state,
            log,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_shard_fleet_crosses_a_thousand_hosts() {
        let spec = MegaSpec::full(NetworkModel::Packet);
        assert_eq!(spec.hosts_per_shard(), 134);
        assert!(spec.hosts_per_shard() * 8 >= 1000);
        let shard = build_mega_shard(&spec, 3);
        assert_eq!(shard.hosts.len(), 134);
        assert_eq!(shard.pool.len(), 128);
        assert_eq!(shard.net.site_count(), 4);
        assert_eq!(shard.net.model(), NetworkModel::Packet);
    }

    #[test]
    fn short_shard_is_the_64_host_variant() {
        let spec = MegaSpec::short(NetworkModel::Packet);
        assert_eq!(spec.hosts_per_shard() * 2, 64);
        let shard = build_mega_shard(&spec, 0);
        assert_eq!(shard.hosts.len(), 32);
    }
}
