//! Quickstart: a small EveryWare deployment on the simulated Grid.
//!
//! Builds a three-site world, deploys the full service stack (Gossip pool,
//! schedulers, persistent state with the Ramsey sanity check, logging),
//! hands eight heterogeneous hosts to an infrastructure supervisor, and
//! lets the application draw power for ten simulated minutes.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use everyware::{DeployConfig, Deployment, Route};
use ew_infra::InfraSpec;
use ew_ramsey::RamseyProblem;
use ew_sched::{ClientConfig, SchedulerConfig, SchedulerServer};
use ew_sim::{HostSpec, HostTable, NetModel, Sim, SimDuration, SimTime, SiteSpec};
use ew_workload::WorkloadSpec;

fn main() {
    // 1. A world: three sites, one of them noticeably loaded.
    let mut net = NetModel::new(0.1);
    let hq = net.add_site(SiteSpec::simple(
        "hq",
        SimDuration::from_millis(10),
        2.5e6,
        0.05,
    ));
    let lab = net.add_site(SiteSpec::simple(
        "lab",
        SimDuration::from_millis(25),
        1.25e6,
        0.10,
    ));
    let campus = net.add_site(SiteSpec::simple(
        "campus",
        SimDuration::from_millis(40),
        1.25e6,
        0.30,
    ));

    // 2. Hosts: services at HQ, compute spread across the other sites with
    //    a 20x speed spread.
    let mut hosts = HostTable::new();
    let service_hosts = ew_infra::ServiceHosts {
        gossips: vec![
            hosts.add(HostSpec::dedicated("gossip-a", hq, 5e7)),
            hosts.add(HostSpec::dedicated("gossip-b", lab, 5e7)),
        ],
        schedulers: vec![
            hosts.add(HostSpec::dedicated("sched-a", hq, 8e7)),
            hosts.add(HostSpec::dedicated("sched-b", lab, 8e7)),
        ],
        state: hosts.add(HostSpec::dedicated("state", hq, 5e7)),
        log: hosts.add(HostSpec::dedicated("log", hq, 5e7)),
    };
    let compute: Vec<_> = (0..8)
        .map(|i| {
            let (site, speed) = if i < 4 { (lab, 1e8) } else { (campus, 5e6) };
            hosts.add(HostSpec::dedicated(&format!("node-{i}"), site, speed))
        })
        .collect();

    // 3. Deploy the EveryWare stack and one infrastructure.
    let mut sim = Sim::new(net, hosts, 7);
    let spec = InfraSpec {
        name: "quickstart".into(),
        hosts: compute,
        invocation_delay: SimDuration::from_secs(2),
        stagger: SimDuration::from_secs(1),
        client_template: ClientConfig {
            chunk_ops: 100_000_000,
            ops_per_step: 1_000_000,
            ..ClientConfig::default()
        },
        sample_interval: SimDuration::from_secs(60),
    };
    let dep = Deployment::builder(DeployConfig {
        sched: SchedulerConfig {
            workload: WorkloadSpec::ramsey(RamseyProblem { k: 5, n: 43 }),
            step_budget: 2_000,
            ..SchedulerConfig::default()
        },
    })
    .service_hosts(&service_hosts)
    .pool(spec, Route::Direct)
    .spawn(&mut sim);

    // 4. Draw power for ten minutes.
    let stats = sim.run_until(SimTime::from_secs(600));

    let total_ops = sim.metrics().counter("ops.total");
    println!("simulated 10 minutes in {} events", stats.events);
    println!(
        "delivered {:.3e} useful integer ops ({:.3e} ops/s sustained)",
        total_ops,
        total_ops / 600.0
    );
    println!(
        "work units completed: {:.0}",
        sim.metrics().counter("sched.results")
    );
    println!(
        "scheduler migrations of slow hosts' work: {:.0}",
        sim.metrics().counter("client.abandons")
    );
    let best = sim
        .with_process::<SchedulerServer, _>(dep.schedulers[0], |s| s.best_known.clone())
        .flatten();
    match best {
        Some((count, _)) => {
            println!("best R(5,5) coloring seen pool-wide: {count} monochromatic 5-cliques")
        }
        None => println!("no best-state synchronized yet (run longer)"),
    }
}
