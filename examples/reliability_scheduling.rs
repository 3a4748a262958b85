//! Reliability-aware scheduling on a heterogeneous cluster.
//!
//! Builds per-node reliability profiles from a failure trace (as a real
//! site would from its logs), then compares random placement against
//! placement informed by those profiles — the use case Section 5.1 of
//! the paper proposes.
//!
//! ```sh
//! cargo run -p hpcfail --example reliability_scheduling
//! ```

use hpcfail::prelude::*;
use hpcfail::sched::cluster::{profiles_from_index, reliability_ranking};
use hpcfail::sched::policy::{LeastFailureRate, LongestUptime, Policy, RandomPlacement};
use hpcfail::sched::sim::{run_with_prior, Job, NodeTruth, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Learn per-node failure rates from system 20's history.
    let system = SystemId::new(20);
    let trace = hpcfail::synth::scenario::system_trace(system, 42)?;
    let catalog = Catalog::lanl();
    let spec = catalog.system(system)?;
    let profiles = profiles_from_index(
        &trace.index(),
        system,
        spec.nodes(),
        spec.production_years(),
    )?;
    let ranking = reliability_ranking(&profiles);
    println!(
        "most reliable nodes: {:?}; least reliable: {:?}",
        &ranking[..5],
        &ranking[ranking.len() - 5..]
    );
    println!(
        "(the graphics nodes 21-23 should appear among the least reliable — \
         the paper's Fig 3(a))"
    );

    // 2. Build a simulated cluster whose ground truth mirrors those
    //    profiles, and a backlog of narrow five-day jobs.
    let nodes: Vec<NodeTruth> = profiles
        .iter()
        .map(|p| NodeTruth {
            failures_per_year: p.failures_per_year,
            weibull_shape: 0.75,
        })
        .collect();
    let prior: Vec<f64> = profiles.iter().map(|p| p.failures_per_year).collect();
    let jobs = vec![
        Job {
            width: 1,
            work_secs: 5.0 * 86_400.0
        };
        20
    ];
    let config = SimConfig {
        mean_repair_secs: 6.0 * 3_600.0,
        horizon_secs: 2.0 * 365.25 * 86_400.0,
        seed: 7,
    };

    // 3. Compare policies.
    println!("\npolicy comparison (20 five-day jobs, 49 nodes):");
    let policies: Vec<Box<dyn Policy>> = vec![
        Box::new(RandomPlacement),
        Box::new(LeastFailureRate),
        Box::new(LongestUptime),
    ];
    for policy in &policies {
        let mut eff = 0.0;
        let mut aborts = 0;
        let reps = 5;
        for seed in 0..reps {
            let c = SimConfig { seed, ..config };
            let m = run_with_prior(&nodes, policy.as_ref(), &jobs, &c, Some(&prior))?;
            eff += m.efficiency();
            aborts += m.aborts;
        }
        println!(
            "  {:<20} efficiency {:.1}%  aborts/run {:.1}",
            policy.name(),
            eff / reps as f64 * 100.0,
            aborts as f64 / reps as f64
        );
    }
    Ok(())
}
