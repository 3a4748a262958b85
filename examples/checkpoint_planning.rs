//! Checkpoint planning from measured failure statistics.
//!
//! Fits a Weibull to a system's inter-arrival times (as the paper does in
//! Fig. 6), derives checkpoint intervals, and simulates a month-long job
//! under three strategies.
//!
//! ```sh
//! cargo run -p hpcfail --example checkpoint_planning
//! ```

use hpcfail::checkpoint::daly::{daly_interval, young_interval};
use hpcfail::checkpoint::sim::{simulate, JobConfig};
use hpcfail::checkpoint::strategies::{HazardAware, Periodic, Strategy};
use hpcfail::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Measure: per-node inter-arrival gaps of system 20, late era.
    let system = SystemId::new(20);
    let trace = hpcfail::synth::scenario::system_trace(system, 42)?;
    let gaps: Vec<f64> = trace
        .index()
        .all()
        .per_node_interarrival_secs()
        .into_iter()
        .filter(|&g| g > 0.0)
        .collect();
    let weibull = Weibull::fit_mle(&gaps)?;
    println!(
        "fitted node-level TBF: Weibull shape {:.2}, scale {:.0} s (mean {:.1} days)",
        weibull.shape(),
        weibull.scale(),
        weibull.mean() / 86_400.0
    );

    // 2. Plan: closed-form intervals from the fitted mean.
    let checkpoint_cost = 300.0; // 5-minute checkpoint
    let young = young_interval(checkpoint_cost, weibull.mean())?;
    let daly = daly_interval(checkpoint_cost, weibull.mean())?;
    println!(
        "young interval {:.1} h, daly interval {:.1} h",
        young / 3_600.0,
        daly / 3_600.0
    );

    // 3. Simulate a 30-day job under the fitted failure process.
    let job = JobConfig {
        total_work_secs: 30.0 * 86_400.0,
        checkpoint_cost_secs: checkpoint_cost,
        restart_cost_secs: 600.0,
    };
    let repair = LogNormal::from_median_mean(54.0 * 60.0, 355.0 * 60.0)?; // Table 2 "All"
    let strategies: Vec<Box<dyn Strategy>> = vec![
        Box::new(Periodic::new(young)?),
        Box::new(Periodic::new(daly)?),
        Box::new(HazardAware::new(weibull, checkpoint_cost)?),
    ];
    println!("\n30-day job, 5-min checkpoints, Table-2 repairs:");
    for strategy in &strategies {
        let mut waste = 0.0;
        let reps = 10;
        for seed in 0..reps {
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = simulate(&job, strategy.as_ref(), &weibull, &repair, &mut rng)?;
            waste += outcome.waste_fraction();
        }
        println!(
            "  {:<14} mean waste {:.2}%",
            strategy.name(),
            waste / reps as f64 * 100.0
        );
    }
    Ok(())
}
