//! The scheduling study: quantify the value of per-node reliability
//! knowledge (Section 5.1's proposal) as a function of cluster
//! heterogeneity and load.

use hpcfail_exec::{derive_stream_seed, ParallelExecutor};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::error::SchedError;
use crate::policy::{LeastFailureRate, LongestUptime, Policy, RandomPlacement};
use crate::sim::{run_with_prior, Job, NodeTruth, SimConfig};

/// Configuration of one study point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudyConfig {
    /// Number of nodes in the cluster.
    pub nodes: u32,
    /// Fraction of flaky nodes.
    pub flaky_fraction: f64,
    /// Failure rate of reliable nodes (failures/year).
    pub base_rate: f64,
    /// Rate multiplier of the flaky nodes.
    pub flaky_multiplier: f64,
    /// Jobs in the backlog.
    pub jobs: u32,
    /// Work per job in days.
    pub job_days: f64,
    /// Weibull shape of node failure processes.
    pub weibull_shape: f64,
    /// Replications per policy.
    pub replications: u32,
    /// Base RNG seed.
    pub seed: u64,
}

impl StudyConfig {
    /// The default heterogeneous-cluster scenario: 16 nodes, half of
    /// them 20× flakier, 8 five-day jobs.
    pub fn default_study() -> Self {
        StudyConfig {
            nodes: 16,
            flaky_fraction: 0.5,
            base_rate: 2.0,
            flaky_multiplier: 20.0,
            jobs: 8,
            job_days: 5.0,
            weibull_shape: 0.75,
            replications: 5,
            seed: 42,
        }
    }
}

/// The outcome of one policy at one study point.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyResult {
    /// Policy name.
    pub policy: &'static str,
    /// Mean efficiency (useful / consumed node-time).
    pub efficiency: f64,
    /// Mean aborts per run.
    pub aborts: f64,
    /// Mean makespan in days.
    pub makespan_days: f64,
}

/// Compare the three placement policies at one study point. The informed
/// policies get the true rates as priors (the paper's "years of logs
/// exist" scenario).
///
/// # Errors
///
/// Propagates simulator errors (bad parameters).
pub fn compare_policies(config: &StudyConfig) -> Result<Vec<PolicyResult>, SchedError> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let nodes: Vec<NodeTruth> = (0..config.nodes)
        .map(|_| {
            let flaky = rng.random::<f64>() < config.flaky_fraction;
            NodeTruth {
                failures_per_year: config.base_rate
                    * if flaky { config.flaky_multiplier } else { 1.0 },
                weibull_shape: config.weibull_shape,
            }
        })
        .collect();
    let prior: Vec<f64> = nodes.iter().map(|n| n.failures_per_year).collect();
    let jobs = vec![
        Job {
            width: 1,
            work_secs: config.job_days * 86_400.0
        };
        config.jobs as usize
    ];
    let policies: [&(dyn Policy + Sync); 3] = [&RandomPlacement, &LeastFailureRate, &LongestUptime];
    // Replications are independent simulations: fan them out across the
    // pool, each on its own SplitMix64-derived seed stream, so the study
    // result is identical for any worker count.
    let executor = ParallelExecutor::from_env();
    let mut results = Vec::new();
    for policy in policies {
        let per_rep = executor.map_range(config.replications as usize, |rep| {
            let sim_config = SimConfig {
                mean_repair_secs: 6.0 * 3_600.0,
                horizon_secs: 4.0 * hpcfail_records::time::YEAR as f64,
                seed: derive_stream_seed(config.seed, rep as u64),
            };
            // The informed policies see the prior; random ignores it.
            run_with_prior(&nodes, policy, &jobs, &sim_config, Some(&prior))
        });
        let mut eff = 0.0;
        let mut aborts = 0.0;
        let mut makespan = 0.0;
        for m in per_rep {
            let m = m?;
            eff += m.efficiency();
            aborts += m.aborts as f64;
            makespan += m.makespan_secs / 86_400.0;
        }
        let n = config.replications as f64;
        results.push(PolicyResult {
            policy: policy.name(),
            efficiency: eff / n,
            aborts: aborts / n,
            makespan_days: makespan / n,
        });
    }
    Ok(results)
}

/// Sweep the flaky-node rate multiplier: how much heterogeneity does it
/// take before informed placement pays?
///
/// # Errors
///
/// Propagates per-point errors.
pub fn heterogeneity_sweep(
    base: &StudyConfig,
    multipliers: &[f64],
) -> Result<Vec<(f64, Vec<PolicyResult>)>, SchedError> {
    multipliers
        .iter()
        .map(|&m| {
            let config = StudyConfig {
                flaky_multiplier: m,
                ..*base
            };
            compare_policies(&config).map(|r| (m, r))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // 20 replications: with 8 five-day jobs per run the efficiency
    // estimate is noisy, and below ~10 replications the random baseline
    // can beat the informed policy on unlucky seeds. The replications
    // run in parallel, so this stays fast.
    fn quick() -> StudyConfig {
        StudyConfig {
            replications: 20,
            ..StudyConfig::default_study()
        }
    }

    #[test]
    fn three_policies_reported() {
        let results = compare_policies(&quick()).unwrap();
        assert_eq!(results.len(), 3);
        let names: Vec<&str> = results.iter().map(|r| r.policy).collect();
        assert_eq!(
            names,
            vec!["random", "least-failure-rate", "longest-uptime"]
        );
        for r in &results {
            assert!(
                (0.0..=1.0).contains(&r.efficiency),
                "{}: {}",
                r.policy,
                r.efficiency
            );
            assert!(r.makespan_days > 0.0);
        }
    }

    #[test]
    fn informed_policy_wins_on_heterogeneous_cluster() {
        let results = compare_policies(&quick()).unwrap();
        let eff = |name: &str| {
            results
                .iter()
                .find(|r| r.policy == name)
                .unwrap()
                .efficiency
        };
        assert!(
            eff("least-failure-rate") > eff("random"),
            "aware {} vs random {}",
            eff("least-failure-rate"),
            eff("random")
        );
    }

    #[test]
    fn homogeneous_cluster_gives_no_edge() {
        // With multiplier 1 the cluster is uniform: knowledge is useless
        // and all policies land within noise of each other.
        let config = StudyConfig {
            flaky_multiplier: 1.0,
            ..quick()
        };
        let results = compare_policies(&config).unwrap();
        let effs: Vec<f64> = results.iter().map(|r| r.efficiency).collect();
        let max = effs.iter().cloned().fold(f64::MIN, f64::max);
        let min = effs.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min < 0.08, "spread {}", max - min);
    }

    #[test]
    fn sweep_shape() {
        let sweep = heterogeneity_sweep(&quick(), &[1.0, 20.0]).unwrap();
        assert_eq!(sweep.len(), 2);
        let edge = |point: &(f64, Vec<PolicyResult>)| {
            let eff = |name: &str| {
                point
                    .1
                    .iter()
                    .find(|r| r.policy == name)
                    .unwrap()
                    .efficiency
            };
            eff("least-failure-rate") - eff("random")
        };
        // The informed policy's edge grows with heterogeneity.
        assert!(edge(&sweep[1]) > edge(&sweep[0]) - 0.02);
    }
}
