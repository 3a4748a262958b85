//! Node-placement policies.
//!
//! The baseline places jobs on arbitrary free nodes. The reliability-
//! aware policy prefers nodes with the lowest observed failure rate
//! (Section 5.1's suggestion), and the longest-uptime policy exploits
//! the paper's *decreasing hazard* finding directly: a node that has
//! been up a long time is the least likely to fail soon.

use rand::{Rng, RngExt};

/// What a policy may observe when choosing nodes.
#[derive(Debug)]
pub struct PolicyContext<'a> {
    /// Observed historical failure rate per node (failures/year).
    pub observed_rate: &'a [f64],
    /// Current uptime of each node in seconds (time since last failure
    /// or since simulation start).
    pub uptime_secs: &'a [f64],
}

/// A node-placement policy.
pub trait Policy: std::fmt::Debug {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Choose `width` nodes from `free` (guaranteed `free.len() ≥ width`).
    /// Must return exactly `width` distinct entries of `free`.
    fn select(
        &self,
        free: &[u32],
        ctx: &PolicyContext<'_>,
        width: usize,
        rng: &mut dyn Rng,
    ) -> Vec<u32>;
}

/// Uniformly random placement — the oblivious baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RandomPlacement;

impl Policy for RandomPlacement {
    fn name(&self) -> &'static str {
        "random"
    }

    fn select(
        &self,
        free: &[u32],
        _ctx: &PolicyContext<'_>,
        width: usize,
        rng: &mut dyn Rng,
    ) -> Vec<u32> {
        // Partial Fisher–Yates over a copy.
        let mut pool = free.to_vec();
        for i in 0..width.min(pool.len()) {
            let j = rng.random_range(i..pool.len());
            pool.swap(i, j);
        }
        pool.truncate(width);
        pool
    }
}

/// Prefer the nodes with the lowest observed failure rate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeastFailureRate;

impl Policy for LeastFailureRate {
    fn name(&self) -> &'static str {
        "least-failure-rate"
    }

    fn select(
        &self,
        free: &[u32],
        ctx: &PolicyContext<'_>,
        width: usize,
        _rng: &mut dyn Rng,
    ) -> Vec<u32> {
        let mut pool = free.to_vec();
        pool.sort_by(|&a, &b| {
            ctx.observed_rate[a as usize]
                .total_cmp(&ctx.observed_rate[b as usize])
                .then(a.cmp(&b))
        });
        pool.truncate(width);
        pool
    }
}

/// Prefer the nodes that have been up the longest — optimal when the
/// hazard rate decreases with uptime (Weibull shape < 1, the paper's
/// central TBF finding).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LongestUptime;

impl Policy for LongestUptime {
    fn name(&self) -> &'static str {
        "longest-uptime"
    }

    fn select(
        &self,
        free: &[u32],
        ctx: &PolicyContext<'_>,
        width: usize,
        _rng: &mut dyn Rng,
    ) -> Vec<u32> {
        let mut pool = free.to_vec();
        pool.sort_by(|&a, &b| {
            ctx.uptime_secs[b as usize]
                .total_cmp(&ctx.uptime_secs[a as usize])
                .then(a.cmp(&b))
        });
        pool.truncate(width);
        pool
    }
}

/// Look a policy up by its report name (`random`, `least-failure-rate`,
/// `longest-uptime`; underscores accepted for hyphen) — the hook that
/// lets declarative scenario specs select a placement policy by string.
/// Returns `None` for unknown names.
pub fn by_name(name: &str) -> Option<Box<dyn Policy>> {
    match name.replace('_', "-").as_str() {
        "random" => Some(Box::new(RandomPlacement)),
        "least-failure-rate" => Some(Box::new(LeastFailureRate)),
        "longest-uptime" => Some(Box::new(LongestUptime)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx<'a>(rates: &'a [f64], uptimes: &'a [f64]) -> PolicyContext<'a> {
        PolicyContext {
            observed_rate: rates,
            uptime_secs: uptimes,
        }
    }

    #[test]
    fn random_returns_distinct_free_nodes() {
        let free = [3u32, 5, 9, 11, 20];
        let rates = vec![0.0; 21];
        let ups = vec![0.0; 21];
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let picked = RandomPlacement.select(&free, &ctx(&rates, &ups), 3, &mut rng);
            assert_eq!(picked.len(), 3);
            let mut sorted = picked.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "distinct");
            for n in &picked {
                assert!(free.contains(n));
            }
        }
    }

    #[test]
    fn random_covers_all_nodes_eventually() {
        let free = [0u32, 1, 2, 3];
        let rates = vec![0.0; 4];
        let ups = vec![0.0; 4];
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 4];
        for _ in 0..100 {
            for n in RandomPlacement.select(&free, &ctx(&rates, &ups), 1, &mut rng) {
                seen[n as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "uniform policy reaches every node");
    }

    #[test]
    fn least_failure_rate_picks_most_reliable() {
        let free = [0u32, 1, 2, 3];
        let rates = [5.0, 0.5, 2.0, 0.1];
        let ups = [0.0; 4];
        let mut rng = StdRng::seed_from_u64(3);
        let picked = LeastFailureRate.select(&free, &ctx(&rates, &ups), 2, &mut rng);
        assert_eq!(picked, vec![3, 1]);
        assert_eq!(LeastFailureRate.name(), "least-failure-rate");
    }

    #[test]
    fn longest_uptime_picks_oldest_survivors() {
        let free = [0u32, 1, 2];
        let rates = [0.0; 3];
        let ups = [100.0, 5_000.0, 700.0];
        let mut rng = StdRng::seed_from_u64(4);
        let picked = LongestUptime.select(&free, &ctx(&rates, &ups), 2, &mut rng);
        assert_eq!(picked, vec![1, 2]);
    }

    #[test]
    fn by_name_resolves_every_policy() {
        for (name, expect) in [
            ("random", "random"),
            ("least-failure-rate", "least-failure-rate"),
            ("least_failure_rate", "least-failure-rate"),
            ("longest-uptime", "longest-uptime"),
            ("longest_uptime", "longest-uptime"),
        ] {
            assert_eq!(by_name(name).unwrap().name(), expect);
        }
        assert!(by_name("fifo").is_none());
        assert!(by_name("").is_none());
    }

    #[test]
    fn policies_only_use_free_nodes() {
        let free = [7u32, 2];
        let rates = [9.0, 1.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.5];
        let ups = [0.0; 8];
        let mut rng = StdRng::seed_from_u64(5);
        for policy in [
            &LeastFailureRate as &dyn Policy,
            &LongestUptime,
            &RandomPlacement,
        ] {
            let picked = policy.select(&free, &ctx(&rates, &ups), 2, &mut rng);
            assert_eq!(picked.len(), 2);
            for n in picked {
                assert!(free.contains(&n), "{}", policy.name());
            }
        }
    }
}
