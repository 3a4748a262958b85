//! The trace generator: per-node Weibull renewal processes with lifecycle
//! and diurnal intensity modulation, heterogeneous node rates, failure
//! clustering, calibrated root causes and repair times, and correlated
//! early-era bursts. (DESIGN.md §7 documents the calibration mechanics.)
//!
//! ## Construction (one system)
//!
//! 1. The target failure count is `annual_failures × production_years`
//!    (Fig. 2(a) calibration), shrunk for expected aftershock and burst
//!    extras and corrected by inverting the renewal function
//!    `M(x) ≈ x + S∞·x/(x+0.7)` so small systems don't overshoot.
//! 2. Each node gets a rate weight: workload multiplier (graphics 3.8×,
//!    front-end 2.5×) or a lognormal heterogeneity draw for compute
//!    nodes — this is what makes per-node failure counts overdispersed
//!    versus Poisson (Fig. 3(b)).
//! 3. Per node, failure instants follow a **Weibull renewal process**
//!    (steady shape 0.75; a burstier 0.55 during the first 36 months,
//!    driving Fig. 6(a)'s high early variability). Gaps are drawn in
//!    operational time and mapped to wall time through the integral of
//!    the intensity `m(t) = lifecycle(age)/⟨lifecycle⟩ × diurnal(t)`
//!    (time rescaling), so the local event rate tracks `m(t)` exactly
//!    while gap shapes stay Weibull (Figs. 4 and 5).
//! 4. Each failure may trigger an **aftershock** — a same-node follow-up
//!    a few hours later (a repair that didn't take). Without this
//!    clustering the system-wide superposition would converge to Poisson
//!    (Palm–Khintchine) and contradict Fig. 6(d).
//! 5. Every failure gets a root cause from the per-type mix (Fig. 1), a
//!    detailed cause (Section 4), and a Table 2-calibrated repair time.
//! 6. On systems configured with bursts, early-age primaries trigger
//!    simultaneous failures on other nodes — reproducing the >30%
//!    zero-gap inter-arrivals of Fig. 6(c).

use hpcfail_exec::{derive_stream_seed, ParallelExecutor, SeedSequence};
use hpcfail_records::{
    Catalog, FailureRecord, FailureTrace, NodeId, SystemId, SystemSpec, Timestamp,
};
use hpcfail_stats::dist::{Continuous, Weibull};
use hpcfail_stats::special::ln_gamma;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::causes::DetailModel;
use crate::config::{Calibration, SystemConfig};
use crate::error::SynthError;
use crate::repair::RepairModel;

/// Lower clamp on the intensity multiplier, guarding against huge time
/// jumps when lifecycle × diurnal bottoms out.
const MIN_MODULATION: f64 = 0.05;

/// Fine (diurnal-resolving) and coarse (whole-week) steps of the
/// operational-time integrator, in seconds.
const HOUR_F: f64 = 3_600.0;
const WEEK_F: f64 = 7.0 * 86_400.0;

/// Generates calibrated synthetic failure traces.
///
/// Node event streams are generated in parallel across the executor's
/// workers. Every node draws from its own RNG stream derived from the
/// per-system root seed, and per-node record batches are concatenated in
/// node order, so the output trace is **byte-identical for every worker
/// count** (including the 1-worker serial fallback).
#[derive(Debug)]
pub struct TraceGenerator<'a> {
    catalog: &'a Catalog,
    calibration: &'a Calibration,
    repair: RepairModel,
    executor: ParallelExecutor,
}

impl<'a> TraceGenerator<'a> {
    /// Create a generator over a catalog and calibration. The executor is
    /// taken from the environment ([`ParallelExecutor::from_env`], honoring
    /// `HPCFAIL_THREADS`).
    ///
    /// # Errors
    ///
    /// Propagates construction errors from the repair model.
    pub fn new(catalog: &'a Catalog, calibration: &'a Calibration) -> Result<Self, SynthError> {
        Ok(TraceGenerator {
            catalog,
            calibration,
            repair: RepairModel::calibrated(catalog, calibration)?,
            executor: ParallelExecutor::from_env(),
        })
    }

    /// Replace the executor (e.g. to force a worker count in tests).
    #[must_use]
    pub fn with_executor(mut self, executor: ParallelExecutor) -> Self {
        self.executor = executor;
        self
    }

    /// Generate the trace of a single system.
    ///
    /// Deterministic in `(system, seed)`: the same arguments always
    /// produce the same trace.
    ///
    /// # Errors
    ///
    /// [`SynthError::UnknownSystem`] if the system has no catalog entry or
    /// calibration.
    pub fn system_trace(&self, system: SystemId, seed: u64) -> Result<FailureTrace, SynthError> {
        let spec = self
            .catalog
            .system(system)
            .map_err(|_| SynthError::UnknownSystem { id: system.get() })?;
        let config = self
            .calibration
            .system(system)
            .ok_or(SynthError::UnknownSystem { id: system.get() })?;
        // Decorrelate per-system streams while keeping determinism: each
        // system gets its own SplitMix64-derived root seed, from which
        // every node derives its own streams.
        let root = derive_stream_seed(seed, u64::from(system.get()));
        self.generate_system(spec, config, root)
    }

    /// Generate the full 22-system site trace.
    ///
    /// # Errors
    ///
    /// Propagates the first per-system failure.
    pub fn site_trace(&self, seed: u64) -> Result<FailureTrace, SynthError> {
        let mut all = FailureTrace::new();
        for spec in self.catalog.systems() {
            let trace = self.system_trace(spec.id(), seed)?;
            all.merge(trace);
        }
        Ok(all)
    }

    /// Generate one system from its root seed.
    ///
    /// Node `n` owns two seed streams: `2n` for its heterogeneity weight
    /// draw and `2n + 1` for its event loop. Streams depend only on
    /// `(root, n)`, never on which worker runs the node, and per-node
    /// batches are concatenated in node order — the source of the
    /// worker-count independence guarantee.
    fn generate_system(
        &self,
        spec: &SystemSpec,
        config: &SystemConfig,
        root: u64,
    ) -> Result<FailureTrace, SynthError> {
        let streams = SeedSequence::new(root);
        let start = spec.production_start();
        let end = spec.production_end();
        let start_secs = start.as_secs() as f64;
        let end_secs = end.as_secs() as f64;
        let lifetime_secs = (end - start) as f64;
        let years = spec.production_years();
        // Aftershocks add ~q extra failures per primary; shrink the
        // primary target so the configured annual rate is the total rate.
        // The lifetime-average aftershock probability accounts for the
        // early-instability boost over the months it is active.
        let total_months_f = lifetime_secs / hpcfail_records::time::MONTH as f64;
        let boosted = (config.aftershock_probability * config.early_aftershock_multiplier).min(0.9);
        let early_share = (config.early_instability_months / total_months_f).clamp(0.0, 1.0);
        let q_eff = boosted * early_share + config.aftershock_probability * (1.0 - early_share);
        let target_total = config.annual_failures * years / (1.0 + q_eff);

        // Mean lifecycle intensity over the production span (monthly grid)
        // — used to normalize so the configured annual rate is the
        // lifetime average, not the steady-state floor.
        let total_months = total_months_f.ceil() as usize;
        let lifecycle_mean = (0..total_months.max(1))
            .map(|m| config.lifecycle.intensity(m as f64 + 0.5))
            .sum::<f64>()
            / total_months.max(1) as f64;

        // Burst extras inflate the event count during the burst window;
        // shrink the primary target by the expected inflation, weighting
        // by the share of events the lifecycle places inside the window.
        let burst_inflation = match config.burst {
            Some(b) if spec.nodes() > 1 => {
                let window_months = (b.until_month.min(total_months_f)).max(0.0) as usize;
                let in_window: f64 = (0..window_months)
                    .map(|m| config.lifecycle.intensity(m as f64 + 0.5))
                    .sum();
                let total: f64 = lifecycle_mean * total_months.max(1) as f64;
                let event_share = if total > 0.0 { in_window / total } else { 0.0 };
                1.0 + event_share * b.probability * (b.min_extra + b.max_extra) as f64 / 2.0
            }
            _ => 1.0,
        };

        // Per-node rate weights, each drawn from the node's own weight
        // stream (index 2n) so a node's weight never depends on how many
        // nodes precede it in generation order. Graphics and front-end
        // multipliers already encode those nodes' deviation from the
        // fleet; only compute nodes get the lognormal heterogeneity draw
        // (unit mean: exp(σZ − σ²/2)). The compute draws are collected
        // first and pushed through the chunked inverse-CDF kernel in one
        // batch (DESIGN.md §13); each node still takes exactly one draw
        // from its own stream and the transform performs the scalar
        // operations verbatim, so the weights are bit-identical to a
        // per-node scalar transform.
        let node_count = spec.nodes();
        let sigma = config.node_heterogeneity_sigma;
        let mut weights: Vec<f64> = Vec::with_capacity(node_count as usize);
        let mut compute_nodes: Vec<usize> = Vec::with_capacity(node_count as usize);
        let mut zs: Vec<f64> = Vec::with_capacity(node_count as usize);
        for n in 0..node_count {
            let node = NodeId::new(n);
            match spec.workload_of(node) {
                hpcfail_records::Workload::Graphics => weights.push(config.graphics_multiplier),
                hpcfail_records::Workload::FrontEnd => weights.push(config.frontend_multiplier),
                hpcfail_records::Workload::Compute => {
                    let mut wrng = StdRng::seed_from_u64(streams.stream(2 * u64::from(n)));
                    compute_nodes.push(weights.len());
                    zs.push(crate::open_unit(&mut wrng));
                    weights.push(0.0);
                }
            }
        }
        hpcfail_stats::special::inverse_standard_normal_cdf_slice(&mut zs);
        let half_sigma_sq = sigma * sigma / 2.0;
        for (&slot, &z) in compute_nodes.iter().zip(&zs) {
            weights[slot] = (sigma * z - half_sigma_sq).exp();
        }
        let weight_total: f64 = weights.iter().sum();

        let detail_model = DetailModel::for_type(spec.hardware());
        let gamma_factor = ln_gamma(1.0 + 1.0 / config.tbf_shape).exp();
        // Renewal start-up surplus: an ordinary renewal process over a
        // horizon of n mean gaps yields ≈ n + (C²−1)/2 events (renewal
        // theorem second-order term); subtract it from the per-node
        // target so overdispersed gaps don't inflate the calibrated
        // rate. The process *starts* in the immature era, so the surplus
        // is governed by the burstier early shape (C² ≈ 3.9 at 0.55).
        let early_g1 = ln_gamma(1.0 + 1.0 / config.early_tbf_shape).exp();
        let early_g2 = ln_gamma(1.0 + 2.0 / config.early_tbf_shape).exp();
        let gap_c2 = early_g2 / (early_g1 * early_g1) - 1.0;
        let startup_surplus = ((gap_c2 - 1.0) / 2.0).max(0.0);

        // Fan the per-node event loops out across the pool. Each node's
        // loop runs on its own RNG stream (index 2n + 1), so the batch a
        // node produces is a pure function of (root, n) and the fan-out is
        // safe to run with any worker count.
        let per_node = self.executor.map_indexed(
            &weights,
            |n, &w| -> Result<Vec<FailureRecord>, SynthError> {
                let mut rng = StdRng::seed_from_u64(streams.stream(2 * n as u64 + 1));
                let node = NodeId::new(n as u32);
                let mut node_records: Vec<FailureRecord> = Vec::new();
                let rng = &mut rng;
                let base = target_total / burst_inflation * w / weight_total;
                // Renewal-function inversion: an ordinary renewal process
                // over a horizon of x mean gaps yields M(x) ≈ x + S∞·x/(x+b)
                // events (S∞ = (C²−1)/2; b ≈ 0.7 measured empirically for
                // Weibull shapes 0.55–0.75). Solve M(x) = base for x so the
                // generated count hits the target even when the start-up
                // surplus rivals the target itself.
                const TAPER_B: f64 = 0.7;
                let q = TAPER_B + startup_surplus - base;
                let expected = 0.5 * (-q + (q * q + 4.0 * base * TAPER_B).sqrt());
                if expected <= 0.05 {
                    return Ok(node_records);
                }
                let mean_gap_secs = lifetime_secs / expected;
                let scale = mean_gap_secs / gamma_factor;
                let gap_dist = Weibull::new(config.tbf_shape, scale)?;
                // Same mean gap, burstier shape for the immature era.
                let early_gap_dist =
                    Weibull::new(config.early_tbf_shape, mean_gap_secs / early_g1)?;

                // Ordinary renewal: the first failure arrives after a full
                // gap from production start (the system is new: early shape).
                let mut t = advance_by_operational_gap(
                    start_secs,
                    early_gap_dist.sample(rng),
                    start_secs,
                    end_secs,
                    lifecycle_mean,
                    config,
                );
                while t < end_secs {
                    let at = Timestamp::from_secs(t as u64);
                    let age_months = (t - start_secs) / hpcfail_records::time::MONTH as f64;
                    // Emit the failure at the current (already modulated) time.
                    let record = self.make_record(spec, config, &detail_model, node, at, rng)?;
                    let age_ok = config
                        .burst
                        .map(|b| age_months < b.until_month)
                        .unwrap_or(false);
                    node_records.push(record);
                    // Aftershock: the repair didn't take — the same node fails
                    // again a few hours later. Immature systems cluster more.
                    let aftershock_p = if age_months < config.early_instability_months {
                        (config.aftershock_probability * config.early_aftershock_multiplier)
                            .min(0.9)
                    } else {
                        config.aftershock_probability
                    };
                    if rng.random::<f64>() < aftershock_p {
                        let delay_secs =
                            -crate::open_unit(rng).ln() * config.aftershock_mean_hours * 3_600.0;
                        let shock_t = t + delay_secs.max(60.0);
                        if shock_t < end_secs {
                            node_records.push(self.make_record(
                                spec,
                                config,
                                &detail_model,
                                node,
                                Timestamp::from_secs(shock_t as u64),
                                rng,
                            )?);
                        }
                    }
                    // Correlated burst: extra simultaneous failures on other
                    // nodes during the early era.
                    if let Some(burst) = config.burst {
                        if age_ok && rng.random::<f64>() < burst.probability && node_count > 1 {
                            let extra = rng.random_range(
                                burst.min_extra..=burst.max_extra.max(burst.min_extra),
                            );
                            for _ in 0..extra {
                                let other = loop {
                                    let candidate = rng.random_range(0..node_count);
                                    if candidate != n as u32 {
                                        break NodeId::new(candidate);
                                    }
                                };
                                node_records.push(self.make_record(
                                    spec,
                                    config,
                                    &detail_model,
                                    other,
                                    at,
                                    rng,
                                )?);
                            }
                        }
                    }
                    // Advance by a Weibull gap measured in operational time,
                    // mapped to wall time through the intensity integral. The
                    // immature era draws from the burstier early shape.
                    let gap = if age_months < config.early_instability_months {
                        early_gap_dist.sample(rng)
                    } else {
                        gap_dist.sample(rng)
                    };
                    t = advance_by_operational_gap(
                        t,
                        gap,
                        start_secs,
                        end_secs,
                        lifecycle_mean,
                        config,
                    );
                }
                Ok(node_records)
            },
        );

        // Concatenate per-node batches in node order; `from_records`'s
        // stable sort then yields the same trace no matter how the batches
        // were scheduled across workers.
        let mut records: Vec<FailureRecord> = Vec::with_capacity(target_total as usize + 16);
        for batch in per_node {
            records.extend(batch?);
        }
        Ok(FailureTrace::from_records(records))
    }

    fn make_record(
        &self,
        spec: &SystemSpec,
        config: &SystemConfig,
        detail_model: &DetailModel,
        node: NodeId,
        at: Timestamp,
        rng: &mut StdRng,
    ) -> Result<FailureRecord, SynthError> {
        let category = config.cause_mix.sample(rng);
        let detail = detail_model.sample(category, rng);
        let repair_secs = self.repair.sample_secs(category, spec.hardware(), rng);
        let record = FailureRecord::new(
            spec.id(),
            node,
            at,
            at.saturating_add_secs(repair_secs),
            spec.workload_of(node),
            detail,
        )?;
        Ok(record)
    }
}

/// Map an operational-time gap to wall-clock time by integrating the
/// intensity `m(t) = lifecycle(age)/⟨lifecycle⟩ × diurnal(t)` starting at
/// wall time `t_wall` (time-rescaling theorem: a unit-rate renewal gap `g`
/// corresponds to the wall interval over which `∫ m dt = g`).
///
/// Hourly steps resolve the Fig. 5 hour-of-day pattern; long quiet
/// stretches take a fast weekly path, valid because the diurnal profile
/// integrates to exactly 1 over whole weeks, leaving only the lifecycle
/// term.
///
/// The walk stops as soon as `t >= horizon` (the production end) and
/// returns that `t`: the caller discards any event at or past the
/// horizon, so integrating the rest of a terminal gap is wasted work.
/// The walk draws no randomness and `t` never decreases, so a gap that
/// ends before the horizon never trips the check and runs exactly the
/// same float operations as an unbounded walk; a gap that crosses it
/// returns a value in `[horizon, horizon + one week]`.
fn advance_by_operational_gap(
    t_wall: f64,
    gap_operational: f64,
    production_start: f64,
    horizon: f64,
    lifecycle_mean: f64,
    config: &SystemConfig,
) -> f64 {
    let month_f = hpcfail_records::time::MONTH as f64;
    let mut t = t_wall;
    let mut remaining = gap_operational;
    while t < horizon {
        let age_months = (t - production_start).max(0.0) / month_f;
        let life = (config.lifecycle.intensity(age_months) / lifecycle_mean).max(MIN_MODULATION);
        // Coarse phase: consume whole weeks while far from the event.
        if remaining > 2.0 * life * WEEK_F {
            t += WEEK_F;
            remaining -= life * WEEK_F;
            continue;
        }
        // Fine phase: hourly resolution with the full diurnal modulation.
        // The step is `min(remaining / m, HOUR_F)`, written as a branch:
        // a full hour moves `t` by a constant, so the next hour's `exp`
        // and division need not wait for this one's (DESIGN §7). The
        // partial step stays a loop exit: a select would put the division
        // back on `t`'s dependency chain.
        let m =
            (life * config.diurnal.intensity(Timestamp::from_secs(t as u64))).max(MIN_MODULATION);
        let q = remaining / m;
        if q < HOUR_F {
            t += q;
            remaining -= q * m;
            if remaining <= 1e-9 {
                return t;
            }
            continue;
        }
        t += HOUR_F;
        remaining -= HOUR_F * m;
        if remaining <= 1e-9 {
            return t;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_records::RootCause;

    fn generator_fixture() -> (Catalog, Calibration) {
        (Catalog::lanl(), Calibration::lanl())
    }

    #[test]
    fn deterministic_in_seed() {
        let (catalog, cal) = generator_fixture();
        let g = TraceGenerator::new(&catalog, &cal).unwrap();
        let a = g.system_trace(SystemId::new(12), 42).unwrap();
        let b = g.system_trace(SystemId::new(12), 42).unwrap();
        assert_eq!(a, b);
        let c = g.system_trace(SystemId::new(12), 43).unwrap();
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn unknown_system_rejected() {
        let (catalog, cal) = generator_fixture();
        let g = TraceGenerator::new(&catalog, &cal).unwrap();
        assert!(matches!(
            g.system_trace(SystemId::new(99), 1),
            Err(SynthError::UnknownSystem { id: 99 })
        ));
    }

    #[test]
    fn annual_rate_calibration_holds() {
        let (catalog, cal) = generator_fixture();
        let g = TraceGenerator::new(&catalog, &cal).unwrap();
        // System 12: 50/year target, small enough to be fast.
        let trace = g.system_trace(SystemId::new(12), 7).unwrap();
        let spec = catalog.system(SystemId::new(12)).unwrap();
        let per_year = trace.len() as f64 / spec.production_years();
        assert!(
            (per_year - 50.0).abs() / 50.0 < 0.25,
            "measured {per_year}/year vs target 50"
        );
    }

    #[test]
    fn records_are_in_production_window_and_valid() {
        let (catalog, cal) = generator_fixture();
        let g = TraceGenerator::new(&catalog, &cal).unwrap();
        let trace = g.system_trace(SystemId::new(13), 3).unwrap();
        let spec = catalog.system(SystemId::new(13)).unwrap();
        assert!(!trace.is_empty());
        for r in trace.iter() {
            assert!(r.start() >= spec.production_start());
            assert!(r.start() < spec.production_end());
            assert!(r.end() >= r.start());
            assert!(r.node().get() < spec.nodes());
            assert_eq!(r.system(), spec.id());
            assert!(r.downtime_secs() >= 60);
        }
    }

    #[test]
    fn cause_mix_shows_through() {
        let (catalog, cal) = generator_fixture();
        let g = TraceGenerator::new(&catalog, &cal).unwrap();
        let trace = g.system_trace(SystemId::new(7), 5).unwrap(); // type E, big
        let counts = trace.index().all().count_by_cause();
        let total = trace.len() as f64;
        let hw = *counts.get(&RootCause::Hardware).unwrap_or(&0) as f64 / total;
        assert!((hw - 0.62).abs() < 0.05, "hardware fraction {hw}");
        let unk = *counts.get(&RootCause::Unknown).unwrap_or(&0) as f64 / total;
        assert!(unk < 0.07, "type E unknown fraction {unk} must be small");
    }

    #[test]
    fn frontend_node_fails_more() {
        // Per-node counts are small, so average over several seeds; the
        // configured ratio is 2.5x.
        let (catalog, cal) = generator_fixture();
        let g = TraceGenerator::new(&catalog, &cal).unwrap();
        let spec = catalog.system(SystemId::new(5)).unwrap();
        let mut fe = 0u64;
        let mut compute = 0u64;
        for seed in 0..5u64 {
            let trace = g.system_trace(SystemId::new(5), seed).unwrap();
            let counts = trace
                .index()
                .failures_per_node(SystemId::new(5), spec.nodes());
            fe += counts[0];
            compute += counts[1..].iter().sum::<u64>();
        }
        let fe_mean = fe as f64 / 5.0;
        let compute_mean = compute as f64 / (5.0 * (spec.nodes() - 1) as f64);
        assert!(
            fe_mean > 1.5 * compute_mean,
            "front-end {fe_mean} vs compute mean {compute_mean}"
        );
    }

    #[test]
    fn bursts_create_zero_gaps_early() {
        let (catalog, cal) = generator_fixture();
        let g = TraceGenerator::new(&catalog, &cal).unwrap();
        let trace = g.system_trace(SystemId::new(20), 2).unwrap();
        let spec = catalog.system(SystemId::new(20)).unwrap();
        // Early window: first 3 years.
        let early_end = spec.production_start() + 3 * hpcfail_records::time::YEAR;
        let index = trace.index();
        let zero_fraction = |from, to| {
            let gaps = index.all().window(from, to).interarrival_secs().unwrap();
            gaps.iter().filter(|&&g| g == 0.0).count() as f64 / gaps.len() as f64
        };
        let zf_early = zero_fraction(spec.production_start(), early_end);
        let zf_late = zero_fraction(early_end, spec.production_end());
        assert!(
            zf_early > 0.25,
            "early zero-gap fraction {zf_early} (paper: >30%)"
        );
        assert!(zf_late < 0.1, "late zero-gap fraction {zf_late}");
    }

    /// The signature of [`advance_by_operational_gap`].
    type Walk = fn(f64, f64, f64, f64, f64, &SystemConfig) -> f64;

    /// A seeded sweep of `(t_wall, gap)` walks over every lifecycle shape
    /// and both diurnal profiles, each walk run unbounded and bounded at
    /// `horizon`. Calls `check(unbounded, bounded, horizon)` per walk.
    fn sweep_integrator(walk: Walk, mut check: impl FnMut(f64, f64, f64)) {
        use crate::diurnal::DiurnalProfile;
        use crate::lifecycle::LifecycleShape;
        use hpcfail_records::time::{MONTH, YEAR};

        let (catalog, cal) = generator_fixture();
        let spec = catalog.system(SystemId::new(20)).unwrap();
        let production_start = spec.production_start().as_secs() as f64;
        let horizon = production_start + (6 * YEAR) as f64;
        let mut rng = StdRng::seed_from_u64(2006);
        for lifecycle in [
            LifecycleShape::early_drop_default(),
            LifecycleShape::ramp_default(),
            LifecycleShape::Flat,
        ] {
            for diurnal in [DiurnalProfile::lanl_default(), DiurnalProfile::flat()] {
                let mut config = cal.system(SystemId::new(20)).unwrap().clone();
                config.lifecycle = lifecycle;
                config.diurnal = diurnal;
                let lifecycle_mean = (0..72)
                    .map(|m| lifecycle.intensity(m as f64 + 0.5))
                    .sum::<f64>()
                    / 72.0;
                for _ in 0..200 {
                    let t_wall =
                        production_start + rng.random::<f64>() * (horizon - production_start);
                    // Log-uniform operational gaps from a minute to ten
                    // years: short gaps land well inside the horizon, long
                    // ones cross it.
                    let gap = (60f64.ln()
                        + rng.random::<f64>() * (120.0 * MONTH as f64 / 60.0).ln())
                    .exp();
                    let walk =
                        |h: f64| walk(t_wall, gap, production_start, h, lifecycle_mean, &config);
                    check(walk(f64::INFINITY), walk(horizon), horizon);
                }
            }
        }
    }

    #[test]
    fn bounded_walk_is_bit_identical_before_the_horizon() {
        let mut inside = 0;
        sweep_integrator(advance_by_operational_gap, |unbounded, bounded, horizon| {
            if unbounded < horizon {
                inside += 1;
                assert_eq!(bounded.to_bits(), unbounded.to_bits());
            }
        });
        assert!(inside > 100, "sweep too thin: {inside} walks end inside");
    }

    #[test]
    fn bounded_walk_stops_within_a_week_of_the_horizon() {
        let mut crossing = 0;
        sweep_integrator(advance_by_operational_gap, |unbounded, bounded, horizon| {
            if unbounded >= horizon {
                crossing += 1;
                assert!(
                    bounded >= horizon && bounded <= horizon + WEEK_F,
                    "bounded walk returned {bounded}, horizon {horizon}"
                );
                assert!(bounded <= unbounded);
            }
        });
        assert!(crossing > 100, "sweep too thin: {crossing} walks cross");
    }

    /// Reference for [`advance_by_operational_gap`]: the same walk with
    /// its fine step in `min` form, `(remaining / m).min(HOUR_F)`.
    fn min_form_walk(
        t_wall: f64,
        gap_operational: f64,
        production_start: f64,
        horizon: f64,
        lifecycle_mean: f64,
        config: &SystemConfig,
    ) -> f64 {
        let month_f = hpcfail_records::time::MONTH as f64;
        let mut t = t_wall;
        let mut remaining = gap_operational;
        while t < horizon {
            let age_months = (t - production_start).max(0.0) / month_f;
            let life =
                (config.lifecycle.intensity(age_months) / lifecycle_mean).max(MIN_MODULATION);
            if remaining > 2.0 * life * WEEK_F {
                t += WEEK_F;
                remaining -= life * WEEK_F;
                continue;
            }
            let m = (life * config.diurnal.intensity(Timestamp::from_secs(t as u64)))
                .max(MIN_MODULATION);
            let step = (remaining / m).min(HOUR_F);
            t += step;
            remaining -= step * m;
            if remaining <= 1e-9 {
                return t;
            }
        }
        t
    }

    #[test]
    fn branch_walk_matches_the_min_form_bit_for_bit() {
        let mut walks = Vec::new();
        sweep_integrator(advance_by_operational_gap, |unbounded, bounded, _| {
            walks.push((unbounded.to_bits(), bounded.to_bits()));
        });
        let mut reference = Vec::new();
        sweep_integrator(min_form_walk, |unbounded, bounded, _| {
            reference.push((unbounded.to_bits(), bounded.to_bits()));
        });
        assert_eq!(walks.len(), 6 * 200);
        assert_eq!(walks, reference);
    }

    /// Walks of one fine step's worth of operational time from exact hour
    /// boundaries: gaps of `HOUR_F × m` and its neighbours a few ulps away,
    /// where `remaining / m` lands on `HOUR_F` exactly, or below it while
    /// the product `HOUR_F × m` does not. A walk from a real production
    /// start rounds a step one ulp short of an hour away in `t`; one from
    /// epoch zero shows it, so those starts sweep many normalizers (and
    /// with them many `m`).
    #[test]
    fn branch_walk_matches_the_min_form_at_full_hour_quotients() {
        use hpcfail_records::time::{MONTH, YEAR};

        let (catalog, cal) = generator_fixture();
        let config = cal.system(SystemId::new(20)).unwrap();
        let real_start = catalog
            .system(SystemId::new(20))
            .unwrap()
            .production_start()
            .as_secs() as f64;
        let real_starts = (0..16).flat_map(|i| {
            (0..6 * 8760).step_by(37).map(move |hour| {
                let t_wall = (real_start / HOUR_F).ceil() * HOUR_F + f64::from(hour) * HOUR_F;
                (real_start, 1.0 + f64::from(i) / 16.0, t_wall)
            })
        });
        let zero_starts = (0..4096).map(|i| (0.0, 1.0 + f64::from(i) / 4096.0, 0.0));
        let (mut exact, mut split, mut split_at_zero) = (0, 0, 0);
        for (production_start, lifecycle_mean, t_wall) in real_starts.chain(zero_starts) {
            let horizon = production_start + (6 * YEAR) as f64;
            let age_months = (t_wall - production_start) / MONTH as f64;
            let life =
                (config.lifecycle.intensity(age_months) / lifecycle_mean).max(MIN_MODULATION);
            let m = (life
                * config
                    .diurnal
                    .intensity(Timestamp::from_secs(t_wall as u64)))
            .max(MIN_MODULATION);
            let mut gap = (HOUR_F * m).next_down().next_down().next_down();
            for _ in 0..7 {
                let splits = gap / m < HOUR_F && gap >= HOUR_F * m;
                exact += usize::from(gap / m == HOUR_F);
                split += usize::from(splits);
                split_at_zero += usize::from(splits && t_wall == 0.0);
                for h in [horizon, f64::INFINITY] {
                    let walk =
                        |f: Walk| f(t_wall, gap, production_start, h, lifecycle_mean, config);
                    assert_eq!(
                        walk(advance_by_operational_gap).to_bits(),
                        walk(min_form_walk).to_bits(),
                        "start {t_wall}, gap {gap}, horizon {h}"
                    );
                }
                gap = gap.next_up();
            }
        }
        assert!(exact > 1000, "only {exact} gaps give an exact full hour");
        assert!(split > 100, "only {split} gaps split quotient and product");
        assert!(split_at_zero > 0, "no split gap from epoch zero");
    }

    #[test]
    fn site_trace_covers_all_systems() {
        let (catalog, cal) = generator_fixture();
        let g = TraceGenerator::new(&catalog, &cal).unwrap();
        let site = g.site_trace(1).unwrap();
        let by_system = site.index().count_by_system();
        assert_eq!(by_system.len(), 22, "every system contributes records");
        // Total magnitude: Σ annual × years is in the paper's ~23000 zone.
        assert!(
            site.len() > 10_000 && site.len() < 60_000,
            "site trace has {} records",
            site.len()
        );
    }
}
