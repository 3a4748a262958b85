//! Trace-driven checkpoint simulation: run a job against the *actual*
//! failure timeline of a node from a trace's [`TraceIndex`], rather than a
//! fitted distribution. This is the strongest validation a site can do —
//! "had we run this job on node X starting at time T with interval τ,
//! what would have happened?"

use hpcfail_records::{NodeId, SystemId, Timestamp, TraceIndex};

use crate::error::CheckpointError;
use crate::sim::{JobConfig, SimOutcome};
use crate::strategies::Strategy;

/// The failure timeline of one node: `(fail_at, back_up_at)` pairs in
/// seconds since the epoch, sorted by failure time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeTimeline {
    events: Vec<(u64, u64)>,
}

impl NodeTimeline {
    /// Extract a node's timeline from a trace's [`TraceIndex`] — the
    /// node's records are one contiguous run slice, so replaying every
    /// node of a system touches each record exactly once overall.
    pub fn from_index(index: &TraceIndex<'_>, system: SystemId, node: NodeId) -> Self {
        let events = index
            .node(system, node)
            .iter()
            .map(|r| (r.start().as_secs(), r.end().as_secs()))
            .collect();
        NodeTimeline { events }
    }

    /// Build directly from `(fail, repaired)` pairs; unsorted input is
    /// sorted, pairs with `repaired < fail` are rejected.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::InvalidParameter`] for an inverted pair.
    pub fn from_events(mut events: Vec<(u64, u64)>) -> Result<Self, CheckpointError> {
        for &(f, r) in &events {
            if r < f {
                return Err(CheckpointError::InvalidParameter {
                    name: "repair_before_failure",
                    value: f as f64,
                });
            }
        }
        events.sort_unstable();
        Ok(NodeTimeline { events })
    }

    /// Number of failures on the timeline.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the node never failed.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The first failure at or after `t`, as `(fail, back_up)`.
    fn next_failure_at(&self, t: u64) -> Option<(u64, u64)> {
        let idx = self.events.partition_point(|&(f, _)| f < t);
        self.events.get(idx).copied()
    }
}

/// Replay a job on a node's historical failure timeline.
///
/// The job starts at `start`; checkpoints follow `strategy`; every
/// historical failure that lands mid-execution costs the uncommitted
/// work, the recorded repair downtime, and the restart cost. The returned
/// outcome satisfies the same conservation law as the stochastic
/// simulator.
///
/// # Errors
///
/// [`CheckpointError::InvalidParameter`] for a bad job config;
/// [`CheckpointError::NoProgress`] if the timeline ends the job never
/// completes (impossible by construction: after the last recorded failure
/// the node stays up forever).
pub fn replay(
    job: &JobConfig,
    strategy: &dyn Strategy,
    timeline: &NodeTimeline,
    start: Timestamp,
) -> Result<SimOutcome, CheckpointError> {
    job.validate()?;
    let mut out = SimOutcome::default();
    let mut committed = 0.0f64;
    let delta = job.checkpoint_cost_secs;
    // Wall clock in absolute seconds (f64 for sub-second bookkeeping).
    let mut clock = start.as_secs() as f64;

    while committed < job.total_work_secs {
        let failure = timeline.next_failure_at(clock.ceil() as u64);
        let fail_at = failure.map(|(f, _)| f as f64).unwrap_or(f64::INFINITY);
        let mut segment_elapsed = 0.0f64;
        let segment_start = clock;

        loop {
            let tau = strategy.interval(segment_elapsed).max(1e-9);
            let remaining = job.total_work_secs - committed;
            let work_chunk = tau.min(remaining);
            let is_final = work_chunk >= remaining - 1e-12;
            let cycle = work_chunk + if is_final { 0.0 } else { delta };

            if segment_start + segment_elapsed + cycle <= fail_at {
                segment_elapsed += cycle;
                committed += work_chunk;
                out.useful_secs += work_chunk;
                if !is_final {
                    out.checkpoint_secs += delta;
                }
                if committed >= job.total_work_secs - 1e-12 {
                    clock = segment_start + segment_elapsed;
                    out.wall_secs = clock - start.as_secs() as f64;
                    return Ok(out);
                }
            } else {
                let into_cycle = fail_at - (segment_start + segment_elapsed);
                out.lost_secs += into_cycle.max(0.0);
                out.failures += 1;
                let (_, back_up) = failure.expect("fail_at finite implies event");
                let down = back_up as f64 - fail_at;
                out.downtime_secs += down;
                out.restart_secs += job.restart_cost_secs;
                clock = back_up as f64 + job.restart_cost_secs;
                break;
            }
        }
    }
    out.wall_secs = clock - start.as_secs() as f64;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::Periodic;

    fn job(work_hours: f64) -> JobConfig {
        JobConfig {
            total_work_secs: work_hours * 3_600.0,
            checkpoint_cost_secs: 60.0,
            restart_cost_secs: 120.0,
        }
    }

    #[test]
    fn timeline_construction() {
        let t = NodeTimeline::from_events(vec![(300, 400), (100, 200)]).unwrap();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.next_failure_at(0), Some((100, 200)));
        assert_eq!(t.next_failure_at(150), Some((300, 400)));
        assert_eq!(t.next_failure_at(301), None);
        assert!(NodeTimeline::from_events(vec![(200, 100)]).is_err());
    }

    #[test]
    fn quiet_timeline_runs_clean() {
        let timeline = NodeTimeline::from_events(vec![]).unwrap();
        let strategy = Periodic::new(3_600.0).unwrap();
        let out = replay(&job(10.0), &strategy, &timeline, Timestamp::from_secs(0)).unwrap();
        assert_eq!(out.failures, 0);
        assert!((out.useful_secs - 36_000.0).abs() < 1e-9);
        // 10 hourly chunks → 9 checkpoints.
        assert!((out.checkpoint_secs - 9.0 * 60.0).abs() < 1e-9);
        assert!(out.conserves_time());
    }

    #[test]
    fn failure_mid_job_costs_rework_and_downtime() {
        // One failure 90 minutes in (mid second chunk), node back after
        // 30 minutes.
        let timeline = NodeTimeline::from_events(vec![(90 * 60, 120 * 60)]).unwrap();
        let strategy = Periodic::new(3_600.0).unwrap();
        let out = replay(&job(3.0), &strategy, &timeline, Timestamp::from_secs(0)).unwrap();
        assert_eq!(out.failures, 1);
        // Lost: the 29 minutes into the second chunk (after the first
        // chunk's checkpoint at 61 min).
        assert!(
            (out.lost_secs - 29.0 * 60.0).abs() < 1.0,
            "lost {}",
            out.lost_secs
        );
        assert!((out.downtime_secs - 30.0 * 60.0).abs() < 1e-9);
        assert!(out.conserves_time(), "{out:?}");
        assert!((out.useful_secs - 3.0 * 3_600.0).abs() < 1e-9);
    }

    #[test]
    fn failure_during_downtime_window_not_double_counted() {
        // Two recorded failures, the second while the node was already
        // down — replay resumes after the first repair, then hits the
        // second failure normally if it is still ahead.
        let timeline = NodeTimeline::from_events(vec![
            (3_600, 7_200),
            (7_000, 7_300), // starts before the first repair completes
        ])
        .unwrap();
        let strategy = Periodic::new(1_800.0).unwrap();
        let out = replay(&job(4.0), &strategy, &timeline, Timestamp::from_secs(0)).unwrap();
        // The replay clock resumes at 7200+120; the 7000 failure is in the
        // past and must be skipped.
        assert_eq!(out.failures, 1);
        assert!(out.conserves_time());
    }

    #[test]
    fn replay_against_synthetic_node_history() {
        let trace = hpcfail_synth::scenario::system_trace(SystemId::new(20), 42).unwrap();
        let timeline = NodeTimeline::from_index(&trace.index(), SystemId::new(20), NodeId::new(22));
        assert!(timeline.len() > 100, "graphics node has a rich history");
        let spec_start = Timestamp::from_civil(1999, 1, 1, 0, 0, 0).unwrap();
        let strategy = Periodic::new(6.0 * 3_600.0).unwrap();
        // 90 days of work: node 22 averages a few failures per month, but
        // individual quiet months exist, so replay across a quarter.
        let out = replay(
            &JobConfig {
                total_work_secs: 90.0 * 86_400.0,
                checkpoint_cost_secs: 300.0,
                restart_cost_secs: 600.0,
            },
            &strategy,
            &timeline,
            spec_start,
        )
        .unwrap();
        assert!(out.failures > 0, "a quarter on node 22 sees failures");
        assert!(out.conserves_time(), "{out:?}");
        assert!((out.useful_secs - 90.0 * 86_400.0).abs() < 1e-6);
    }

    #[test]
    fn denser_checkpoints_lose_less_on_failure_heavy_history() {
        let trace = hpcfail_synth::scenario::system_trace(SystemId::new(20), 42).unwrap();
        let timeline = NodeTimeline::from_index(&trace.index(), SystemId::new(20), NodeId::new(22));
        let start = Timestamp::from_civil(1998, 1, 1, 0, 0, 0).unwrap();
        let j = JobConfig {
            total_work_secs: 60.0 * 86_400.0,
            checkpoint_cost_secs: 300.0,
            restart_cost_secs: 600.0,
        };
        let lost_with = |tau_hours: f64| {
            let strategy = Periodic::new(tau_hours * 3_600.0).unwrap();
            replay(&j, &strategy, &timeline, start).unwrap().lost_secs
        };
        // 2-hour checkpoints cap per-failure loss far below 48-hour ones.
        assert!(lost_with(2.0) < lost_with(48.0));
    }
}
