//! Deterministic expansion of a spec into its cell grid.
//!
//! Cells are the row-major cross product of the axes, fleet outermost
//! and scheduling policy innermost. The ordering is part of the format
//! contract: cell indices name rows in resume journals, so it must
//! never depend on hash order, worker count, or insertion accidents —
//! only on the spec. (Seeds do not depend on it: they are named by axis
//! values, see the `cell` module.)

use crate::spec::{
    BurstMode, CampaignSpec, CauseMixName, CheckpointApp, Era, FleetEntry, SchedApp,
};

/// One fully instantiated experiment: a fleet member under one
/// combination of perturbations and applications.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Position in the campaign's row-major grid (the journal row).
    pub index: u64,
    /// Index into [`CampaignSpec::fleet`].
    pub fleet: usize,
    /// Production-life era.
    pub era: Era,
    /// Failure-rate multiplier.
    pub rate_scale: f64,
    /// Repair-time multiplier.
    pub repair_scale: f64,
    /// Root-cause mix preset.
    pub cause_mix: CauseMixName,
    /// Burst injection mode.
    pub burst: BurstMode,
    /// Checkpoint application.
    pub checkpoint: CheckpointApp,
    /// Scheduling application.
    pub sched: SchedApp,
}

impl Cell {
    /// The fleet entry this cell evaluates.
    pub fn fleet_entry<'a>(&self, spec: &'a CampaignSpec) -> &'a FleetEntry {
        &spec.fleet[self.fleet]
    }

    /// Compact human label, e.g.
    /// `sys12|early|rate=0.5|repair=3|hardware-heavy|storm|young|random`.
    pub(crate) fn label(&self, spec: &CampaignSpec) -> String {
        format!(
            "{}|{}|rate={}|repair={}|{}|{}|{}|{}",
            self.fleet_entry(spec).label(),
            self.era,
            self.rate_scale,
            self.repair_scale,
            self.cause_mix,
            self.burst,
            self.checkpoint,
            self.sched,
        )
    }
}

/// Expand the spec into its full, ordered cell grid.
pub fn expand(spec: &CampaignSpec) -> Vec<Cell> {
    let g = &spec.grid;
    let mut cells = Vec::with_capacity(usize::try_from(spec.cell_count()).unwrap_or(0));
    let mut index = 0u64;
    for fleet in 0..spec.fleet.len() {
        for &era in &g.era {
            for &rate_scale in &g.rate_scale {
                for &repair_scale in &g.repair_scale {
                    for &cause_mix in &g.cause_mix {
                        for &burst in &g.burst {
                            for &checkpoint in &g.checkpoint {
                                for &sched in &g.sched {
                                    cells.push(Cell {
                                        index,
                                        fleet,
                                        era,
                                        rate_scale,
                                        repair_scale,
                                        cause_mix,
                                        burst,
                                        checkpoint,
                                        sched,
                                    });
                                    index += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;

    const SPEC: &str = r#"
[campaign]
name = "grid"
seed = 1
[fleet]
systems = [12, 14]
[grid]
era = ["full", "early"]
rate_scale = [1.0, 2.0]
sched = ["none", "random"]
"#;

    #[test]
    fn expansion_is_row_major_and_indexed() {
        let spec = CampaignSpec::parse(SPEC).unwrap();
        let cells = expand(&spec);
        assert_eq!(cells.len() as u64, spec.cell_count());
        assert_eq!(cells.len(), 2 * 2 * 2 * 2);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i as u64);
        }
        // Innermost axis (sched) flips every cell; outermost (fleet)
        // flips halfway through.
        assert_ne!(cells[0].sched, cells[1].sched);
        assert_eq!(cells[0].fleet, cells[7].fleet);
        assert_ne!(cells[0].fleet, cells[8].fleet);
        // Deterministic: a second expansion is identical.
        assert_eq!(cells, expand(&spec));
    }

    #[test]
    fn labels_encode_every_axis() {
        let spec = CampaignSpec::parse(SPEC).unwrap();
        let cells = expand(&spec);
        assert_eq!(
            cells[0].label(&spec),
            "sys12|full|rate=1|repair=1|lanl|calibrated|none|none"
        );
        let last = cells.last().unwrap();
        assert_eq!(
            last.label(&spec),
            "sys14|early|rate=2|repair=1|lanl|calibrated|none|random"
        );
        // Labels are unique across the grid.
        let mut labels: Vec<String> = cells.iter().map(|c| c.label(&spec)).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), cells.len());
    }
}
