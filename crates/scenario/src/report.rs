//! Deterministic text rendering of campaign plans and results.
//!
//! Every byte of these reports is a pure function of `(spec, seed,
//! outcomes)` — no timestamps, no hash-order iteration — so campaign
//! output diffs cleanly across runs, worker counts, and resume
//! boundaries (the CI gates rely on this).

use crate::grid::expand;
use crate::runner::{CampaignResult, CellOutcome};
use crate::spec::{CampaignSpec, FleetEntry};

/// Render the `scenario plan` listing: campaign identity, axes, cell
/// count, and the first few cell labels.
pub fn render_plan(spec: &CampaignSpec) -> String {
    let cells = expand(spec);
    let mut out = String::new();
    out.push_str(&format!("campaign {}\n", spec.name));
    out.push_str(&format!("  seed          {}\n", spec.seed));
    out.push_str(&format!("  spec digest   {:016x}\n", spec.digest));
    out.push_str(&format!("  cells         {}\n", cells.len()));
    out.push_str(&format!(
        "  wave size     {} (journal checkpoint granularity)\n",
        spec.runner.checkpoint_every
    ));
    let fleets: Vec<String> = spec.fleet.iter().map(fleet_desc).collect();
    out.push_str(&format!("  fleet         {}\n", fleets.join(", ")));
    out.push_str(&format!(
        "  era           {}\n",
        join(spec.grid.era.iter().map(|v| v.to_string()))
    ));
    out.push_str(&format!(
        "  rate_scale    {}\n",
        join(spec.grid.rate_scale.iter().map(|v| v.to_string()))
    ));
    out.push_str(&format!(
        "  repair_scale  {}\n",
        join(spec.grid.repair_scale.iter().map(|v| v.to_string()))
    ));
    out.push_str(&format!(
        "  cause_mix     {}\n",
        join(spec.grid.cause_mix.iter().map(|v| v.to_string()))
    ));
    out.push_str(&format!(
        "  burst         {}\n",
        join(spec.grid.burst.iter().map(|v| v.to_string()))
    ));
    out.push_str(&format!(
        "  checkpoint    {}\n",
        join(spec.grid.checkpoint.iter().map(|v| v.to_string()))
    ));
    out.push_str(&format!(
        "  sched         {}\n",
        join(spec.grid.sched.iter().map(|v| v.to_string()))
    ));
    if !spec.panic_cells.is_empty() {
        out.push_str(&format!(
            "  chaos         deliberate panics in {} cell(s)\n",
            spec.panic_cells.len()
        ));
    }
    out.push('\n');
    const PREVIEW: usize = 10;
    for cell in cells.iter().take(PREVIEW) {
        out.push_str(&format!("  [{:>6}] {}\n", cell.index, cell.label(spec)));
    }
    if cells.len() > PREVIEW {
        out.push_str(&format!("  ... and {} more cells\n", cells.len() - PREVIEW));
    }
    out
}

fn fleet_desc(entry: &FleetEntry) -> String {
    match entry {
        FleetEntry::System(_) => entry.label(),
        FleetEntry::Projection(p) => format!(
            "{} ({} nodes, projected from sys{})",
            p.name,
            p.nodes,
            p.base_system.get()
        ),
    }
}

fn join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(", ")
}

fn fmt_metric(v: f64, decimals: usize) -> String {
    if v.is_nan() {
        "-".to_string()
    } else {
        format!("{v:.decimals$}")
    }
}

/// Render the structured per-cell results table plus the campaign
/// summary footer.
pub fn render_results(spec: &CampaignSpec, result: &CampaignResult) -> String {
    let cells = expand(spec);
    let label_width = cells
        .iter()
        .map(|c| c.label(spec).len())
        .max()
        .unwrap_or(4)
        .max(4);
    let mut out = String::new();
    out.push_str(&format!(
        "campaign {} (seed {}, digest {:016x})\n",
        result.name, result.seed, spec.digest
    ));
    out.push_str(&format!(
        "{:>6}  {:<label_width$}  {:>9}  {:>9}  {:>7}  {:>10}  {:>7}  {:>7}  {:>7}\n",
        "cell", "label", "failures", "fail/ny", "shape", "avail", "rep.med", "ckpt.w", "sched.e"
    ));
    for outcome in &result.outcomes {
        let cell = &cells[outcome.cell() as usize];
        match outcome {
            CellOutcome::Completed { metrics: m, .. } => {
                out.push_str(&format!(
                    "{:>6}  {:<label_width$}  {:>9}  {:>9}  {:>7}  {:>10}  {:>7}  {:>7}  {:>7}\n",
                    cell.index,
                    cell.label(spec),
                    m.failures,
                    fmt_metric(m.node_year_rate, 3),
                    fmt_metric(m.tbf_shape, 3),
                    fmt_metric(m.availability, 6),
                    fmt_metric(m.repair_median_min, 1),
                    fmt_metric(m.checkpoint_waste, 4),
                    fmt_metric(m.sched_efficiency, 4),
                ));
            }
            CellOutcome::Degraded { cause, .. } => {
                out.push_str(&format!(
                    "{:>6}  {:<label_width$}  degraded [{}] {}\n",
                    cell.index,
                    cell.label(spec),
                    cause.kind_name(),
                    cause.detail(),
                ));
            }
        }
    }
    out.push('\n');
    // The table is a pure function of (spec, outcomes): the resumed-cell
    // count is run provenance, not a result, so it stays out of this
    // rendering and a resumed run's table is byte-identical to an
    // uninterrupted one.
    out.push_str(&summary_text(result, false));
    out
}

/// The short campaign summary (also the CLI's stderr message when the
/// campaign ends degraded). Unlike [`render_results`], this mentions how
/// many cells were resumed from the journal.
pub fn render_summary(result: &CampaignResult) -> String {
    summary_text(result, true)
}

fn summary_text(result: &CampaignResult, include_resumed: bool) -> String {
    let mut out = String::new();
    let state = if result.interrupted {
        "interrupted"
    } else if result.is_degraded() {
        "completed with degradations"
    } else {
        "completed"
    };
    out.push_str(&format!(
        "campaign {}: {} — {} cells ({} completed, {} degraded",
        result.name,
        state,
        result.total_cells,
        result.completed(),
        result.degraded(),
    ));
    if include_resumed && result.resumed_cells > 0 {
        out.push_str(&format!(", {} resumed from journal", result.resumed_cells));
    }
    out.push_str(")\n");
    // Degradation census by kind, in fixed kind order.
    let mut by_kind: Vec<(&'static str, u64)> = Vec::new();
    for outcome in &result.outcomes {
        if let CellOutcome::Degraded { cause, .. } = outcome {
            match by_kind.iter_mut().find(|(k, _)| *k == cause.kind_name()) {
                Some((_, n)) => *n += 1,
                None => by_kind.push((cause.kind_name(), 1)),
            }
        }
    }
    by_kind.sort_by_key(|&(k, _)| k);
    for (kind, n) in by_kind {
        out.push_str(&format!("  degraded[{kind}]: {n}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_campaign, RunOptions};
    use crate::spec::CampaignSpec;

    const SPEC: &str = r#"
[campaign]
name = "report-test"
seed = 9
[fleet]
systems = [12]
[grid]
era = ["full", "late"]
checkpoint = ["none", "young"]
"#;

    #[test]
    fn plan_names_every_axis_and_counts_cells() {
        let spec = CampaignSpec::parse(SPEC).unwrap();
        let plan = render_plan(&spec);
        assert!(plan.contains("campaign report-test"));
        assert!(plan.contains("cells         4"));
        assert!(plan.contains("full, late"));
        assert!(plan.contains("none, young"));
        assert!(plan.contains("sys12|full|rate=1|repair=1|lanl|calibrated|none|none"));
    }

    #[test]
    fn results_render_completed_and_degraded_rows() {
        let spec = CampaignSpec::parse(SPEC).unwrap();
        let result = run_campaign(&spec, &RunOptions::default()).unwrap();
        let text = render_results(&spec, &result);
        assert!(text.contains("fail/ny"), "header present");
        assert!(
            text.contains("degraded ["),
            "degraded rows rendered: {text}"
        );
        assert!(text.contains("cells ("), "summary present");
        // Deterministic rendering.
        assert_eq!(text, render_results(&spec, &result));
    }
}
