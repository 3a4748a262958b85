//! Typed campaign specifications.
//!
//! [`CampaignSpec::parse`] reads the TOML subset and lowers the parsed
//! tree into a fully validated campaign: every axis value is checked
//! against its enum, every number against its legal range, every key
//! against the schema — *before a single cell runs*. The raw spec text
//! is digested ([`hpcfail_records::checksum`]) so resume journals can
//! refuse to continue a campaign from a different spec.

use std::fmt;

use hpcfail_records::SystemId;

use crate::value::{parse_toml, ParseError, Value};

/// Hard ceiling on the expanded cell count of one campaign.
pub const MAX_CELLS: u64 = 1_000_000;

/// Hard ceiling on projected fleet size (nodes).
pub const MAX_PROJECTION_NODES: i64 = 100_000_000;

/// Validation/parse errors for campaign specs. Every failure mode of
/// spec loading is one of these — spec handling never panics.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The spec file is not valid UTF-8.
    NotUtf8,
    /// The document does not parse as the TOML subset.
    Parse(ParseError),
    /// A required field is absent.
    Missing {
        /// Dotted path of the missing field.
        field: String,
    },
    /// A field holds the wrong type.
    Type {
        /// Dotted path of the field.
        field: String,
        /// What the schema wants.
        expected: &'static str,
        /// What the document supplied.
        found: &'static str,
    },
    /// A field holds an out-of-range or inconsistent value.
    Invalid {
        /// Dotted path of the field.
        field: String,
        /// Why the value is rejected.
        message: String,
    },
    /// A key the schema does not know (typo guard).
    Unknown {
        /// Dotted path of the unknown field.
        field: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::NotUtf8 => write!(f, "spec is not valid UTF-8"),
            SpecError::Parse(e) => write!(f, "spec syntax error: {e}"),
            SpecError::Missing { field } => write!(f, "missing required field `{field}`"),
            SpecError::Type {
                field,
                expected,
                found,
            } => write!(f, "field `{field}`: expected {expected}, found {found}"),
            SpecError::Invalid { field, message } => write!(f, "field `{field}`: {message}"),
            SpecError::Unknown { field } => write!(f, "unknown field `{field}`"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<ParseError> for SpecError {
    fn from(e: ParseError) -> Self {
        SpecError::Parse(e)
    }
}

// ---------------------------------------------------------------------
// Axis enums
// ---------------------------------------------------------------------

macro_rules! axis_enum {
    ($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $variant:ident => $label:literal),+ $(,)? }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $name {
            $($(#[$vdoc])* $variant),+
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$name] = &[$($name::$variant),+];

            /// The spec-file spelling.
            pub(crate) fn label(&self) -> &'static str {
                match self { $($name::$variant => $label),+ }
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.label())
            }
        }
    };
}

axis_enum! {
    /// Which slice of a system's production life a cell analyzes.
    Era {
        /// The whole production window.
        Full => "full",
        /// The first 36 months of production (the paper's infant-
        /// mortality era, Fig. 3/6).
        Early => "early",
        /// Production after the first 36 months.
        Late => "late",
    }
}

axis_enum! {
    /// Root-cause mix presets (Fig. 1 and perturbations of it).
    CauseMixName {
        /// The calibrated per-hardware-type mix.
        Lanl => "lanl",
        /// Hardware dominates (75% of failures).
        HardwareHeavy => "hardware-heavy",
        /// Software dominates (55% of failures).
        SoftwareHeavy => "software-heavy",
        /// All six categories equally likely.
        Uniform => "uniform",
    }
}

axis_enum! {
    /// Correlated-burst injection mode.
    BurstMode {
        /// The calibrated default (bursts on the early NUMA/SMP systems).
        Calibrated => "calibrated",
        /// No correlated bursts anywhere.
        Off => "off",
        /// A heavy seeded burst process on every system.
        Storm => "storm",
    }
}

axis_enum! {
    /// Checkpoint strategy applied by the cell's application model.
    CheckpointApp {
        /// No checkpoint simulation.
        None => "none",
        /// Young's optimal periodic interval.
        Young => "young",
        /// Hazard-aware intervals (exploits decreasing hazard).
        Hazard => "hazard",
    }
}

axis_enum! {
    /// Scheduling policy applied by the cell's application model.
    SchedApp {
        /// No scheduling simulation.
        None => "none",
        /// Uniformly random placement.
        Random => "random",
        /// Prefer lowest observed failure rate.
        LeastFailureRate => "least-failure-rate",
        /// Prefer longest current uptime.
        LongestUptime => "longest-uptime",
    }
}

// ---------------------------------------------------------------------
// Spec structures
// ---------------------------------------------------------------------

/// One member of the campaign's fleet axis.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetEntry {
    /// A real LANL system, evaluated on a synthesized trace.
    System(SystemId),
    /// A hypothetical scaled fleet, evaluated analytically from a base
    /// system's calibration (the paper's Section 7 projection).
    Projection(Projection),
}

impl FleetEntry {
    /// Short label for reports (`sys12`, or the projection's name).
    pub fn label(&self) -> String {
        match self {
            FleetEntry::System(id) => format!("sys{}", id.get()),
            FleetEntry::Projection(p) => p.name.clone(),
        }
    }
}

/// A projected (hypothetical) fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct Projection {
    /// Report name.
    pub name: String,
    /// Number of nodes in the projected fleet.
    pub nodes: u64,
    /// LANL system whose per-node calibration seeds the projection.
    pub base_system: SystemId,
}

/// The perturbation grid: one cell per element of the cross product.
#[derive(Debug, Clone, PartialEq)]
pub struct GridAxes {
    /// Production-life eras.
    pub era: Vec<Era>,
    /// Failure-rate multipliers.
    pub rate_scale: Vec<f64>,
    /// Repair-time multipliers.
    pub repair_scale: Vec<f64>,
    /// Root-cause mix presets.
    pub cause_mix: Vec<CauseMixName>,
    /// Burst injection modes.
    pub burst: Vec<BurstMode>,
    /// Checkpoint applications.
    pub checkpoint: Vec<CheckpointApp>,
    /// Scheduling applications.
    pub sched: Vec<SchedApp>,
}

impl GridAxes {
    /// Number of cells per fleet entry.
    pub(crate) fn cells_per_fleet(&self) -> u64 {
        [
            self.era.len(),
            self.rate_scale.len(),
            self.repair_scale.len(),
            self.cause_mix.len(),
            self.burst.len(),
            self.checkpoint.len(),
            self.sched.len(),
        ]
        .iter()
        .map(|&n| n as u64)
        .product()
    }
}

/// Runner tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct RunnerParams {
    /// Cells per journal checkpoint wave (worker-count independent, so
    /// journals are byte-identical across pool sizes).
    pub checkpoint_every: usize,
}

impl Default for RunnerParams {
    fn default() -> Self {
        RunnerParams {
            checkpoint_every: 32,
        }
    }
}

/// A validated campaign specification.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (identifier characters only).
    pub name: String,
    /// Root seed; every trace and application seed is derived from it.
    pub seed: u64,
    /// Fleet axis (outermost).
    pub fleet: Vec<FleetEntry>,
    /// The perturbation grid.
    pub grid: GridAxes,
    /// Runner tuning.
    pub runner: RunnerParams,
    /// Cell indices the runner must deliberately panic on (fault
    /// injection into the *runner itself* — exercises the isolation
    /// path end to end).
    pub panic_cells: Vec<u64>,
    /// Checksum of the raw spec text (binds resume journals).
    pub digest: u64,
}

impl CampaignSpec {
    /// Parse and validate a spec document written in the TOML subset.
    ///
    /// # Errors
    ///
    /// A typed [`SpecError`] for any syntax, schema, type, range, or
    /// consistency problem. Never panics, for any input.
    pub fn parse(src: &str) -> Result<CampaignSpec, SpecError> {
        let doc = parse_toml(src)?;
        let digest = hpcfail_records::checksum(src.as_bytes());
        lower(&doc, digest)
    }

    /// Parse raw bytes (UTF-8 checked first).
    ///
    /// # Errors
    ///
    /// [`SpecError::NotUtf8`], else as [`CampaignSpec::parse`].
    pub fn parse_bytes(src: &[u8]) -> Result<CampaignSpec, SpecError> {
        let text = std::str::from_utf8(src).map_err(|_| SpecError::NotUtf8)?;
        CampaignSpec::parse(text)
    }

    /// Total number of cells in the expanded grid.
    pub fn cell_count(&self) -> u64 {
        self.fleet.len() as u64 * self.grid.cells_per_fleet()
    }
}

// ---------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------

fn missing<T>(field: &str) -> Result<T, SpecError> {
    Err(SpecError::Missing {
        field: field.to_string(),
    })
}

fn invalid<T>(field: &str, message: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError::Invalid {
        field: field.to_string(),
        message: message.into(),
    })
}

fn want_table<'a>(v: &'a Value, field: &str) -> Result<&'a [(String, Value)], SpecError> {
    v.entries().ok_or_else(|| SpecError::Type {
        field: field.to_string(),
        expected: "table",
        found: v.type_name(),
    })
}

fn want_str(v: &Value, field: &str) -> Result<String, SpecError> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        other => Err(SpecError::Type {
            field: field.to_string(),
            expected: "string",
            found: other.type_name(),
        }),
    }
}

fn want_int(v: &Value, field: &str) -> Result<i64, SpecError> {
    match v {
        Value::Int(i) => Ok(*i),
        other => Err(SpecError::Type {
            field: field.to_string(),
            expected: "integer",
            found: other.type_name(),
        }),
    }
}

fn want_float(v: &Value, field: &str) -> Result<f64, SpecError> {
    match v {
        Value::Float(f) => Ok(*f),
        Value::Int(i) => Ok(*i as f64),
        other => Err(SpecError::Type {
            field: field.to_string(),
            expected: "float",
            found: other.type_name(),
        }),
    }
}

fn want_array<'a>(v: &'a Value, field: &str) -> Result<&'a [Value], SpecError> {
    match v {
        Value::Array(items) => Ok(items),
        other => Err(SpecError::Type {
            field: field.to_string(),
            expected: "array",
            found: other.type_name(),
        }),
    }
}

/// Reject keys outside the schema — the typo guard.
fn check_known(entries: &[(String, Value)], path: &str, known: &[&str]) -> Result<(), SpecError> {
    for (key, _) in entries {
        if !known.contains(&key.as_str()) {
            return Err(SpecError::Unknown {
                field: if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                },
            });
        }
    }
    Ok(())
}

fn ident(field: &str, s: &str) -> Result<String, SpecError> {
    if s.is_empty() {
        return invalid(field, "must not be empty");
    }
    if s.len() > 64 {
        return invalid(field, "longer than 64 characters");
    }
    if !s
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return invalid(field, format!("`{s}` has non-identifier characters"));
    }
    Ok(s.to_string())
}

fn system_id(field: &str, raw: i64) -> Result<SystemId, SpecError> {
    if !(1..=22).contains(&raw) {
        return invalid(field, format!("system id {raw} outside 1..=22"));
    }
    Ok(SystemId::new(raw as u32))
}

/// An enum axis: each item must spell one of `all` by its `label`
/// (underscores accepted for hyphens).
fn axis_values<T: Copy + PartialEq>(
    entries: &[(String, Value)],
    path: &str,
    key: &str,
    default: T,
    all: &[T],
    label: fn(&T) -> &'static str,
) -> Result<Vec<T>, SpecError> {
    let field = format!("{path}.{key}");
    let Some(v) = entries.iter().find(|(k, _)| k == key).map(|(_, v)| v) else {
        return Ok(vec![default]);
    };
    let items = want_array(v, &field)?;
    if items.is_empty() {
        return invalid(&field, "axis must not be empty");
    }
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let s = want_str(item, &field)?;
        let spelling = s.replace('_', "-");
        let Some(&parsed) = all.iter().find(|&v| label(v) == spelling) else {
            let labels: Vec<&str> = all.iter().map(label).collect();
            return invalid(
                &field,
                format!("unknown value `{s}` (one of: {})", labels.join(", ")),
            );
        };
        if out.contains(&parsed) {
            return invalid(&field, format!("duplicate value `{s}`"));
        }
        out.push(parsed);
    }
    Ok(out)
}

fn scale_axis(
    entries: &[(String, Value)],
    path: &str,
    key: &str,
    range: (f64, f64),
) -> Result<Vec<f64>, SpecError> {
    let field = format!("{path}.{key}");
    let Some(v) = entries.iter().find(|(k, _)| k == key).map(|(_, v)| v) else {
        return Ok(vec![1.0]);
    };
    let items = want_array(v, &field)?;
    if items.is_empty() {
        return invalid(&field, "axis must not be empty");
    }
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let f = want_float(item, &field)?;
        if !f.is_finite() || f < range.0 || f > range.1 {
            return invalid(
                &field,
                format!("scale {f} outside [{}, {}]", range.0, range.1),
            );
        }
        if out.contains(&f) {
            return invalid(&field, format!("duplicate value {f}"));
        }
        out.push(f);
    }
    Ok(out)
}

fn int_param(
    entries: &[(String, Value)],
    path: &str,
    key: &str,
    default: i64,
    range: (i64, i64),
) -> Result<i64, SpecError> {
    let field = format!("{path}.{key}");
    let Some(v) = entries.iter().find(|(k, _)| k == key).map(|(_, v)| v) else {
        return Ok(default);
    };
    let i = want_int(v, &field)?;
    if i < range.0 || i > range.1 {
        return invalid(&field, format!("{i} outside {}..={}", range.0, range.1));
    }
    Ok(i)
}

fn lower(doc: &Value, digest: u64) -> Result<CampaignSpec, SpecError> {
    let root = want_table(doc, "<document>")?;
    check_known(
        root,
        "",
        &["campaign", "fleet", "projection", "grid", "runner", "chaos"],
    )?;

    // [campaign]
    let campaign = match doc.get("campaign") {
        Some(v) => want_table(v, "campaign")?,
        None => return missing("campaign"),
    };
    check_known(campaign, "campaign", &["name", "seed"])?;
    let name = match campaign.iter().find(|(k, _)| k == "name") {
        Some((_, v)) => ident("campaign.name", &want_str(v, "campaign.name")?)?,
        None => return missing("campaign.name"),
    };
    let seed = {
        let raw = int_param(campaign, "campaign", "seed", 0, (0, i64::MAX))?;
        raw as u64
    };

    // [fleet] + [[projection]]
    let mut fleet: Vec<FleetEntry> = Vec::new();
    if let Some(v) = doc.get("fleet") {
        let t = want_table(v, "fleet")?;
        check_known(t, "fleet", &["systems"])?;
        if let Some((_, v)) = t.iter().find(|(k, _)| k == "systems") {
            for (i, item) in want_array(v, "fleet.systems")?.iter().enumerate() {
                let field = format!("fleet.systems[{i}]");
                let id = system_id(&field, want_int(item, &field)?)?;
                if fleet.iter().any(|f| f == &FleetEntry::System(id)) {
                    return invalid(&field, format!("system {} listed twice", id.get()));
                }
                fleet.push(FleetEntry::System(id));
            }
        }
    }
    if let Some(v) = doc.get("projection") {
        let items = match v {
            Value::Array(items) => items.as_slice(),
            other => {
                return Err(SpecError::Type {
                    field: "projection".into(),
                    expected: "array of tables",
                    found: other.type_name(),
                })
            }
        };
        for (i, item) in items.iter().enumerate() {
            let path = format!("projection[{i}]");
            let t = want_table(item, &path)?;
            check_known(t, &path, &["name", "nodes", "base_system"])?;
            let name = match t.iter().find(|(k, _)| k == "name") {
                Some((_, v)) => ident(
                    &format!("{path}.name"),
                    &want_str(v, &format!("{path}.name"))?,
                )?,
                None => return missing(&format!("{path}.name")),
            };
            if fleet.iter().any(|f| f.label() == name) {
                return invalid(&format!("{path}.name"), format!("`{name}` used twice"));
            }
            let nodes = match t.iter().find(|(k, _)| k == "nodes") {
                Some((_, v)) => {
                    let field = format!("{path}.nodes");
                    let n = want_int(v, &field)?;
                    if !(1..=MAX_PROJECTION_NODES).contains(&n) {
                        return invalid(&field, format!("{n} outside 1..={MAX_PROJECTION_NODES}"));
                    }
                    n as u64
                }
                None => return missing(&format!("{path}.nodes")),
            };
            let base_system = match t.iter().find(|(k, _)| k == "base_system") {
                Some((_, v)) => {
                    let field = format!("{path}.base_system");
                    system_id(&field, want_int(v, &field)?)?
                }
                None => return missing(&format!("{path}.base_system")),
            };
            fleet.push(FleetEntry::Projection(Projection {
                name,
                nodes,
                base_system,
            }));
        }
    }
    if fleet.is_empty() {
        return invalid("fleet", "campaign needs at least one system or projection");
    }

    // [grid]
    let empty: Vec<(String, Value)> = Vec::new();
    let grid_entries = match doc.get("grid") {
        Some(v) => want_table(v, "grid")?,
        None => empty.as_slice(),
    };
    check_known(
        grid_entries,
        "grid",
        &[
            "era",
            "rate_scale",
            "repair_scale",
            "cause_mix",
            "burst",
            "checkpoint",
            "sched",
        ],
    )?;
    let grid = GridAxes {
        era: axis_values(grid_entries, "grid", "era", Era::Full, Era::ALL, Era::label)?,
        rate_scale: scale_axis(grid_entries, "grid", "rate_scale", (0.01, 100.0))?,
        repair_scale: scale_axis(grid_entries, "grid", "repair_scale", (0.01, 100.0))?,
        cause_mix: axis_values(
            grid_entries,
            "grid",
            "cause_mix",
            CauseMixName::Lanl,
            CauseMixName::ALL,
            CauseMixName::label,
        )?,
        burst: axis_values(
            grid_entries,
            "grid",
            "burst",
            BurstMode::Calibrated,
            BurstMode::ALL,
            BurstMode::label,
        )?,
        checkpoint: axis_values(
            grid_entries,
            "grid",
            "checkpoint",
            CheckpointApp::None,
            CheckpointApp::ALL,
            CheckpointApp::label,
        )?,
        sched: axis_values(
            grid_entries,
            "grid",
            "sched",
            SchedApp::None,
            SchedApp::ALL,
            SchedApp::label,
        )?,
    };

    // [runner]
    let runner_entries = match doc.get("runner") {
        Some(v) => want_table(v, "runner")?,
        None => empty.as_slice(),
    };
    check_known(runner_entries, "runner", &["checkpoint_every"])?;
    let runner = RunnerParams {
        checkpoint_every: int_param(
            runner_entries,
            "runner",
            "checkpoint_every",
            RunnerParams::default().checkpoint_every as i64,
            (1, 65_536),
        )? as usize,
    };

    // Cell count before chaos validation (panic cells must be in range).
    let spec_cells = fleet.len() as u64 * grid.cells_per_fleet();
    if spec_cells == 0 {
        return invalid("grid", "grid expands to zero cells");
    }
    if spec_cells > MAX_CELLS {
        return invalid(
            "grid",
            format!("grid expands to {spec_cells} cells (ceiling {MAX_CELLS})"),
        );
    }

    // [chaos]
    let mut panic_cells: Vec<u64> = Vec::new();
    if let Some(v) = doc.get("chaos") {
        let t = want_table(v, "chaos")?;
        check_known(t, "chaos", &["panic_cells"])?;
        if let Some((_, v)) = t.iter().find(|(k, _)| k == "panic_cells") {
            for (i, item) in want_array(v, "chaos.panic_cells")?.iter().enumerate() {
                let field = format!("chaos.panic_cells[{i}]");
                let idx = want_int(item, &field)?;
                if idx < 0 || idx as u64 >= spec_cells {
                    return invalid(
                        &field,
                        format!("cell {idx} outside the campaign's 0..{spec_cells}"),
                    );
                }
                panic_cells.push(idx as u64);
            }
            panic_cells.sort_unstable();
            panic_cells.dedup();
        }
    }

    Ok(CampaignSpec {
        name,
        seed,
        fleet,
        grid,
        runner,
        panic_cells,
        digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) const MINIMAL: &str = r#"
[campaign]
name = "mini"
seed = 7
[fleet]
systems = [12]
"#;

    #[test]
    fn minimal_spec_gets_defaults() {
        let spec = CampaignSpec::parse(MINIMAL).unwrap();
        assert_eq!(spec.name, "mini");
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.fleet.len(), 1);
        assert_eq!(spec.cell_count(), 1);
        assert_eq!(spec.grid.era, vec![Era::Full]);
        assert_eq!(spec.grid.rate_scale, vec![1.0]);
        assert_eq!(spec.runner.checkpoint_every, 32);
        assert!(spec.panic_cells.is_empty());
        assert_eq!(spec.digest, hpcfail_records::checksum(MINIMAL.as_bytes()));
    }

    #[test]
    fn full_grid_expands_cell_count() {
        let spec = CampaignSpec::parse(
            r#"
[campaign]
name = "grid"
seed = 1
[fleet]
systems = [12, 20]
[[projection]]
name = "exa"
nodes = 100000
base_system = 18
[grid]
era = ["full", "early"]
rate_scale = [0.5, 1.0, 2.0]
repair_scale = [1.0, 3.0]
cause_mix = ["lanl", "hardware-heavy"]
burst = ["calibrated", "storm"]
checkpoint = ["none", "young", "hazard"]
sched = ["none", "least_failure_rate", "longest_uptime"]
"#,
        )
        .unwrap();
        assert_eq!(spec.fleet.len(), 3);
        assert_eq!(spec.cell_count(), 3 * 2 * 3 * 2 * 2 * 2 * 3 * 3);
        assert_eq!(
            spec.grid.sched,
            vec![
                SchedApp::None,
                SchedApp::LeastFailureRate,
                SchedApp::LongestUptime
            ]
        );
    }

    #[test]
    fn schema_violations_are_typed() {
        type Case = (&'static str, fn(&SpecError) -> bool);
        let cases: &[Case] = &[
            ("", |e| matches!(e, SpecError::Missing { field } if field == "campaign")),
            ("[campaign]\nseed = 1", |e| {
                matches!(e, SpecError::Missing { field } if field == "campaign.name")
            }),
            ("[campaign]\nname = \"x\"\nseed = -1", |e| {
                matches!(e, SpecError::Invalid { field, .. } if field == "campaign.seed")
            }),
            ("[campaign]\nname = \"x\"\n[fleet]\nsystems = [99]", |e| {
                matches!(e, SpecError::Invalid { .. })
            }),
            ("[campaign]\nname = \"x\"\n[fleet]\nsystems = [12, 12]", |e| {
                matches!(e, SpecError::Invalid { .. })
            }),
            ("[campaign]\nname = \"x\"", |e| {
                matches!(e, SpecError::Invalid { field, .. } if field == "fleet")
            }),
            ("[campaign]\nname = \"x\"\ntypo = 1", |e| {
                matches!(e, SpecError::Unknown { field } if field == "campaign.typo")
            }),
            ("[campaign]\nname = \"x\"\n[mystery]\na = 1", |e| {
                matches!(e, SpecError::Unknown { field } if field == "mystery")
            }),
            // The application model is fixed: there is no [apps] table.
            (
                "[campaign]\nname = \"x\"\n[fleet]\nsystems = [12]\n[apps]\nsched_nodes = 8",
                |e| matches!(e, SpecError::Unknown { field } if field == "apps"),
            ),
            (
                "[campaign]\nname = \"x\"\n[fleet]\nsystems = [12]\n[grid]\nera = []",
                |e| matches!(e, SpecError::Invalid { field, .. } if field == "grid.era"),
            ),
            (
                "[campaign]\nname = \"x\"\n[fleet]\nsystems = [12]\n[grid]\nera = [\"ancient\"]",
                |e| matches!(e, SpecError::Invalid { field, .. } if field == "grid.era"),
            ),
            (
                "[campaign]\nname = \"x\"\n[fleet]\nsystems = [12]\n[grid]\nsched = [\"fifo\"]",
                |e| {
                    matches!(e, SpecError::Invalid { field, message } if field == "grid.sched"
                        && message == "unknown value `fifo` (one of: none, random, least-failure-rate, longest-uptime)")
                },
            ),
            (
                "[campaign]\nname = \"x\"\n[fleet]\nsystems = [12]\n[grid]\nrate_scale = [0.0]",
                |e| matches!(e, SpecError::Invalid { field, .. } if field == "grid.rate_scale"),
            ),
            (
                "[campaign]\nname = \"x\"\n[fleet]\nsystems = [12]\nextra = 2",
                |e| matches!(e, SpecError::Unknown { field } if field == "fleet.extra"),
            ),
            (
                "[campaign]\nname = \"x\"\n[fleet]\nsystems = [12]\n[chaos]\npanic_cells = [5]",
                |e| matches!(e, SpecError::Invalid { field, .. } if field == "chaos.panic_cells[0]"),
            ),
            (
                "[campaign]\nname = \"x\"\n[[projection]]\nname = \"p\"\nnodes = 0\nbase_system = 18",
                |e| matches!(e, SpecError::Invalid { .. }),
            ),
            (
                "[campaign]\nname = \"x\"\n[[projection]]\nname = \"p\"\nnodes = 10",
                |e| matches!(e, SpecError::Missing { field } if field == "projection[0].base_system"),
            ),
            ("[campaign]\nname = 7", |e| {
                matches!(e, SpecError::Type { field, .. } if field == "campaign.name")
            }),
            ("not toml at all }{", |e| matches!(e, SpecError::Parse(_))),
            // JSON is not a spec language: refused on its first line.
            (
                r#"{"campaign": {"name": "j", "seed": 3}, "fleet": {"systems": [14]}}"#,
                |e| matches!(e, SpecError::Parse(p) if p.line == 1),
            ),
        ];
        for (src, check) in cases {
            let err = CampaignSpec::parse(src).unwrap_err();
            assert!(check(&err), "src {src:?} gave {err:?}");
        }
    }

    #[test]
    fn non_utf8_is_typed() {
        assert_eq!(
            CampaignSpec::parse_bytes(&[0xFF, 0xFE, 0x00]).unwrap_err(),
            SpecError::NotUtf8
        );
    }

    #[test]
    fn chaos_cells_validate_against_cell_count() {
        let spec = CampaignSpec::parse(
            "[campaign]\nname = \"c\"\n[fleet]\nsystems = [12, 14]\n[chaos]\npanic_cells = [1, 0, 1]",
        )
        .unwrap();
        assert_eq!(spec.panic_cells, vec![0, 1]);
    }
}
