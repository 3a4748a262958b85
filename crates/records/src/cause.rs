//! Root-cause taxonomy.
//!
//! The LANL data classifies every failure into one of six high-level
//! categories (Section 2.3) and, below them, detailed low-level causes
//! (e.g. the particular hardware component). The paper reports that
//! hardware spans 99 low-level categories while environment has only two;
//! we model the low-level causes the paper actually discusses plus an
//! `Other` catch-all carrying the category.

use std::fmt;
use std::str::FromStr;

use crate::error::RecordError;

/// High-level root-cause category of a failure record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RootCause {
    /// Operator/administrator error.
    Human,
    /// Power outages, A/C failures, and similar facility problems.
    Environment,
    /// Network failures.
    Network,
    /// Software failures (OS, parallel FS, scheduler, applications).
    Software,
    /// Hardware failures (memory, CPU, disk, interconnect, …).
    Hardware,
    /// Root cause never determined (20–30% of records in most systems).
    Unknown,
}

impl RootCause {
    /// All six categories, in the paper's legend order
    /// (Hardware, Software, Network, Environment, Human, Unknown).
    pub const ALL: [RootCause; 6] = [
        RootCause::Hardware,
        RootCause::Software,
        RootCause::Network,
        RootCause::Environment,
        RootCause::Human,
        RootCause::Unknown,
    ];

    /// Short lowercase label.
    pub fn name(&self) -> &'static str {
        match self {
            RootCause::Human => "human",
            RootCause::Environment => "environment",
            RootCause::Network => "network",
            RootCause::Software => "software",
            RootCause::Hardware => "hardware",
            RootCause::Unknown => "unknown",
        }
    }

    /// Index into [`RootCause::ALL`].
    pub fn index(&self) -> usize {
        // Position in `ALL` (legend order), as a branch-free match —
        // this sits on per-row hot paths like the store loader.
        match self {
            RootCause::Hardware => 0,
            RootCause::Software => 1,
            RootCause::Network => 2,
            RootCause::Environment => 3,
            RootCause::Human => 4,
            RootCause::Unknown => 5,
        }
    }
}

impl fmt::Display for RootCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for RootCause {
    type Err = RecordError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "human" => Ok(RootCause::Human),
            "environment" | "env" => Ok(RootCause::Environment),
            "network" | "net" => Ok(RootCause::Network),
            "software" | "sw" => Ok(RootCause::Software),
            "hardware" | "hw" => Ok(RootCause::Hardware),
            "unknown" | "undetermined" => Ok(RootCause::Unknown),
            other => Err(RecordError::ParseField {
                field: "root cause",
                value: other.to_string(),
            }),
        }
    }
}

/// Detailed (low-level) root cause, refining [`RootCause`].
///
/// The variants cover every low-level cause the paper names:
/// memory and CPU dominate hardware (Section 4); parallel file system,
/// scheduler, and OS dominate software per system type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum DetailedCause {
    // --- Hardware ---
    /// DIMM / memory subsystem failures — "the single most common
    /// low-level root cause for all systems except system E" and >10% of
    /// *all* failures everywhere.
    Memory,
    /// CPU failures — >50% of failures on type-E systems due to a CPU
    /// design flaw.
    Cpu,
    /// Node interconnect hardware.
    NodeInterconnect,
    /// Disk/storage hardware.
    Disk,
    /// Power supply hardware.
    PowerSupply,
    /// Other hardware (the paper counts 99 distinct hardware categories).
    OtherHardware,
    // --- Software ---
    /// Operating system failures (dominant software cause on type E).
    OperatingSystem,
    /// Parallel file system failures (dominant software cause on type F).
    ParallelFileSystem,
    /// Batch scheduler failures (dominant software cause on type H).
    Scheduler,
    /// Unspecified software (much of types D and G).
    OtherSoftware,
    // --- Environment (exactly the paper's two) ---
    /// Facility power outage.
    PowerOutage,
    /// Air-conditioning / cooling failure.
    AirConditioning,
    // --- Remaining high-level categories carry no finer detail ---
    /// Network failure without recorded detail.
    NetworkOther,
    /// Human error without recorded detail.
    HumanOther,
    /// No root cause determined.
    Undetermined,
}

impl DetailedCause {
    /// The high-level category this detailed cause belongs to.
    pub fn category(&self) -> RootCause {
        match self {
            DetailedCause::Memory
            | DetailedCause::Cpu
            | DetailedCause::NodeInterconnect
            | DetailedCause::Disk
            | DetailedCause::PowerSupply
            | DetailedCause::OtherHardware => RootCause::Hardware,
            DetailedCause::OperatingSystem
            | DetailedCause::ParallelFileSystem
            | DetailedCause::Scheduler
            | DetailedCause::OtherSoftware => RootCause::Software,
            DetailedCause::PowerOutage | DetailedCause::AirConditioning => RootCause::Environment,
            DetailedCause::NetworkOther => RootCause::Network,
            DetailedCause::HumanOther => RootCause::Human,
            DetailedCause::Undetermined => RootCause::Unknown,
        }
    }

    /// Short label for reports.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            DetailedCause::Memory => "memory",
            DetailedCause::Cpu => "cpu",
            DetailedCause::NodeInterconnect => "node-interconnect",
            DetailedCause::Disk => "disk",
            DetailedCause::PowerSupply => "power-supply",
            DetailedCause::OtherHardware => "other-hardware",
            DetailedCause::OperatingSystem => "operating-system",
            DetailedCause::ParallelFileSystem => "parallel-fs",
            DetailedCause::Scheduler => "scheduler",
            DetailedCause::OtherSoftware => "other-software",
            DetailedCause::PowerOutage => "power-outage",
            DetailedCause::AirConditioning => "air-conditioning",
            DetailedCause::NetworkOther => "network-other",
            DetailedCause::HumanOther => "human-other",
            DetailedCause::Undetermined => "undetermined",
        }
    }

    /// Every detailed cause.
    pub const ALL: [DetailedCause; 15] = [
        DetailedCause::Memory,
        DetailedCause::Cpu,
        DetailedCause::NodeInterconnect,
        DetailedCause::Disk,
        DetailedCause::PowerSupply,
        DetailedCause::OtherHardware,
        DetailedCause::OperatingSystem,
        DetailedCause::ParallelFileSystem,
        DetailedCause::Scheduler,
        DetailedCause::OtherSoftware,
        DetailedCause::PowerOutage,
        DetailedCause::AirConditioning,
        DetailedCause::NetworkOther,
        DetailedCause::HumanOther,
        DetailedCause::Undetermined,
    ];
}

impl fmt::Display for DetailedCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for DetailedCause {
    type Err = RecordError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let needle = s.trim().to_ascii_lowercase();
        DetailedCause::ALL
            .iter()
            .find(|c| c.name() == needle)
            .copied()
            .ok_or(RecordError::ParseField {
                field: "detailed cause",
                value: s.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_parsing_and_display() {
        assert_eq!(
            "Hardware".parse::<RootCause>().unwrap(),
            RootCause::Hardware
        );
        assert_eq!("hw".parse::<RootCause>().unwrap(), RootCause::Hardware);
        assert_eq!("ENV".parse::<RootCause>().unwrap(), RootCause::Environment);
        assert!("gremlins".parse::<RootCause>().is_err());
        assert_eq!(RootCause::Software.to_string(), "software");
    }

    #[test]
    fn all_contains_each_once() {
        for c in RootCause::ALL {
            assert_eq!(RootCause::ALL.iter().filter(|&&x| x == c).count(), 1, "{c}");
            assert_eq!(RootCause::ALL[c.index()], c);
        }
    }

    #[test]
    fn detailed_categories_are_consistent() {
        assert_eq!(DetailedCause::Memory.category(), RootCause::Hardware);
        assert_eq!(DetailedCause::Cpu.category(), RootCause::Hardware);
        assert_eq!(
            DetailedCause::ParallelFileSystem.category(),
            RootCause::Software
        );
        assert_eq!(DetailedCause::Scheduler.category(), RootCause::Software);
        assert_eq!(
            DetailedCause::PowerOutage.category(),
            RootCause::Environment
        );
        assert_eq!(DetailedCause::Undetermined.category(), RootCause::Unknown);
        // Environment has exactly the paper's two detailed causes.
        let env_count = DetailedCause::ALL
            .iter()
            .filter(|c| c.category() == RootCause::Environment)
            .count();
        assert_eq!(env_count, 2);
    }

    #[test]
    fn detailed_parse_round_trip() {
        for c in DetailedCause::ALL {
            let parsed: DetailedCause = c.name().parse().unwrap();
            assert_eq!(parsed, c);
        }
        assert!("flux-capacitor".parse::<DetailedCause>().is_err());
    }

    #[test]
    fn every_category_has_a_detail() {
        for cat in RootCause::ALL {
            assert!(
                DetailedCause::ALL.iter().any(|d| d.category() == cat),
                "{cat} has no detailed cause"
            );
        }
    }
}
