//! Workload classification of nodes.
//!
//! The LANL records tag each node with the type of workload it runs
//! (Section 2.3): `compute`, `graphics` (visualization), or `fe`
//! (front-end). The paper finds markedly higher failure rates on graphics
//! and front-end nodes (Fig. 3(a) and Section 5.1).

use std::fmt;
use std::str::FromStr;

use crate::error::RecordError;

/// The type of workload a node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Workload {
    /// Long-running 3D scientific simulation (months of CPU, periodic
    /// checkpoint I/O).
    Compute,
    /// Scientific visualization — more varied and interactive; on
    /// system 20 these nodes (21–23) show ~3× the failure rate.
    Graphics,
    /// Front-end/login nodes — the most varied, interactive workload.
    FrontEnd,
}

impl Workload {
    /// All workload classes.
    pub const ALL: [Workload; 3] = [Workload::Compute, Workload::Graphics, Workload::FrontEnd];

    /// The label used in the LANL data.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Compute => "compute",
            Workload::Graphics => "graphics",
            Workload::FrontEnd => "fe",
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Workload {
    type Err = RecordError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "compute" => Ok(Workload::Compute),
            "graphics" => Ok(Workload::Graphics),
            "fe" | "frontend" | "front-end" => Ok(Workload::FrontEnd),
            other => Err(RecordError::ParseField {
                field: "workload",
                value: other.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        assert_eq!("compute".parse::<Workload>().unwrap(), Workload::Compute);
        assert_eq!("fe".parse::<Workload>().unwrap(), Workload::FrontEnd);
        assert_eq!("front-end".parse::<Workload>().unwrap(), Workload::FrontEnd);
        assert_eq!("GRAPHICS".parse::<Workload>().unwrap(), Workload::Graphics);
        assert!("quantum".parse::<Workload>().is_err());
        assert_eq!(Workload::FrontEnd.to_string(), "fe");
    }

    #[test]
    fn all_unique() {
        assert_eq!(Workload::ALL.len(), 3);
        for w in Workload::ALL {
            assert_eq!(Workload::ALL.iter().filter(|&&x| x == w).count(), 1);
        }
    }
}
