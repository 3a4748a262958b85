//! Ready-made scenarios: one-call constructors for the traces every
//! experiment in EXPERIMENTS.md runs on.

use hpcfail_records::{FailureTrace, SystemId};

use crate::config::Calibration;
use crate::error::SynthError;
use crate::generator::TraceGenerator;

/// The seed the experiment harness (`repro`) uses for all reported numbers.
pub const DEFAULT_SEED: u64 = 42;

/// Generate the full 22-system LANL-like site trace.
///
/// # Errors
///
/// Propagates generator failures (none occur with the built-in catalog
/// and calibration).
pub fn site_trace(seed: u64) -> Result<FailureTrace, SynthError> {
    let catalog = hpcfail_records::Catalog::lanl();
    let calibration = Calibration::lanl();
    TraceGenerator::new(&catalog, &calibration)?.site_trace(seed)
}

/// Generate the trace of a single system.
///
/// # Errors
///
/// [`SynthError::UnknownSystem`] for ids outside 1–22.
pub fn system_trace(system: SystemId, seed: u64) -> Result<FailureTrace, SynthError> {
    let catalog = hpcfail_records::Catalog::lanl();
    let calibration = Calibration::lanl();
    TraceGenerator::new(&catalog, &calibration)?.system_trace(system, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_system_scenario() {
        let t = system_trace(SystemId::new(12), DEFAULT_SEED).unwrap();
        assert!(!t.is_empty());
        let by_system = t.index().count_by_system();
        assert!(by_system.contains_key(&SystemId::new(12)));
        assert_eq!(by_system.len(), 1);
    }

    #[test]
    fn unknown_system_errors() {
        assert!(system_trace(SystemId::new(0), 1).is_err());
    }
}
