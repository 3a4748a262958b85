//! Root-cause assignment, calibrated to Fig. 1 and the Section-4 detailed
//! findings: hardware is the largest category (30–62% by type), software
//! second; memory is >10% of *all* failures everywhere and >25% on types
//! F and H; type E hardware is dominated by the flawed CPU; software
//! detail varies by type (OS on E, parallel FS on F, scheduler on H,
//! unspecified on D and G).

use hpcfail_records::{DetailedCause, HardwareType, RootCause};
use rand::{Rng, RngExt};

/// Sampling weights over the six high-level root causes, in
/// [`RootCause::ALL`] order (hardware, software, network, environment,
/// human, unknown).
///
/// The cumulative weights are precomputed at construction so each draw
/// is a `partition_point` lookup instead of a linear walk; the running
/// sums are built with the exact same left-to-right additions the old
/// per-draw walk performed, so sampling is bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CauseMix {
    weights: [f64; 6],
    cum: [f64; 6],
}

fn cumulative(weights: &[f64; 6]) -> [f64; 6] {
    let mut cum = [0.0; 6];
    let mut acc = 0.0;
    for (c, &w) in cum.iter_mut().zip(weights) {
        acc += w;
        *c = acc;
    }
    cum
}

impl CauseMix {
    /// Create a mix from weights in [`RootCause::ALL`] order. Weights are
    /// normalized; returns `None` if any weight is negative/non-finite or
    /// all are zero.
    pub fn new(weights: [f64; 6]) -> Option<Self> {
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return None;
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return None;
        }
        let mut normalized = weights;
        for w in &mut normalized {
            *w /= total;
        }
        Some(CauseMix {
            weights: normalized,
            cum: cumulative(&normalized),
        })
    }

    /// The normalized probability of a category.
    pub fn probability(&self, cause: RootCause) -> f64 {
        self.weights[cause.index()]
    }

    /// Sample a high-level category: one uniform draw located in the
    /// precomputed cumulative weights. Returns the first category whose
    /// running sum exceeds the draw — exactly what the old linear walk
    /// returned, including the round-off fallback to `Unknown`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> RootCause {
        let u: f64 = rng.random();
        let i = self.cum.partition_point(|&c| c <= u);
        RootCause::ALL[i.min(5)]
    }

    /// The Fig. 1(a)-calibrated mix for a hardware type.
    pub(crate) fn for_type(hw: HardwareType) -> Self {
        // (hardware, software, network, environment, human, unknown)
        let weights = match hw {
            // Small single-node systems (not shown in Fig 1; generic mix).
            HardwareType::A | HardwareType::B | HardwareType::C => {
                [0.45, 0.15, 0.05, 0.05, 0.03, 0.27]
            }
            // Type D: hardware and software "almost equally frequent".
            HardwareType::D => [0.32, 0.30, 0.08, 0.04, 0.04, 0.22],
            // Type E: <5% unknown root causes.
            HardwareType::E => [0.62, 0.20, 0.05, 0.04, 0.05, 0.04],
            HardwareType::F => [0.58, 0.15, 0.02, 0.02, 0.01, 0.22],
            HardwareType::G => [0.60, 0.06, 0.03, 0.02, 0.01, 0.28],
            HardwareType::H => [0.45, 0.12, 0.05, 0.08, 0.02, 0.28],
        };
        CauseMix::new(weights).expect("static weights are valid")
    }
}

/// A weight table over detailed causes with precomputed cumulative
/// sums, so a draw is one `partition_point` instead of a linear walk.
#[derive(Debug, Clone, Copy)]
struct CumTable {
    causes: [DetailedCause; 6],
    cum: [f64; 6],
    len: usize,
    total: f64,
}

impl CumTable {
    fn new(table: &[(DetailedCause, f64)]) -> Self {
        debug_assert!(!table.is_empty() && table.len() <= 6);
        let total: f64 = table.iter().map(|(_, w)| w).sum();
        let mut causes = [DetailedCause::Undetermined; 6];
        let mut cum = [f64::INFINITY; 6];
        let mut acc = 0.0;
        for (i, &(c, w)) in table.iter().enumerate() {
            causes[i] = c;
            acc += w;
            cum[i] = acc;
        }
        CumTable {
            causes,
            cum,
            len: table.len(),
            total,
        }
    }

    /// One uniform draw scaled by the (unnormalized) total, located in
    /// the cumulative sums; round-off past the last entry falls back to
    /// the last cause, as the old subtractive walk did.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> DetailedCause {
        let u: f64 = rng.random::<f64>() * self.total;
        let i = self.cum[..self.len].partition_point(|&c| c <= u);
        self.causes[i.min(self.len - 1)]
    }
}

/// Conditional sampler for the detailed cause given the high-level
/// category and hardware type.
///
/// The per-category weight tables are turned into cumulative-sum tables
/// once at construction (`DetailModel::for_type`); each draw then
/// costs a single uniform plus a binary search. Equality is defined by
/// the hardware type alone, exactly as before the tables were cached
/// (the tables are a pure function of it).
#[derive(Debug, Clone, Copy)]
pub struct DetailModel {
    hw: HardwareType,
    hardware: CumTable,
    software: CumTable,
    environment: CumTable,
}

impl PartialEq for DetailModel {
    fn eq(&self, other: &Self) -> bool {
        self.hw == other.hw
    }
}

impl Eq for DetailModel {}

impl DetailModel {
    /// Detail model for a hardware type.
    pub(crate) fn for_type(hw: HardwareType) -> Self {
        DetailModel {
            hw,
            hardware: CumTable::new(Self::hardware_mix(hw)),
            software: CumTable::new(Self::software_mix(hw)),
            environment: CumTable::new(&[
                (DetailedCause::PowerOutage, 0.6),
                (DetailedCause::AirConditioning, 0.4),
            ]),
        }
    }

    /// The hardware-failure detail mix `(cause, weight)` for this type.
    fn hardware_mix(hw: HardwareType) -> &'static [(DetailedCause, f64)] {
        use DetailedCause::*;
        match hw {
            // Type E: the CPU design flaw makes CPU >50% of ALL failures
            // (0.81 × 0.62 hardware share ≈ 0.50); memory still >10%.
            HardwareType::E => &[
                (Cpu, 0.81),
                (Memory, 0.17),
                (NodeInterconnect, 0.01),
                (Disk, 0.005),
                (PowerSupply, 0.005),
            ],
            // Types F and H: memory alone >25% of all failures.
            HardwareType::F => &[
                (Memory, 0.48),
                (Cpu, 0.10),
                (Disk, 0.14),
                (NodeInterconnect, 0.10),
                (PowerSupply, 0.08),
                (OtherHardware, 0.10),
            ],
            HardwareType::H => &[
                (Memory, 0.60),
                (Cpu, 0.10),
                (Disk, 0.10),
                (NodeInterconnect, 0.08),
                (PowerSupply, 0.05),
                (OtherHardware, 0.07),
            ],
            // Type D has a small hardware share, so memory needs a large
            // share of it to stay >10% of all failures.
            HardwareType::D => &[
                (Memory, 0.36),
                (Cpu, 0.12),
                (Disk, 0.18),
                (NodeInterconnect, 0.12),
                (PowerSupply, 0.08),
                (OtherHardware, 0.14),
            ],
            _ => &[
                (Memory, 0.25),
                (Cpu, 0.15),
                (Disk, 0.18),
                (NodeInterconnect, 0.14),
                (PowerSupply, 0.10),
                (OtherHardware, 0.18),
            ],
        }
    }

    /// The software-failure detail mix for this type (Section 4: OS on E,
    /// parallel FS on F, scheduler on H, unspecified on D and G).
    fn software_mix(hw: HardwareType) -> &'static [(DetailedCause, f64)] {
        use DetailedCause::*;
        match hw {
            HardwareType::E => &[
                (OperatingSystem, 0.55),
                (ParallelFileSystem, 0.15),
                (Scheduler, 0.10),
                (OtherSoftware, 0.20),
            ],
            HardwareType::F => &[
                (ParallelFileSystem, 0.50),
                (OperatingSystem, 0.20),
                (Scheduler, 0.10),
                (OtherSoftware, 0.20),
            ],
            HardwareType::H => &[
                (Scheduler, 0.50),
                (OperatingSystem, 0.20),
                (ParallelFileSystem, 0.10),
                (OtherSoftware, 0.20),
            ],
            HardwareType::D | HardwareType::G => &[
                (OtherSoftware, 0.60),
                (OperatingSystem, 0.20),
                (ParallelFileSystem, 0.10),
                (Scheduler, 0.10),
            ],
            _ => &[
                (OperatingSystem, 0.40),
                (ParallelFileSystem, 0.20),
                (Scheduler, 0.15),
                (OtherSoftware, 0.25),
            ],
        }
    }

    /// Sample a detailed cause consistent with the high-level category:
    /// still a single uniform draw per call, located in the precomputed
    /// cumulative table for the category.
    pub(crate) fn sample<R: Rng + ?Sized>(
        &self,
        category: RootCause,
        rng: &mut R,
    ) -> DetailedCause {
        let table = match category {
            RootCause::Hardware => &self.hardware,
            RootCause::Software => &self.software,
            RootCause::Environment => &self.environment,
            RootCause::Network => return DetailedCause::NetworkOther,
            RootCause::Human => return DetailedCause::HumanOther,
            RootCause::Unknown => return DetailedCause::Undetermined,
        };
        table.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    #[test]
    fn mix_validation() {
        assert!(CauseMix::new([1.0, 1.0, 1.0, 1.0, 1.0, 1.0]).is_some());
        assert!(CauseMix::new([0.0; 6]).is_none());
        assert!(CauseMix::new([-1.0, 1.0, 1.0, 1.0, 1.0, 1.0]).is_none());
        assert!(CauseMix::new([f64::NAN, 1.0, 1.0, 1.0, 1.0, 1.0]).is_none());
    }

    #[test]
    fn probabilities_normalize() {
        let mix = CauseMix::new([2.0, 1.0, 1.0, 0.0, 0.0, 0.0]).unwrap();
        assert!((mix.probability(RootCause::Hardware) - 0.5).abs() < 1e-12);
        assert!((mix.probability(RootCause::Environment)).abs() < 1e-12);
        let total: f64 = RootCause::ALL.iter().map(|&c| mix.probability(c)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_weights() {
        let mix = CauseMix::for_type(HardwareType::E);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts: BTreeMap<RootCause, u64> = BTreeMap::new();
        let n = 100_000;
        for _ in 0..n {
            *counts.entry(mix.sample(&mut rng)).or_insert(0) += 1;
        }
        for cause in RootCause::ALL {
            let measured = *counts.get(&cause).unwrap_or(&0) as f64 / n as f64;
            let expected = mix.probability(cause);
            assert!(
                (measured - expected).abs() < 0.01,
                "{cause}: {measured} vs {expected}"
            );
        }
    }

    #[test]
    fn mix_sampling_matches_linear_walk() {
        // The partition_point lookup must return exactly what the old
        // per-draw linear walk over the weights returned, draw for draw.
        for (seed, &hw) in HardwareType::ALL.iter().enumerate() {
            let mix = CauseMix::for_type(hw);
            let mut fast = StdRng::seed_from_u64(seed as u64);
            let mut reference = StdRng::seed_from_u64(seed as u64);
            for _ in 0..10_000 {
                let got = mix.sample(&mut fast);
                let u: f64 = reference.random();
                let mut acc = 0.0;
                let mut expect = RootCause::ALL[5];
                for (i, &c) in RootCause::ALL.iter().enumerate() {
                    acc += mix.probability(c);
                    if u < acc {
                        expect = RootCause::ALL[i];
                        break;
                    }
                }
                assert_eq!(got, expect, "{hw}");
            }
        }
    }

    #[test]
    fn detail_sampling_matches_linear_walk() {
        // Same pin for the conditional detail tables: the cached
        // cumulative sums must reproduce the old subtractive walk.
        let mut fast = StdRng::seed_from_u64(7);
        let mut reference = StdRng::seed_from_u64(7);
        let env: &[(DetailedCause, f64)] = &[
            (DetailedCause::PowerOutage, 0.6),
            (DetailedCause::AirConditioning, 0.4),
        ];
        for hw in HardwareType::ALL {
            let model = DetailModel::for_type(hw);
            for cat in [
                RootCause::Hardware,
                RootCause::Software,
                RootCause::Environment,
            ] {
                let table: &[(DetailedCause, f64)] = match cat {
                    RootCause::Hardware => DetailModel::hardware_mix(hw),
                    RootCause::Software => DetailModel::software_mix(hw),
                    _ => env,
                };
                for _ in 0..5_000 {
                    let got = model.sample(cat, &mut fast);
                    let total: f64 = table.iter().map(|(_, w)| w).sum();
                    let mut u: f64 = reference.random::<f64>() * total;
                    let mut expect = table.last().unwrap().0;
                    for &(cause, w) in table {
                        if u < w {
                            expect = cause;
                            break;
                        }
                        u -= w;
                    }
                    assert_eq!(got, expect, "{hw} {cat}");
                }
            }
        }
    }

    #[test]
    fn reconstruction_is_equal_and_samples_identically() {
        // The cached cumulative tables are a pure function of the
        // construction inputs: rebuilding a mix/model yields an equal
        // value with an identical draw sequence.
        let mix = CauseMix::for_type(HardwareType::F);
        let again = CauseMix::for_type(HardwareType::F);
        assert_eq!(mix, again);
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        for _ in 0..1_000 {
            assert_eq!(mix.sample(&mut a), again.sample(&mut b));
        }

        let model = DetailModel::for_type(HardwareType::H);
        let again = DetailModel::for_type(HardwareType::H);
        assert_eq!(model, again);
        let mut a = StdRng::seed_from_u64(12);
        let mut b = StdRng::seed_from_u64(12);
        for _ in 0..1_000 {
            let c = model.sample(RootCause::Hardware, &mut a);
            assert_eq!(c, again.sample(RootCause::Hardware, &mut b));
        }
    }

    #[test]
    fn paper_shape_hardware_largest_software_second() {
        for hw in HardwareType::FIGURE1_SET {
            let mix = CauseMix::for_type(hw);
            let hw_p = mix.probability(RootCause::Hardware);
            let sw_p = mix.probability(RootCause::Software);
            assert!(hw_p >= sw_p, "{hw}: hardware must lead");
            assert!((0.30..=0.65).contains(&hw_p), "{hw}: hw {hw_p}");
            // Software 5–30% (paper: 5–24%, type D near parity with hw).
            assert!((0.05..=0.31).contains(&sw_p), "{hw}: sw {sw_p}");
        }
        // Type E: unknown < 5%.
        assert!(CauseMix::for_type(HardwareType::E).probability(RootCause::Unknown) < 0.05);
        // Type D: hw ≈ sw.
        let d = CauseMix::for_type(HardwareType::D);
        assert!(
            (d.probability(RootCause::Hardware) - d.probability(RootCause::Software)).abs() < 0.05
        );
    }

    #[test]
    fn memory_exceeds_ten_percent_of_all_everywhere() {
        // P(memory) = P(hardware) × P(memory | hardware) must be > 0.10
        // for every type, and > 0.25 for F and H (Section 4).
        let mut rng = StdRng::seed_from_u64(2);
        for hw in HardwareType::ALL {
            let mix = CauseMix::for_type(hw);
            let detail = DetailModel::for_type(hw);
            let n = 50_000;
            let mut memory = 0u64;
            for _ in 0..n {
                let cat = mix.sample(&mut rng);
                if detail.sample(cat, &mut rng) == DetailedCause::Memory {
                    memory += 1;
                }
            }
            let frac = memory as f64 / n as f64;
            assert!(frac > 0.10, "{hw}: memory fraction {frac}");
            if matches!(hw, HardwareType::F | HardwareType::H) {
                assert!(frac > 0.25, "{hw}: memory fraction {frac}");
            }
        }
    }

    #[test]
    fn type_e_cpu_dominates() {
        let mut rng = StdRng::seed_from_u64(3);
        let mix = CauseMix::for_type(HardwareType::E);
        let detail = DetailModel::for_type(HardwareType::E);
        let n = 50_000;
        let mut cpu = 0u64;
        for _ in 0..n {
            let cat = mix.sample(&mut rng);
            if detail.sample(cat, &mut rng) == DetailedCause::Cpu {
                cpu += 1;
            }
        }
        let frac = cpu as f64 / n as f64;
        assert!(frac > 0.45, "type E cpu fraction {frac} (paper: >50%)");
    }

    #[test]
    fn detail_is_consistent_with_category() {
        let mut rng = StdRng::seed_from_u64(4);
        for hw in HardwareType::ALL {
            let detail = DetailModel::for_type(hw);
            for cat in RootCause::ALL {
                for _ in 0..200 {
                    let d = detail.sample(cat, &mut rng);
                    assert_eq!(d.category(), cat, "{hw} {cat} -> {d}");
                }
            }
        }
    }

    #[test]
    fn software_detail_matches_section4() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut dominant = |hw: HardwareType| {
            let detail = DetailModel::for_type(hw);
            let mut counts: BTreeMap<DetailedCause, u64> = BTreeMap::new();
            for _ in 0..20_000 {
                *counts
                    .entry(detail.sample(RootCause::Software, &mut rng))
                    .or_insert(0) += 1;
            }
            counts.into_iter().max_by_key(|&(_, n)| n).unwrap().0
        };
        assert_eq!(dominant(HardwareType::E), DetailedCause::OperatingSystem);
        assert_eq!(dominant(HardwareType::F), DetailedCause::ParallelFileSystem);
        assert_eq!(dominant(HardwareType::H), DetailedCause::Scheduler);
        assert_eq!(dominant(HardwareType::D), DetailedCause::OtherSoftware);
        assert_eq!(dominant(HardwareType::G), DetailedCause::OtherSoftware);
    }
}
