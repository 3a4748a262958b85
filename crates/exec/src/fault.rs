//! The fault-plan core shared by every seeded fault injector.
//!
//! An injector (CSV rows, `.hpct` bytes, TCP clients) names its fault
//! vocabulary by implementing [`FaultKind`]; everything else — the
//! weighted [`FaultMix`], the replayable [`FaultPlan`], the unit-float
//! roll and the seeded Fisher–Yates shuffle — is defined once here. The
//! draws themselves stay with the injector (per-position
//! [`SeedSequence`](crate::SeedSequence) streams or a running
//! [`splitmix64`](crate::splitmix64) state), so a plan expands exactly
//! as its injector always expanded it.

use std::fmt;
use std::marker::PhantomData;

/// Most kinds one vocabulary may hold (the weight array's capacity).
const MAX_KINDS: usize = 8;

/// A closed vocabulary of fault kinds one injector speaks.
pub trait FaultKind: Copy + Eq + fmt::Debug + 'static {
    /// Every kind, in the stable order weights, picks and replay
    /// strings use. At most eight kinds.
    const ALL: &'static [Self];

    /// Stable short name, as printed in replay strings and reports.
    fn name(self) -> &'static str;

    /// Position of this kind in [`FaultKind::ALL`].
    fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&k| k == self)
            .expect("every fault kind is listed in ALL")
    }
}

/// Relative weights over a fault vocabulary, held in [`FaultKind::ALL`]
/// order. A weight of zero disables that kind; a mix whose weights are
/// all zero injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultMix<K> {
    weights: [u32; MAX_KINDS],
    kinds: PhantomData<K>,
}

impl<K: FaultKind> FaultMix<K> {
    const NONE: Self = FaultMix {
        weights: [0; MAX_KINDS],
        kinds: PhantomData,
    };

    /// Every kind equally likely.
    pub fn uniform() -> Self {
        K::ALL
            .iter()
            .fold(Self::NONE, |mix, &kind| mix.with(kind, 1))
    }

    /// Only `kind`, with weight 1.
    pub fn only(kind: K) -> Self {
        Self::NONE.with(kind, 1)
    }

    /// This mix with `kind`'s weight set to `weight`.
    #[must_use]
    pub fn with(mut self, kind: K, weight: u32) -> Self {
        self.weights[kind.index()] = weight;
        self
    }

    /// Sum of all weights.
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().map(|&w| u64::from(w)).sum()
    }

    /// The kind a uniform 64-bit `roll` selects, with probability
    /// proportional to its weight; `None` when every weight is zero.
    pub fn pick(&self, roll: u64) -> Option<K> {
        let total = self.total_weight();
        if total == 0 {
            return None;
        }
        let mut roll = roll % total;
        for (&kind, &weight) in K::ALL.iter().zip(&self.weights) {
            if roll < u64::from(weight) {
                return Some(kind);
            }
            roll -= u64::from(weight);
        }
        unreachable!("roll < total weight")
    }
}

/// Renders `[name:weight …]` in [`FaultKind::ALL`] order.
impl<K: FaultKind> fmt::Display for FaultMix<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, (&kind, weight)) in K::ALL.iter().zip(self.weights).enumerate() {
            let sep = if i == 0 { "" } else { " " };
            write!(f, "{sep}{}:{weight}", kind.name())?;
        }
        f.write_str("]")
    }
}

/// A complete, replayable description of one fault workload: the root
/// seed, the per-unit fault probability, the weighted mix of kinds, and
/// whether the units are shuffled. Its [`Display`](fmt::Display) form is
/// the replay string the harnesses print on failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan<K> {
    /// Root seed for all randomness.
    pub seed: u64,
    /// Probability in `[0, 1]` that any given unit receives a fault.
    pub rate: f64,
    /// Relative weights of the fault kinds.
    pub mix: FaultMix<K>,
    /// Shuffle the units (seeded Fisher–Yates).
    pub shuffle: bool,
}

impl<K: FaultKind> FaultPlan<K> {
    /// A uniform-mix, unshuffled plan.
    pub fn new(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            rate,
            mix: FaultMix::uniform(),
            shuffle: false,
        }
    }
}

impl<K: FaultKind> fmt::Display for FaultPlan<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={} rate={} mix={} shuffle={}",
            self.seed, self.rate, self.mix, self.shuffle
        )
    }
}

/// `u64` → uniform `f64` in `[0, 1)` (the top 53 bits as the mantissa).
pub fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Seeded Fisher–Yates: for each position `i` from the back, swap with
/// `draw(i) % (i + 1)`. The injector supplies the draw, so each keeps
/// its own stream discipline.
pub fn shuffle<T>(items: &mut [T], mut draw: impl FnMut(u64) -> u64) {
    for i in (1..items.len()).rev() {
        let j = draw(i as u64) % (i as u64 + 1);
        items.swap(i, j as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Toy {
        A,
        B,
        C,
    }

    impl FaultKind for Toy {
        const ALL: &'static [Self] = &[Toy::A, Toy::B, Toy::C];
        fn name(self) -> &'static str {
            match self {
                Toy::A => "a",
                Toy::B => "b",
                Toy::C => "c",
            }
        }
    }

    #[test]
    fn pick_follows_the_weights_in_order() {
        let mix = FaultMix::uniform().with(Toy::A, 2).with(Toy::B, 0);
        assert_eq!(mix.total_weight(), 3);
        let picks: Vec<_> = (0..6).map(|r| mix.pick(r)).collect();
        let (a, c) = (Some(Toy::A), Some(Toy::C));
        assert_eq!(picks, [a, a, c, a, a, c]);
        assert_eq!(FaultMix::only(Toy::B).pick(u64::MAX), Some(Toy::B));
    }

    #[test]
    fn all_zero_mix_picks_nothing() {
        let none = FaultMix::only(Toy::A).with(Toy::A, 0);
        assert_eq!(none.total_weight(), 0);
        assert!((0..100).all(|r| none.pick(r).is_none()));
    }

    #[test]
    fn plan_renders_its_replay_string() {
        let plan = FaultPlan {
            shuffle: true,
            mix: FaultMix::uniform().with(Toy::C, 7),
            ..FaultPlan::<Toy>::new(9, 0.5)
        };
        assert_eq!(
            plan.to_string(),
            "seed=9 rate=0.5 mix=[a:1 b:1 c:7] shuffle=true"
        );
    }

    #[test]
    fn shuffle_permutes_with_the_supplied_draws() {
        let mut items: Vec<u32> = (0..10).collect();
        shuffle(&mut items, |i| i * 7 + 3);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        assert_ne!(items, sorted);
        let mut one = [5];
        shuffle(&mut one, |_| unreachable!("nothing to swap"));
        assert!(unit_f64(u64::MAX) < 1.0 && unit_f64(0) == 0.0);
    }
}
