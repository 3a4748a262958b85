//! Identifier newtypes for systems, nodes, and hardware types.

use std::fmt;
use std::str::FromStr;

use crate::error::RecordError;

/// A LANL system identifier, 1–22 in the published data.
///
/// ```
/// use hpcfail_records::SystemId;
/// let sys = SystemId::new(20);
/// assert_eq!(sys.get(), 20);
/// assert_eq!(sys.to_string(), "20");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SystemId(u32);

impl SystemId {
    /// Wrap a raw system number.
    pub const fn new(id: u32) -> Self {
        SystemId(id)
    }

    /// The raw system number.
    pub fn get(&self) -> u32 {
        self.0
    }
}

impl fmt::Display for SystemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for SystemId {
    fn from(id: u32) -> Self {
        SystemId(id)
    }
}

impl FromStr for SystemId {
    type Err = RecordError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.trim()
            .parse::<u32>()
            .map(SystemId)
            .map_err(|_| RecordError::ParseField {
                field: "system",
                value: s.to_string(),
            })
    }
}

/// A node index within one system (0-based, as in Fig. 3(a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Wrap a raw node index.
    pub const fn new(id: u32) -> Self {
        NodeId(id)
    }

    /// The raw node index.
    pub fn get(&self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(id: u32) -> Self {
        NodeId(id)
    }
}

impl FromStr for NodeId {
    type Err = RecordError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.trim()
            .parse::<u32>()
            .map(NodeId)
            .map_err(|_| RecordError::ParseField {
                field: "node",
                value: s.to_string(),
            })
    }
}

/// Anonymized processor/memory chip model, `A`–`H` as in Table 1.
///
/// The paper groups its per-type breakdowns (Fig. 1) by the types D–H that
/// have multi-node systems; A–C are small single-node machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HardwareType {
    /// Single 8-processor node (system 1).
    A,
    /// Single 32-processor node (system 2).
    B,
    /// Single 4-processor node (system 3).
    C,
    /// The first large SMP cluster at LANL (system 4).
    D,
    /// 2–4-way SMP cluster family, systems 5–12.
    E,
    /// 2–4-way SMP cluster family, systems 13–18.
    F,
    /// NUMA systems, 19–21 (the first NUMA era at LANL).
    G,
    /// Single large NUMA node (system 22).
    H,
}

impl HardwareType {
    /// All eight hardware types in Table 1 order.
    pub const ALL: [HardwareType; 8] = [
        HardwareType::A,
        HardwareType::B,
        HardwareType::C,
        HardwareType::D,
        HardwareType::E,
        HardwareType::F,
        HardwareType::G,
        HardwareType::H,
    ];

    /// The five types shown in the per-type bars of Fig. 1 (A–C omitted
    /// "for better readability" per the paper's footnote 2).
    pub const FIGURE1_SET: [HardwareType; 5] = [
        HardwareType::D,
        HardwareType::E,
        HardwareType::F,
        HardwareType::G,
        HardwareType::H,
    ];

    /// Single-letter label as used in Table 1.
    pub(crate) fn letter(&self) -> char {
        match self {
            HardwareType::A => 'A',
            HardwareType::B => 'B',
            HardwareType::C => 'C',
            HardwareType::D => 'D',
            HardwareType::E => 'E',
            HardwareType::F => 'F',
            HardwareType::G => 'G',
            HardwareType::H => 'H',
        }
    }

    /// Whether systems of this type are NUMA (G, H) rather than SMP.
    pub fn is_numa(&self) -> bool {
        matches!(self, HardwareType::G | HardwareType::H)
    }
}

impl fmt::Display for HardwareType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.letter())
    }
}

impl FromStr for HardwareType {
    type Err = RecordError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "A" | "a" => Ok(HardwareType::A),
            "B" | "b" => Ok(HardwareType::B),
            "C" | "c" => Ok(HardwareType::C),
            "D" | "d" => Ok(HardwareType::D),
            "E" | "e" => Ok(HardwareType::E),
            "F" | "f" => Ok(HardwareType::F),
            "G" | "g" => Ok(HardwareType::G),
            "H" | "h" => Ok(HardwareType::H),
            other => Err(RecordError::ParseField {
                field: "hardware type",
                value: other.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_id_round_trip() {
        let s: SystemId = "20".parse().unwrap();
        assert_eq!(s, SystemId::new(20));
        assert_eq!(s.to_string(), "20");
        assert_eq!(SystemId::from(7u32).get(), 7);
        assert!(" 5 ".parse::<SystemId>().is_ok());
        assert!("x".parse::<SystemId>().is_err());
        assert!("-1".parse::<SystemId>().is_err());
    }

    #[test]
    fn node_id_round_trip() {
        let n: NodeId = "22".parse().unwrap();
        assert_eq!(n.get(), 22);
        assert!("22.5".parse::<NodeId>().is_err());
    }

    #[test]
    fn hardware_type_parsing() {
        assert_eq!("E".parse::<HardwareType>().unwrap(), HardwareType::E);
        assert_eq!("g".parse::<HardwareType>().unwrap(), HardwareType::G);
        assert!("Z".parse::<HardwareType>().is_err());
        assert_eq!(HardwareType::D.to_string(), "D");
    }

    #[test]
    fn numa_classification() {
        assert!(HardwareType::G.is_numa());
        assert!(HardwareType::H.is_numa());
        assert!(!HardwareType::E.is_numa());
        assert!(!HardwareType::D.is_numa());
    }

    #[test]
    fn type_sets() {
        assert_eq!(HardwareType::ALL.len(), 8);
        assert_eq!(HardwareType::FIGURE1_SET.len(), 5);
        assert!(!HardwareType::FIGURE1_SET.contains(&HardwareType::A));
        // Ordering matches Table 1 letters.
        assert!(HardwareType::A < HardwareType::H);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(SystemId::new(1));
        set.insert(SystemId::new(1));
        set.insert(SystemId::new(2));
        assert_eq!(set.len(), 2);
        assert!(NodeId::new(3) < NodeId::new(10));
    }
}
