//! The systems catalog — Table 1 of the paper.
//!
//! 22 systems, 4750 nodes, ~24.1k processors, hardware types A–H,
//! production intervals between June 1996 and November 2005. Nodes within
//! a system may differ (node categories with different processor counts,
//! memory sizes, NIC counts, and production start).
//!
//! Reconstruction notes: the scanned Table 1 loses some node-category
//! detail. Our catalog reproduces the documented per-system node and
//! processor counts exactly; the processor total is 24_092 versus the
//! abstract's 24_101 — the 9-processor difference lies in node-category
//! detail not recoverable from the scan (see DESIGN.md §4). Node counts
//! total exactly 4750.

use crate::error::RecordError;
use crate::ids::{HardwareType, NodeId, SystemId};
use crate::time::Timestamp;
use crate::workload::Workload;

/// The end of the published data: November 30, 2005.
pub(crate) fn end_of_data() -> Timestamp {
    Timestamp::from_civil(2005, 11, 30, 0, 0, 0).expect("valid date")
}

/// A group of identical nodes within a system (right half of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCategory {
    /// Number of nodes in this category.
    pub nodes: u32,
    /// Processors per node.
    pub procs_per_node: u32,
    /// Main memory per node in GB.
    pub memory_gb: u32,
    /// Network interfaces per node.
    pub nics: u32,
}

impl NodeCategory {
    /// Total processors across the category.
    pub(crate) fn total_procs(&self) -> u32 {
        self.nodes * self.procs_per_node
    }
}

/// One system of Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemSpec {
    id: SystemId,
    hardware: HardwareType,
    categories: Vec<NodeCategory>,
    production_start: Timestamp,
    production_end: Timestamp,
    /// Node indices running visualization workloads (system 20: 21–23).
    graphics_nodes: Vec<u32>,
    /// Node indices used as front-end nodes.
    frontend_nodes: Vec<u32>,
}

impl SystemSpec {
    /// System identifier (1–22).
    pub fn id(&self) -> SystemId {
        self.id
    }

    /// Hardware type letter.
    pub fn hardware(&self) -> HardwareType {
        self.hardware
    }

    /// Node categories.
    pub fn categories(&self) -> &[NodeCategory] {
        &self.categories
    }

    /// Total node count.
    pub fn nodes(&self) -> u32 {
        self.categories.iter().map(|c| c.nodes).sum()
    }

    /// Total processor count.
    pub fn procs(&self) -> u32 {
        self.categories.iter().map(|c| c.total_procs()).sum()
    }

    /// Production start.
    pub fn production_start(&self) -> Timestamp {
        self.production_start
    }

    /// Production end (decommission or end of data).
    pub fn production_end(&self) -> Timestamp {
        self.production_end
    }

    /// Production time in (fractional) years.
    pub fn production_years(&self) -> f64 {
        (self.production_end - self.production_start) as f64 / crate::time::YEAR as f64
    }

    /// The workload class a given node runs.
    pub fn workload_of(&self, node: NodeId) -> Workload {
        if self.graphics_nodes.contains(&node.get()) {
            Workload::Graphics
        } else if self.frontend_nodes.contains(&node.get()) {
            Workload::FrontEnd
        } else {
            Workload::Compute
        }
    }

    /// Whether `node` is a valid index for this system.
    pub fn contains_node(&self, node: NodeId) -> bool {
        node.get() < self.nodes()
    }
}

/// The full 22-system LANL catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Catalog {
    systems: Vec<SystemSpec>,
}

impl Catalog {
    /// Build the LANL catalog of Table 1.
    pub fn lanl() -> Self {
        let ts = |y, m| Timestamp::from_civil(y, m, 1, 0, 0, 0).expect("valid date");
        let now = end_of_data();
        let cat = |nodes, procs_per_node, memory_gb, nics| NodeCategory {
            nodes,
            procs_per_node,
            memory_gb,
            nics,
        };
        // (id, hw, categories, start, end, graphics, frontend)
        let mut systems = Vec::new();
        let mut push = |id: u32,
                        hw: HardwareType,
                        categories: Vec<NodeCategory>,
                        start: Timestamp,
                        end: Timestamp,
                        graphics: Vec<u32>,
                        frontend: Vec<u32>| {
            systems.push(SystemSpec {
                id: SystemId::new(id),
                hardware: hw,
                categories,
                production_start: start,
                production_end: end,
                graphics_nodes: graphics,
                frontend_nodes: frontend,
            });
        };
        use HardwareType::*;
        // Small single-node systems; data collection starts June 1996.
        push(
            1,
            A,
            vec![cat(1, 8, 16, 0)],
            ts(1996, 6),
            ts(1999, 12),
            vec![],
            vec![],
        );
        push(
            2,
            B,
            vec![cat(1, 32, 8, 1)],
            ts(1996, 6),
            ts(2003, 12),
            vec![],
            vec![],
        );
        push(
            3,
            C,
            vec![cat(1, 4, 1, 0)],
            ts(1996, 6),
            ts(2003, 4),
            vec![],
            vec![],
        );
        // The first large SMP cluster (ramp-then-drop lifecycle, Fig 4b).
        push(
            4,
            D,
            vec![cat(164, 2, 1, 1)],
            ts(2001, 4),
            now,
            vec![],
            vec![0],
        );
        // Type E family, systems 5–12. Systems 5–6 were the first of the
        // type and show elevated early failure rates (Fig 4a).
        push(
            5,
            E,
            vec![cat(256, 4, 16, 2)],
            ts(2001, 12),
            now,
            vec![],
            vec![0],
        );
        push(
            6,
            E,
            vec![cat(128, 4, 16, 2)],
            ts(2001, 9),
            now,
            vec![],
            vec![0],
        );
        push(
            7,
            E,
            vec![cat(1024, 4, 8, 2)],
            ts(2002, 5),
            now,
            vec![],
            vec![0],
        );
        push(
            8,
            E,
            vec![cat(1024, 4, 16, 2)],
            ts(2002, 5),
            now,
            vec![],
            vec![0],
        );
        push(
            9,
            E,
            vec![cat(127, 4, 32, 2), cat(1, 4, 352, 2)],
            ts(2002, 5),
            now,
            vec![],
            vec![0],
        );
        push(
            10,
            E,
            vec![cat(128, 4, 8, 2)],
            ts(2002, 5),
            now,
            vec![],
            vec![0],
        );
        push(
            11,
            E,
            vec![cat(128, 4, 16, 2)],
            ts(2002, 5),
            now,
            vec![],
            vec![0],
        );
        push(
            12,
            E,
            vec![cat(16, 4, 4, 1), cat(16, 4, 16, 1)],
            ts(2002, 10),
            now,
            vec![],
            vec![0],
        );
        // Type F family, systems 13–18.
        push(
            13,
            F,
            vec![cat(128, 2, 4, 1)],
            ts(2003, 9),
            now,
            vec![],
            vec![0],
        );
        push(
            14,
            F,
            vec![cat(256, 2, 4, 1)],
            ts(2003, 9),
            now,
            vec![],
            vec![0],
        );
        push(
            15,
            F,
            vec![cat(256, 2, 4, 1)],
            ts(2003, 9),
            now,
            vec![],
            vec![0],
        );
        push(
            16,
            F,
            vec![cat(256, 2, 4, 1)],
            ts(2003, 9),
            now,
            vec![],
            vec![0],
        );
        push(
            17,
            F,
            vec![cat(256, 2, 4, 1)],
            ts(2003, 9),
            now,
            vec![],
            vec![0],
        );
        push(
            18,
            F,
            vec![cat(256, 2, 4, 1), cat(256, 2, 16, 1)],
            ts(2003, 9),
            now,
            vec![],
            vec![0],
        );
        // NUMA era, type G. System 19 was among the first NUMA clusters
        // anywhere; system 20 is the 49-node, 6152-processor flagship whose
        // nodes 21–23 run visualization (Fig 3a). Node 0 (the single 8-proc
        // node) was in production much shorter (paper footnote 4).
        push(
            19,
            G,
            vec![cat(16, 128, 32, 4)],
            ts(1996, 12),
            ts(2002, 9),
            vec![],
            vec![],
        );
        push(
            20,
            G,
            vec![cat(1, 8, 16, 4), cat(48, 128, 64, 12)],
            ts(1997, 1),
            now,
            vec![21, 22, 23],
            vec![],
        );
        // System 21 was introduced two years after the other type-G systems.
        push(
            21,
            G,
            vec![cat(4, 128, 128, 4), cat(1, 32, 16, 4)],
            ts(1998, 10),
            ts(2004, 12),
            vec![],
            vec![],
        );
        // Single large NUMA node, type H.
        push(
            22,
            H,
            vec![cat(1, 256, 1024, 0)],
            ts(2004, 11),
            now,
            vec![],
            vec![],
        );

        Catalog { systems }
    }

    /// All systems in id order.
    pub fn systems(&self) -> &[SystemSpec] {
        &self.systems
    }

    /// Look up one system.
    ///
    /// # Errors
    ///
    /// [`RecordError::UnknownSystem`] for ids outside 1–22.
    pub fn system(&self, id: SystemId) -> Result<&SystemSpec, RecordError> {
        self.systems
            .iter()
            .find(|s| s.id() == id)
            .ok_or(RecordError::UnknownSystem { id: id.get() })
    }

    /// Total node count across all systems (4750 for the LANL catalog).
    pub fn total_nodes(&self) -> u32 {
        self.systems.iter().map(|s| s.nodes()).sum()
    }

    /// Total processor count across all systems.
    pub fn total_procs(&self) -> u32 {
        self.systems.iter().map(|s| s.procs()).sum()
    }
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::lanl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_match_paper() {
        let cat = Catalog::lanl();
        assert_eq!(cat.systems().len(), 22);
        assert_eq!(cat.total_nodes(), 4750, "paper: 4750 nodes");
        // Paper abstract says 24101; see module docs for the 9-proc gap.
        assert_eq!(cat.total_procs(), 24_092);
    }

    #[test]
    fn per_system_counts_match_table1() {
        let cat = Catalog::lanl();
        let expect: [(u32, u32, u32); 22] = [
            (1, 1, 8),
            (2, 1, 32),
            (3, 1, 4),
            (4, 164, 328),
            (5, 256, 1024),
            (6, 128, 512),
            (7, 1024, 4096),
            (8, 1024, 4096),
            (9, 128, 512),
            (10, 128, 512),
            (11, 128, 512),
            (12, 32, 128),
            (13, 128, 256),
            (14, 256, 512),
            (15, 256, 512),
            (16, 256, 512),
            (17, 256, 512),
            (18, 512, 1024),
            (19, 16, 2048),
            (20, 49, 6152),
            (21, 5, 544),
            (22, 1, 256),
        ];
        for (id, nodes, procs) in expect {
            let sys = cat.system(SystemId::new(id)).unwrap();
            assert_eq!(sys.nodes(), nodes, "system {id} nodes");
            assert_eq!(sys.procs(), procs, "system {id} procs");
        }
    }

    #[test]
    fn hardware_type_grouping() {
        let cat = Catalog::lanl();
        let of_type = |hw| cat.systems().iter().filter(|s| s.hardware() == hw).count();
        assert_eq!(of_type(HardwareType::E), 8); // 5–12
        assert_eq!(of_type(HardwareType::F), 6); // 13–18
        assert_eq!(of_type(HardwareType::G), 3); // 19–21
        assert_eq!(of_type(HardwareType::H), 1); // 22
        assert_eq!(of_type(HardwareType::D), 1); // 4
                                                 // Systems 1–18 are SMP, 19–22 NUMA (per Table 1 caption).
        for s in cat.systems() {
            if s.id().get() >= 19 {
                assert!(s.hardware().is_numa(), "system {}", s.id());
            } else {
                assert!(!s.hardware().is_numa(), "system {}", s.id());
            }
        }
    }

    #[test]
    fn unknown_system_rejected() {
        let cat = Catalog::lanl();
        assert!(matches!(
            cat.system(SystemId::new(23)),
            Err(RecordError::UnknownSystem { id: 23 })
        ));
        assert!(cat.system(SystemId::new(0)).is_err());
    }

    #[test]
    fn production_intervals_sane() {
        let cat = Catalog::lanl();
        for s in cat.systems() {
            assert!(
                s.production_start() < s.production_end(),
                "system {}",
                s.id()
            );
            assert!(s.production_years() > 0.2, "system {}", s.id());
            assert!(s.production_years() < 10.0, "system {}", s.id());
        }
        // System 19 decommissioned 09/2002 after ~5.75 years.
        let s19 = cat.system(SystemId::new(19)).unwrap();
        assert!((s19.production_years() - 5.75).abs() < 0.2);
    }

    #[test]
    fn workload_assignment_system20() {
        let cat = Catalog::lanl();
        let s20 = cat.system(SystemId::new(20)).unwrap();
        for n in [21u32, 22, 23] {
            assert_eq!(s20.workload_of(NodeId::new(n)), Workload::Graphics);
        }
        assert_eq!(s20.workload_of(NodeId::new(0)), Workload::Compute);
        assert_eq!(s20.workload_of(NodeId::new(48)), Workload::Compute);
        // Graphics nodes are 3/49 ≈ 6% of the system (paper: "6% of all
        // nodes account for 20% of all failures").
        assert_eq!(s20.nodes(), 49);
    }

    #[test]
    fn workload_assignment_frontends() {
        let cat = Catalog::lanl();
        let s7 = cat.system(SystemId::new(7)).unwrap();
        assert_eq!(s7.workload_of(NodeId::new(0)), Workload::FrontEnd);
        assert_eq!(s7.workload_of(NodeId::new(1)), Workload::Compute);
    }

    #[test]
    fn node_membership() {
        let cat = Catalog::lanl();
        let s20 = cat.system(SystemId::new(20)).unwrap();
        assert!(s20.contains_node(NodeId::new(0)));
        assert!(s20.contains_node(NodeId::new(48)));
        assert!(!s20.contains_node(NodeId::new(49)));
    }

    #[test]
    fn category_proc_math() {
        let c = NodeCategory {
            nodes: 48,
            procs_per_node: 128,
            memory_gb: 64,
            nics: 12,
        };
        assert_eq!(c.total_procs(), 6144);
    }

    #[test]
    fn default_is_lanl() {
        assert_eq!(Catalog::default(), Catalog::lanl());
    }
}
