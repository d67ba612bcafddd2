//! Voter-partition analysis: the quantitative version of the paper's argument.
//!
//! The paper argues (Section 2, Fig. 3) that the probability of a routing
//! upset defeating TMR depends on how much logic from *distinct* redundant
//! domains lives inside the same voter partition: a bridge between two
//! domains is only dangerous if both corrupted signals reach the *same*
//! voter. [`partition_report`] computes, for every voter of a TMR'd design,
//! the backward cone of logic it protects (stopping at other voters and at
//! the triplicated inputs) and a cross-domain exposure figure for that cone.

use std::collections::{HashMap, HashSet};
use tmr_synth::{Design, SignalId, WordNodeId, WordOp};

/// The cone of logic protected by one voter group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionInfo {
    /// Name of the word-level signal being voted (base name of the voter).
    pub voted_signal: String,
    /// Number of word-level nodes in the cone, per redundant domain.
    pub nodes_per_domain: [usize; 3],
    /// Total bus bits produced inside the cone (a proxy for the number of
    /// physical nets exposed).
    pub bits: usize,
}

impl PartitionInfo {
    /// Total nodes in the cone across the three domains.
    pub fn total_nodes(&self) -> usize {
        self.nodes_per_domain.iter().sum()
    }

    /// Cross-domain exposure: the number of node pairs drawn from two
    /// *different* redundant domains inside this partition. A routing upset
    /// that bridges two such nodes' signals can defeat the voter.
    pub fn cross_domain_pairs(&self) -> usize {
        let [a, b, c] = self.nodes_per_domain;
        a * b + a * c + b * c
    }
}

/// Voter-partition report for a TMR'd design.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionReport {
    /// One entry per voter group (triplicated voters on the same signal are a
    /// single group), including the final output voters.
    pub partitions: Vec<PartitionInfo>,
    /// Number of word-level voter nodes (counting triplication).
    pub voter_nodes: usize,
}

impl PartitionReport {
    /// Number of voter groups (partitions).
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// The largest partition size in nodes.
    pub fn max_partition_nodes(&self) -> usize {
        self.partitions
            .iter()
            .map(PartitionInfo::total_nodes)
            .max()
            .unwrap_or(0)
    }

    /// Mean partition size in nodes.
    pub fn mean_partition_nodes(&self) -> f64 {
        if self.partitions.is_empty() {
            return 0.0;
        }
        self.partitions
            .iter()
            .map(PartitionInfo::total_nodes)
            .sum::<usize>() as f64
            / self.partitions.len() as f64
    }

    /// Total cross-domain exposure, summed over partitions. The paper's
    /// qualitative claim is that this figure is what a good voter placement
    /// minimises *per voter*: too few voters concentrate exposure in huge
    /// partitions, too many voters add cross-domain wiring of their own.
    pub fn total_cross_domain_pairs(&self) -> usize {
        self.partitions
            .iter()
            .map(PartitionInfo::cross_domain_pairs)
            .sum()
    }
}

/// Computes the voter-partition report of a (TMR-transformed) design.
///
/// Designs without voters produce an empty report.
pub fn partition_report(design: &Design) -> PartitionReport {
    // Group triplicated voters by the base signal they vote (identical input
    // sets), so each voter group is reported once.
    let mut groups: HashMap<Vec<SignalId>, Vec<WordNodeId>> = HashMap::new();
    for (id, node) in design.nodes() {
        if matches!(node.op, WordOp::Voter) {
            let mut key = node.inputs.clone();
            key.sort_unstable();
            groups.entry(key).or_default().push(id);
        }
    }
    // Triplicated output pins (`y_tr0/1/2`) are voted in the output logic
    // block, so they form a voter barrier too: group them by base port name.
    let mut output_groups: HashMap<String, (Vec<SignalId>, Vec<WordNodeId>)> = HashMap::new();
    for (id, node) in design.nodes() {
        if let WordOp::Output { port } = &node.op {
            if let Some((base, domain)) = port.rsplit_once("_tr") {
                if domain.len() == 1 && domain.chars().all(|c| c.is_ascii_digit()) {
                    let entry = output_groups.entry(base.to_string()).or_default();
                    entry.0.push(node.inputs[0]);
                    entry.1.push(id);
                }
            }
        }
    }
    for (_, (inputs, nodes)) in output_groups {
        if inputs.len() == 3 {
            let mut key = inputs;
            key.sort_unstable();
            groups.entry(key).or_default().extend(nodes);
        }
    }

    // Signals that terminate a backward cone: voter outputs and input ports.
    let mut barrier_signals: HashSet<SignalId> = HashSet::new();
    for (_, node) in design.nodes() {
        if matches!(node.op, WordOp::Voter | WordOp::Input) {
            if let Some(sig) = node.output {
                barrier_signals.insert(sig);
            }
        }
    }

    let mut partitions = Vec::new();
    let mut voter_nodes = 0;
    let mut group_list: Vec<(&Vec<SignalId>, &Vec<WordNodeId>)> = groups.iter().collect();
    group_list.sort_by_key(|(_, nodes)| nodes[0]);

    for (inputs, voters) in group_list {
        voter_nodes += voters.len();
        // Backward cone from the voter inputs, stopping at barriers.
        let mut cone_nodes: HashSet<WordNodeId> = HashSet::new();
        let mut stack: Vec<SignalId> = inputs.clone();
        let mut visited: HashSet<SignalId> = HashSet::new();
        while let Some(sig) = stack.pop() {
            if !visited.insert(sig) {
                continue;
            }
            let Some(driver) = design.signal(sig).driver else {
                continue;
            };
            let driver_node = design.node(driver);
            if matches!(driver_node.op, WordOp::Input | WordOp::Voter) {
                continue;
            }
            if cone_nodes.insert(driver) {
                for &input in &driver_node.inputs {
                    if !barrier_signals.contains(&input) {
                        stack.push(input);
                    } else {
                        // The barrier signal itself is not expanded further.
                    }
                }
            }
        }

        let mut nodes_per_domain = [0usize; 3];
        let mut bits = 0usize;
        for &node_id in &cone_nodes {
            let node = design.node(node_id);
            if let Some(d) = node.domain.redundant_index() {
                nodes_per_domain[d] += 1;
            }
            if let Some(sig) = node.output {
                bits += usize::from(design.signal(sig).width);
            }
        }

        let voted_signal = design
            .node(voters[0])
            .name
            .trim_end_matches(|c: char| c.is_ascii_digit())
            .trim_end_matches("_v")
            .to_string();
        partitions.push(PartitionInfo {
            voted_signal,
            nodes_per_domain,
            bits,
        });
    }

    PartitionReport {
        partitions,
        voter_nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{apply_tmr, TmrConfig};
    use tmr_designs_like::small_fir;

    /// A tiny FIR-like design local to the tests (this crate cannot depend on
    /// `tmr-designs`, which would create a dependency cycle in dev mode).
    mod tmr_designs_like {
        use tmr_synth::Design;

        pub fn small_fir() -> Design {
            let mut d = Design::new("fir3");
            let x = d.add_input("x", 6);
            let d1 = d.add_register("d1", x);
            let d2 = d.add_register("d2", d1);
            let p0 = d.add_mul_const("p0", x, 3, 12);
            let p1 = d.add_mul_const("p1", d1, -5, 12);
            let p2 = d.add_mul_const("p2", d2, 3, 12);
            let s1 = d.add_add("s1", p0, p1, 12);
            let s2 = d.add_add("s2", s1, p2, 12);
            d.add_output("y", s2);
            d
        }
    }

    #[test]
    fn unprotected_design_has_no_partitions() {
        let report = partition_report(&small_fir());
        assert_eq!(report.partition_count(), 0);
        assert_eq!(report.voter_nodes, 0);
        assert_eq!(report.total_cross_domain_pairs(), 0);
    }

    #[test]
    fn more_voters_means_more_smaller_partitions() {
        let base = small_fir();
        let p1 = partition_report(&apply_tmr(&base, &TmrConfig::paper_p1()).unwrap());
        let p3 = partition_report(&apply_tmr(&base, &TmrConfig::paper_p3()).unwrap());
        assert!(p1.partition_count() > p3.partition_count());
        assert!(p1.max_partition_nodes() <= p3.max_partition_nodes());
        assert!(p1.voter_nodes > p3.voter_nodes);
    }

    #[test]
    fn unvoted_registers_enlarge_partitions() {
        let base = small_fir();
        let p3 = partition_report(&apply_tmr(&base, &TmrConfig::paper_p3()).unwrap());
        let p3_nv = partition_report(&apply_tmr(&base, &TmrConfig::paper_p3_nv()).unwrap());
        // Without register voters the whole design is one partition behind the
        // output voter, so its maximum partition is at least as large.
        assert!(p3_nv.max_partition_nodes() >= p3.max_partition_nodes());
        assert!(p3_nv.partition_count() < p3.partition_count());
    }

    #[test]
    fn cross_domain_pairs_formula() {
        let info = PartitionInfo {
            voted_signal: "s".into(),
            nodes_per_domain: [2, 3, 4],
            bits: 36,
        };
        assert_eq!(info.total_nodes(), 9);
        assert_eq!(info.cross_domain_pairs(), 2 * 3 + 2 * 4 + 3 * 4);
    }
}
