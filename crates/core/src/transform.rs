//! The TMR transformation with configurable voter placement.

use crate::TmrError;
use std::collections::HashMap;
use tmr_netlist::Domain;
use tmr_synth::{Design, SignalId, WordNode, WordNodeId, WordOp};

/// Where majority voters are inserted in the triplicated combinational logic.
///
/// This is the design variable the paper sweeps: the three FIR variants of
/// Fig. 4 correspond to the three placements below (registers are voted in
/// all of them except `tmr_p3_nv`, which is controlled separately by
/// [`TmrConfig::vote_registers`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VoterPlacement {
    /// Maximum logic partition: a voter after **every** combinational
    /// component (every adder, subtractor and multiplier) — `TMR_p1`.
    EveryComponent,
    /// Medium logic partition: a voter after every adder/subtractor, so each
    /// partition groups one multiplier and one adder — `TMR_p2`.
    AfterAdders,
    /// Minimum logic partition: no voters inside the combinational logic;
    /// only register voters (if enabled) and the final output voter —
    /// `TMR_p3` / `TMR_p3_nv`.
    OutputsOnly,
}

impl VoterPlacement {
    /// Returns `true` if the output of `node` must be voted under this
    /// placement.
    pub fn votes_node(self, node: &WordNode) -> bool {
        match self {
            VoterPlacement::EveryComponent => {
                matches!(node.op, WordOp::Add | WordOp::Sub | WordOp::MulConst { .. })
            }
            VoterPlacement::AfterAdders => matches!(node.op, WordOp::Add | WordOp::Sub),
            VoterPlacement::OutputsOnly => false,
        }
    }
}

/// Configuration of the TMR transformation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TmrConfig {
    /// Voter placement inside the combinational logic.
    pub placement: VoterPlacement,
    /// Whether registers become "TMR registers with voters and refresh"
    /// (Fig. 2 of the paper): a voter per domain on the register outputs, so
    /// an upset captured by one register copy is corrected on the next cycle.
    pub vote_registers: bool,
    /// Short label used to derive the transformed design's name
    /// (e.g. `"p2"` produces `fir11_tmr_p2`).
    pub label: String,
}

impl TmrConfig {
    /// `TMR_p1`: maximum logic partition — a voter after every combinational
    /// component, plus voted registers.
    pub fn paper_p1() -> Self {
        Self {
            placement: VoterPlacement::EveryComponent,
            vote_registers: true,
            label: "p1".to_string(),
        }
    }

    /// `TMR_p2`: medium logic partition — a voter after every adder (each
    /// partition contains one multiplier and one adder), plus voted registers.
    pub fn paper_p2() -> Self {
        Self {
            placement: VoterPlacement::AfterAdders,
            vote_registers: true,
            label: "p2".to_string(),
        }
    }

    /// `TMR_p3`: minimum logic partition — voters only at the outermost
    /// outputs, plus voted registers.
    pub fn paper_p3() -> Self {
        Self {
            placement: VoterPlacement::OutputsOnly,
            vote_registers: true,
            label: "p3".to_string(),
        }
    }

    /// `TMR_p3_nv`: minimum logic partition with *unvoted* (merely
    /// triplicated) registers; the final output voters are the only barrier.
    pub fn paper_p3_nv() -> Self {
        Self {
            placement: VoterPlacement::OutputsOnly,
            vote_registers: false,
            label: "p3_nv".to_string(),
        }
    }

    /// The four paper presets in evaluation order.
    pub fn paper_presets() -> Vec<TmrConfig> {
        vec![
            Self::paper_p1(),
            Self::paper_p2(),
            Self::paper_p3(),
            Self::paper_p3_nv(),
        ]
    }
}

/// Applies the TMR transformation to `design` according to `config`.
///
/// See the crate-level documentation for the full description of the produced
/// structure. The transformation is purely structural: the transformed design
/// computes exactly the same function as the original when all three input
/// copies receive the same values (checked by the crate's tests and by the
/// property tests in `tests/`).
///
/// # Errors
///
/// Returns [`TmrError::AlreadyProtected`] if the design already contains
/// voters, or [`TmrError::Design`] if reconstruction fails (inconsistent
/// widths in the input design).
pub fn apply_tmr(design: &Design, config: &TmrConfig) -> Result<Design, TmrError> {
    for (_, node) in design.nodes() {
        if matches!(node.op, WordOp::Voter) {
            return Err(TmrError::AlreadyProtected {
                node: node.name.clone(),
            });
        }
    }

    let mut out = Design::new(format!("{}_tmr_{}", design.name(), config.label));
    // Current signal to use, per original signal and per domain (index 0..3).
    let mut map: HashMap<SignalId, [SignalId; 3]> = HashMap::new();
    // Register copies to patch after everything else is built:
    // (original input signal, [copy node ids; 3]).
    let mut register_patches: Vec<(SignalId, [WordNodeId; 3])> = Vec::new();
    // Per-width placeholder signal used as the temporary register input.
    let mut placeholders: HashMap<u8, SignalId> = HashMap::new();

    // ------------------------------------------------------------------
    // Phase 1: registers (their outputs are sources for the combinational
    // logic, and their inputs may be forward references — feedback loops).
    // ------------------------------------------------------------------
    for (_, node) in design.nodes() {
        let init = match node.op {
            WordOp::Register { init } => init,
            _ => continue,
        };
        let out_sig = node.output.expect("registers produce a signal");
        let width = design.signal(out_sig).width;
        let placeholder = *placeholders
            .entry(width)
            .or_insert_with(|| out.add_const(format!("tmr_placeholder_w{width}"), 0, width));

        let mut copies = [WordNodeId::from_index(0); 3];
        let mut raw = [SignalId::from_index(0); 3];
        for (d, domain) in Domain::REDUNDANT.iter().enumerate() {
            let (node_id, sig) = out.add_node_in_domain(
                format!("{}_tr{d}", node.name),
                WordOp::Register { init },
                vec![placeholder],
                None,
                *domain,
            )?;
            copies[d] = node_id;
            raw[d] = sig.expect("registers produce a signal");
        }
        register_patches.push((node.inputs[0], copies));

        let mapped = if config.vote_registers {
            insert_voters(&mut out, &node.name, raw)?
        } else {
            raw
        };
        map.insert(out_sig, mapped);
    }

    // ------------------------------------------------------------------
    // Phase 2: everything else, in topological order.
    // ------------------------------------------------------------------
    for node_id in design.topological_order() {
        let node = design.node(node_id);
        match &node.op {
            WordOp::Register { .. } => {
                unreachable!("registers are excluded from the topological order")
            }
            WordOp::Input => {
                let out_sig = node.output.expect("inputs produce a signal");
                let width = design.signal(out_sig).width;
                let mut copies = [SignalId::from_index(0); 3];
                for (d, domain) in Domain::REDUNDANT.iter().enumerate() {
                    copies[d] = out.add_input_in_domain(
                        format!("{}_tr{d}", design.signal(out_sig).name),
                        width,
                        *domain,
                    );
                }
                map.insert(out_sig, copies);
            }
            WordOp::Const { value } => {
                let out_sig = node.output.expect("constants produce a signal");
                let width = design.signal(out_sig).width;
                let mut copies = [SignalId::from_index(0); 3];
                for (d, domain) in Domain::REDUNDANT.iter().enumerate() {
                    let (_, sig) = out.add_node_in_domain(
                        format!("{}_tr{d}", node.name),
                        WordOp::Const { value: *value },
                        vec![],
                        Some(width),
                        *domain,
                    )?;
                    copies[d] = sig.expect("constants produce a signal");
                }
                map.insert(out_sig, copies);
            }
            WordOp::Output { port } => {
                let sources = mapped_inputs(&map, node)?;
                // The paper's scheme: the three domain copies leave the
                // fabric on triplicated pins and are voted in the output
                // logic block (modelled as pad-level voting, immune to
                // configuration upsets).
                for (d, domain) in Domain::REDUNDANT.iter().enumerate() {
                    out.add_output_in_domain(format!("{port}_tr{d}"), sources[0][d], *domain);
                }
            }
            WordOp::Add | WordOp::Sub | WordOp::MulConst { .. } => {
                let out_sig = node.output.expect("arithmetic nodes produce a signal");
                let width = design.signal(out_sig).width;
                let sources = mapped_inputs(&map, node)?;
                let mut raw = [SignalId::from_index(0); 3];
                for (d, domain) in Domain::REDUNDANT.iter().enumerate() {
                    let inputs: Vec<SignalId> =
                        sources.iter().map(|per_domain| per_domain[d]).collect();
                    let (_, sig) = out.add_node_in_domain(
                        format!("{}_tr{d}", node.name),
                        node.op.clone(),
                        inputs,
                        Some(width),
                        *domain,
                    )?;
                    raw[d] = sig.expect("arithmetic nodes produce a signal");
                }
                let mapped = if config.placement.votes_node(node) {
                    insert_voters(&mut out, &node.name, raw)?
                } else {
                    raw
                };
                map.insert(out_sig, mapped);
            }
            WordOp::Voter => unreachable!("checked at entry"),
        }
    }

    // ------------------------------------------------------------------
    // Phase 3: close register feedback.
    // ------------------------------------------------------------------
    for (orig_input, copies) in register_patches {
        let sources =
            map.get(&orig_input)
                .ok_or(TmrError::Design(tmr_synth::DesignError::UnknownSignal(
                    orig_input,
                )))?;
        for (d, &copy) in copies.iter().enumerate() {
            out.replace_input(copy, 0, sources[d])?;
        }
    }

    Ok(out)
}

/// Inserts one voter per redundant domain on the three raw copies of a signal
/// and returns the voted signals (the paper triplicates voters so that an
/// upset in a voter LUT is itself masked).
fn insert_voters(
    out: &mut Design,
    base_name: &str,
    raw: [SignalId; 3],
) -> Result<[SignalId; 3], TmrError> {
    let mut voted = [SignalId::from_index(0); 3];
    for (d, domain) in Domain::REDUNDANT.iter().enumerate() {
        let (_, sig) = out.add_node_in_domain(
            format!("{base_name}_v{d}"),
            WordOp::Voter,
            vec![raw[0], raw[1], raw[2]],
            None,
            Domain::Voter,
        )?;
        let sig = sig.expect("voters produce a signal");
        // The voted signal feeds domain-`d` logic, so it carries that domain
        // tag for the cross-domain exposure analysis.
        out.set_signal_domain(sig, *domain);
        voted[d] = sig;
    }
    Ok(voted)
}

/// Looks up the triplicated copies of every input of `node`.
fn mapped_inputs(
    map: &HashMap<SignalId, [SignalId; 3]>,
    node: &WordNode,
) -> Result<Vec<[SignalId; 3]>, TmrError> {
    node.inputs
        .iter()
        .map(|sig| {
            map.get(sig)
                .copied()
                .ok_or(TmrError::Design(tmr_synth::DesignError::UnknownSignal(
                    *sig,
                )))
        })
        .collect()
}

/// Builds the five designs evaluated in the paper from an unprotected design:
/// the standard (unprotected) version plus the four TMR variants.
///
/// # Errors
///
/// Propagates any [`TmrError`] from the individual transformations.
pub fn paper_variants(design: &Design) -> Result<Vec<(String, Design)>, TmrError> {
    let mut variants = vec![("standard".to_string(), design.clone())];
    for config in TmrConfig::paper_presets() {
        let name = format!("tmr_{}", config.label);
        variants.push((name, apply_tmr(design, &config)?));
    }
    Ok(variants)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap as Map;

    /// y = reg(a*3 + b) — one multiplier, one adder, one register.
    fn small_design() -> Design {
        let mut d = Design::new("small");
        let a = d.add_input("a", 6);
        let b = d.add_input("b", 6);
        let m = d.add_mul_const("m", a, 3, 9);
        let s = d.add_add("s", m, b, 9);
        let q = d.add_register("q", s);
        d.add_output("y", q);
        d
    }

    fn tmr_stimuli(values: &[(i64, i64)]) -> Vec<Map<String, i64>> {
        values
            .iter()
            .map(|&(a, b)| {
                let mut m = Map::new();
                for d in 0..3 {
                    m.insert(format!("a_tr{d}"), a);
                    m.insert(format!("b_tr{d}"), b);
                }
                m
            })
            .collect()
    }

    fn plain_stimuli(values: &[(i64, i64)]) -> Vec<Map<String, i64>> {
        values
            .iter()
            .map(|&(a, b)| {
                let mut m = Map::new();
                m.insert("a".to_string(), a);
                m.insert("b".to_string(), b);
                m
            })
            .collect()
    }

    /// Builds one design containing every votable node kind and returns the
    /// node matching `name`.
    fn node_by_name(design: &Design, name: &str) -> WordNode {
        design
            .nodes()
            .find(|(_, node)| node.name == name)
            .map(|(_, node)| node.clone())
            .unwrap_or_else(|| panic!("node `{name}` not found"))
    }

    #[test]
    fn votes_node_follows_the_partition_definitions() {
        let mut d = Design::new("ops");
        let a = d.add_input("a", 6);
        let b = d.add_input("b", 6);
        let m = d.add_mul_const("m", a, 3, 9);
        let s = d.add_add("s", m, b, 9);
        let t = d.add_sub("t", s, b, 9);
        let q = d.add_register("q", t);
        d.add_output("y", q);

        let mul = node_by_name(&d, "m");
        let add = node_by_name(&d, "s");
        let sub = node_by_name(&d, "t");
        let reg = node_by_name(&d, "q");
        let input = node_by_name(&d, "a");
        let output = node_by_name(&d, "out_y");

        // Maximum partition: every combinational component is voted.
        for node in [&mul, &add, &sub] {
            assert!(
                VoterPlacement::EveryComponent.votes_node(node),
                "{}",
                node.name
            );
        }
        // Medium partition: adders and subtractors only, not multipliers.
        assert!(VoterPlacement::AfterAdders.votes_node(&add));
        assert!(VoterPlacement::AfterAdders.votes_node(&sub));
        assert!(!VoterPlacement::AfterAdders.votes_node(&mul));
        // Minimum partition: no combinational voters at all.
        for node in [&mul, &add, &sub] {
            assert!(
                !VoterPlacement::OutputsOnly.votes_node(node),
                "{}",
                node.name
            );
        }
        // Registers, inputs and outputs are never combinational vote points
        // (registers are controlled by `vote_registers` instead).
        for placement in [
            VoterPlacement::EveryComponent,
            VoterPlacement::AfterAdders,
            VoterPlacement::OutputsOnly,
        ] {
            for node in [&reg, &input, &output] {
                assert!(
                    !placement.votes_node(node),
                    "{placement:?} voting {}",
                    node.name
                );
            }
        }
    }

    #[test]
    fn paper_preset_constructors_match_the_figure4_variants() {
        let p1 = TmrConfig::paper_p1();
        assert_eq!(p1.placement, VoterPlacement::EveryComponent);
        assert!(p1.vote_registers);
        assert_eq!(p1.label, "p1");

        let p2 = TmrConfig::paper_p2();
        assert_eq!(p2.placement, VoterPlacement::AfterAdders);
        assert!(p2.vote_registers);
        assert_eq!(p2.label, "p2");

        let p3 = TmrConfig::paper_p3();
        assert_eq!(p3.placement, VoterPlacement::OutputsOnly);
        assert!(p3.vote_registers);
        assert_eq!(p3.label, "p3");

        // p3_nv is p3 with unvoted (merely triplicated) registers.
        let p3_nv = TmrConfig::paper_p3_nv();
        assert_eq!(p3_nv.placement, VoterPlacement::OutputsOnly);
        assert!(!p3_nv.vote_registers);
        assert_eq!(p3_nv.label, "p3_nv");

        // The preset list is the paper's evaluation order.
        let labels: Vec<String> = TmrConfig::paper_presets()
            .into_iter()
            .map(|c| c.label)
            .collect();
        assert_eq!(labels, ["p1", "p2", "p3", "p3_nv"]);
    }

    #[test]
    fn triplicates_logic_and_inputs() {
        let original = small_design();
        let tmr = apply_tmr(&original, &TmrConfig::paper_p2()).unwrap();
        let stats = tmr.stats();
        assert_eq!(stats.adders, 3);
        assert_eq!(stats.multipliers, 3);
        assert_eq!(stats.registers, 3);
        assert_eq!(stats.inputs, 6);
        assert_eq!(
            stats.outputs, 3,
            "outputs are triplicated and voted at the pads"
        );
    }

    #[test]
    fn voter_counts_follow_the_partition_ordering() {
        let original = small_design();
        let count = |config: &TmrConfig| apply_tmr(&original, config).unwrap().stats().voters;
        let p1 = count(&TmrConfig::paper_p1());
        let p2 = count(&TmrConfig::paper_p2());
        let p3 = count(&TmrConfig::paper_p3());
        let p3_nv = count(&TmrConfig::paper_p3_nv());
        assert!(
            p1 > p2,
            "max partition has more voters than medium ({p1} vs {p2})"
        );
        assert!(
            p2 > p3,
            "medium partition has more voters than minimum ({p2} vs {p3})"
        );
        assert!(p3 > p3_nv, "voted registers add voters ({p3} vs {p3_nv})");
        // Exact counts for this design: 1 mul + 1 add voted in p1 (2*3), only
        // the adder in p2 (1*3), none in p3; registers add 3 except in p3_nv.
        // Output voting happens at the pads, so it adds no fabric voters.
        assert_eq!(p1, 2 * 3 + 3);
        assert_eq!(p2, 3 + 3);
        assert_eq!(p3, 3);
        assert_eq!(p3_nv, 0);
    }

    /// Checks that every triplicated output copy of `actual` matches the
    /// single output of `expected`, cycle by cycle.
    fn assert_tmr_equivalent(
        expected: &[Map<String, i64>],
        actual: &[Map<String, i64>],
        label: &str,
    ) {
        assert_eq!(expected.len(), actual.len());
        for (cycle, (exp, act)) in expected.iter().zip(actual.iter()).enumerate() {
            for (port, value) in exp {
                for d in 0..3 {
                    assert_eq!(
                        act[&format!("{port}_tr{d}")],
                        *value,
                        "variant {label}, cycle {cycle}, output {port}_tr{d}"
                    );
                }
            }
        }
    }

    #[test]
    fn tmr_design_is_functionally_equivalent() {
        let original = small_design();
        let values = [
            (0i64, 0i64),
            (5, 7),
            (-20, 3),
            (31, -32),
            (-1, -1),
            (12, 13),
        ];
        let expected = original.evaluate(&plain_stimuli(&values));
        for config in TmrConfig::paper_presets() {
            let tmr = apply_tmr(&original, &config).unwrap();
            let actual = tmr.evaluate(&tmr_stimuli(&values));
            assert_tmr_equivalent(&expected, &actual, &config.label);
        }
    }

    #[test]
    fn single_corrupted_domain_is_masked() {
        let original = small_design();
        let tmr = apply_tmr(&original, &TmrConfig::paper_p2()).unwrap();
        let values = [(5i64, 7i64), (9, -2), (0, 0), (-8, 11)];
        let expected = original.evaluate(&plain_stimuli(&values));
        // Corrupt domain tr1's inputs on every cycle.
        let corrupted: Vec<Map<String, i64>> = values
            .iter()
            .map(|&(a, b)| {
                let mut m = Map::new();
                for d in 0..3 {
                    let (av, bv) = if d == 1 { (a ^ 0x15, b ^ 0x2a) } else { (a, b) };
                    m.insert(format!("a_tr{d}"), av);
                    m.insert(format!("b_tr{d}"), bv);
                }
                m
            })
            .collect();
        let actual = tmr.evaluate(&corrupted);
        assert_tmr_equivalent(&expected, &actual, "p2-masking");
    }

    #[test]
    fn two_corrupted_domains_defeat_tmr() {
        let original = small_design();
        let tmr = apply_tmr(&original, &TmrConfig::paper_p2()).unwrap();
        let values = [(5i64, 7i64), (9, -2)];
        let expected = original.evaluate(&plain_stimuli(&values));
        let corrupted: Vec<Map<String, i64>> = values
            .iter()
            .map(|&(a, b)| {
                let mut m = Map::new();
                for d in 0..3 {
                    let av = if d <= 1 { a ^ 0x1f } else { a };
                    m.insert(format!("a_tr{d}"), av);
                    m.insert(format!("b_tr{d}"), b);
                }
                m
            })
            .collect();
        let actual = tmr.evaluate(&corrupted);
        // At least one output copy (in fact all of them, because the corrupted
        // value wins the internal votes) differs from the reference.
        let diverged = expected.iter().zip(actual.iter()).any(|(exp, act)| {
            exp.iter()
                .any(|(port, value)| act[&format!("{port}_tr0")] != *value)
        });
        assert!(diverged, "two faulty domains cannot be voted out");
    }

    #[test]
    fn feedback_registers_are_preserved() {
        // acc <= acc + x
        let mut d = Design::new("acc");
        let x = d.add_input("x", 8);
        let (reg, acc) = d
            .add_node_in_domain(
                "acc",
                WordOp::Register { init: 0 },
                vec![x],
                None,
                Domain::None,
            )
            .unwrap();
        let acc = acc.unwrap();
        let sum = d.add_add("sum", acc, x, 8);
        d.replace_input(reg, 0, sum).unwrap();
        d.add_output("y", acc);

        let tmr = apply_tmr(&d, &TmrConfig::paper_p2()).unwrap();
        // Equivalence over a few cycles.
        let plain: Vec<Map<String, i64>> = [1i64, 2, 3, 4]
            .iter()
            .map(|&v| {
                let mut m = Map::new();
                m.insert("x".to_string(), v);
                m
            })
            .collect();
        let trip: Vec<Map<String, i64>> = [1i64, 2, 3, 4]
            .iter()
            .map(|&v| {
                let mut m = Map::new();
                for dom in 0..3 {
                    m.insert(format!("x_tr{dom}"), v);
                }
                m
            })
            .collect();
        assert_tmr_equivalent(&d.evaluate(&plain), &tmr.evaluate(&trip), "feedback");
    }

    #[test]
    fn double_protection_is_rejected() {
        let original = small_design();
        let tmr = apply_tmr(&original, &TmrConfig::paper_p3()).unwrap();
        let err = apply_tmr(&tmr, &TmrConfig::paper_p3()).unwrap_err();
        assert!(matches!(err, TmrError::AlreadyProtected { .. }));
    }

    #[test]
    fn paper_variants_produces_all_five() {
        let original = small_design();
        let variants = paper_variants(&original).unwrap();
        let names: Vec<&str> = variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec!["standard", "tmr_p1", "tmr_p2", "tmr_p3", "tmr_p3_nv"]
        );
        assert_eq!(variants[0].1.stats().voters, 0);
    }

    #[test]
    fn voted_signals_carry_consumer_domains() {
        let original = small_design();
        let tmr = apply_tmr(&original, &TmrConfig::paper_p2()).unwrap();
        // Every voter node's output signal is tagged with a redundant domain.
        let mut voters = 0;
        for (_, node) in tmr.nodes() {
            if matches!(node.op, WordOp::Voter) {
                let sig = node.output.expect("voters produce a signal");
                assert!(tmr.signal(sig).domain.is_redundant(), "{sig:?}");
                voters += 1;
            }
        }
        assert!(voters > 0);
    }
}
