//! Seeded random synthesizable-design generator — the design corpus behind
//! the differential fuzzing of the whole flow.
//!
//! [`generate`] produces word-level [`Design`] graphs from a seed and a
//! [`GeneratorConfig`]. The generator is built for fuzzing, so its contract
//! is stronger than "some random circuit":
//!
//! * **Deterministic** — the output is a pure function of `(seed, config)`,
//!   identical across platforms and runs (the vendored [`rand`] stream is
//!   seed-stable by construction).
//! * **Synthesizable** — every output survives the full
//!   `lower → optimize → techmap` pipeline and the mapped netlist passes
//!   [`Netlist::validate`](tmr_netlist::Netlist::validate); the construction
//!   only uses the checked [`Design`] API, so no invalid graph can be
//!   expressed.
//! * **Monotone in its size knobs** — growing [`GeneratorConfig::nodes`],
//!   [`GeneratorConfig::inputs`] or [`GeneratorConfig::outputs`] (with the
//!   seed and every other knob fixed) never shrinks the generated design:
//!   the construction consumes the random stream in a strict per-step
//!   sequence, so a larger budget extends the smaller design's prefix.
//!
//! The knobs deliberately cover the design shapes the paper's FIR filter
//! never exercises: deep unregistered ripple/CSD cones (`comb_depth`,
//! `lut_mix`), register-dense state machines (`ff_density`), hub nets whose
//! fan-out dwarfs anything in the FIR (`fanout_skew`), and registered
//! feedback loops with reconvergent paths (`feedback`) — the topology class
//! where bridging faults and incremental settling are hardest.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tmr_netlist::Domain;
use tmr_synth::{Design, SignalId, WordOp};

/// The knobs of the random design generator.
///
/// All probabilities are clamped to `0.0..=1.0` and all size knobs to sane
/// floors at generation time, so any configuration (for example one drawn
/// from a fuzzer seed) is usable as-is.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Number of operation steps (size knob). Each step adds at least one
    /// node (an adder, subtractor, constant multiplier, constant, or
    /// register), so the generated node count grows monotonically with this.
    pub nodes: usize,
    /// Number of top-level input buses (size knob).
    pub inputs: usize,
    /// Number of top-level output ports (size knob).
    pub outputs: usize,
    /// Maximum bus width in bits; widths are sampled from `1..=bus_width`
    /// (clamped to `1..=32`). Wider buses mean longer ripple-carry chains
    /// and more I/O pads per port.
    pub bus_width: u8,
    /// Maximum number of combinational operations along any input-to-register
    /// path: a result whose combinational depth reaches this bound is
    /// registered immediately, so the knob bounds the logic depth between
    /// flip-flop stages.
    pub comb_depth: usize,
    /// Probability that a step produces a register (flip-flop density). The
    /// effective density is higher when `comb_depth` is small, because deep
    /// results force extra pipeline registers.
    pub ff_density: f64,
    /// Fan-out skew: probability that an operand is drawn from the small
    /// "hub" subset of signals instead of uniformly. At `0.0` fan-out is
    /// near-uniform; towards `1.0` a few hub nets accumulate most of the
    /// fan-out (the high-fanout cones the FIR lacks).
    pub fanout_skew: f64,
    /// LUT-size mix: probability that a combinational step is a CSD
    /// constant multiplier (deep cones of 3-input sum/carry LUTs) rather
    /// than a plain adder/subtractor (whose low bits map to 1- and 2-input
    /// LUTs). Together with `bus_width` this shapes the LUT1/LUT2/LUT3
    /// histogram of the mapped netlist.
    pub lut_mix: f64,
    /// Feedback / bridged-topology probability: the chance that a register
    /// closes a feedback loop through later combinational logic (accumulator
    /// style), and that an operation draws both operands from the hub subset
    /// (reconvergent fan-in). Both create the cyclic, heavily shared cones
    /// that stress bridged-fault settling and divergence skipping.
    pub feedback: f64,
}

impl Default for GeneratorConfig {
    /// A mid-sized profile: a few dozen cells to a few hundred LUTs after
    /// mapping, with every structural feature enabled at moderate rates.
    fn default() -> Self {
        Self {
            nodes: 12,
            inputs: 2,
            outputs: 2,
            bus_width: 6,
            comb_depth: 4,
            ff_density: 0.3,
            fanout_skew: 0.3,
            lut_mix: 0.3,
            feedback: 0.3,
        }
    }
}

impl GeneratorConfig {
    /// The configuration with every knob forced into its valid range.
    fn clamped(&self) -> Self {
        Self {
            nodes: self.nodes.max(1),
            inputs: self.inputs.max(1),
            outputs: self.outputs.max(1),
            bus_width: self.bus_width.clamp(1, tmr_synth::MAX_WIDTH),
            comb_depth: self.comb_depth.max(1),
            ff_density: self.ff_density.clamp(0.0, 1.0),
            fanout_skew: self.fanout_skew.clamp(0.0, 1.0),
            lut_mix: self.lut_mix.clamp(0.0, 1.0),
            feedback: self.feedback.clamp(0.0, 1.0),
        }
    }

    /// Derives a full configuration from a fuzzer seed: every knob is
    /// sampled across its useful range, deterministically per seed, so a
    /// seed sweep covers the corner profiles (narrow/wide, shallow/deep,
    /// combinational/register-dense, uniform/hub-dominated) without a
    /// hand-written configuration matrix.
    pub fn sampled(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6765_6e63_6667_5f31);
        Self {
            nodes: rng.gen_range(4usize..=24),
            inputs: rng.gen_range(1usize..=3),
            outputs: rng.gen_range(1usize..=3),
            bus_width: rng.gen_range(1u8..=10),
            comb_depth: rng.gen_range(1usize..=8),
            ff_density: rng.gen_range(0u32..=10) as f64 / 10.0,
            fanout_skew: rng.gen_range(0u32..=10) as f64 / 10.0,
            lut_mix: rng.gen_range(0u32..=10) as f64 / 10.0,
            feedback: rng.gen_range(0u32..=10) as f64 / 10.0,
        }
    }
}

/// One available signal during generation.
struct Produced {
    id: SignalId,
    width: u8,
    /// Combinational operations since the last register (or input) on the
    /// deepest path into this signal.
    depth: usize,
}

/// A feedback register whose input still points at its placeholder.
struct OpenLoop {
    node: tmr_synth::WordNodeId,
    width: u8,
    /// Index into the produced-signal pool of the placeholder, so loop
    /// closing can prefer a different, later signal.
    placeholder: usize,
}

/// Generates one random synthesizable design from a seed and a
/// configuration. See the module documentation for the guarantees.
pub fn generate(seed: u64, config: &GeneratorConfig) -> Design {
    let cfg = config.clamped();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut design = Design::new(format!("gen{seed}"));
    let mut pool: Vec<Produced> = Vec::new();

    for i in 0..cfg.inputs {
        let width = rng.gen_range(1u8..=cfg.bus_width);
        let id = design.add_input(format!("x{i}"), width);
        pool.push(Produced {
            id,
            width,
            depth: 0,
        });
    }

    let mut open_loops: Vec<OpenLoop> = Vec::new();
    for step in 0..cfg.nodes {
        // Operand picker: hub-skewed or uniform. The hub subset is the
        // oldest eighth of the pool (at least one signal), so early signals
        // accumulate fan-out as the design grows.
        let hub_len = (pool.len() / 8).max(1).min(pool.len());
        let pick = |rng: &mut StdRng, pool: &[Produced], force_hub: bool| -> usize {
            if force_hub || rng.gen::<f64>() < cfg.fanout_skew {
                rng.gen_range(0..hub_len)
            } else {
                rng.gen_range(0..pool.len())
            }
        };

        let roll: f64 = rng.gen();
        let produced = if roll < cfg.ff_density {
            // A register step. With probability `feedback` the register is
            // created against a placeholder and its input patched to a
            // later combinational result, closing a feedback loop.
            let src = pick(&mut rng, &pool, false);
            let feedback_loop: f64 = rng.gen();
            let init = rng.gen_range(-8i64..=8);
            let width = pool[src].width;
            let (node, out) = design
                .add_node_in_domain(
                    format!("r{step}"),
                    WordOp::Register { init },
                    vec![pool[src].id],
                    None,
                    Domain::None,
                )
                .expect("register construction over pool signals is valid");
            let out = out.expect("registers produce a signal");
            if feedback_loop < cfg.feedback {
                open_loops.push(OpenLoop {
                    node,
                    width,
                    placeholder: src,
                });
            }
            Produced {
                id: out,
                width,
                depth: 0,
            }
        } else {
            // A combinational step: constant multiplier (CSD cone) or
            // adder/subtractor. With probability `feedback` both operands
            // come from the hub subset, forcing reconvergent fan-in.
            let reconverge: f64 = rng.gen();
            let reconverge = reconverge < cfg.feedback;
            let a = pick(&mut rng, &pool, reconverge);
            let width = rng.gen_range(1u8..=cfg.bus_width);
            let kind: f64 = rng.gen();
            let (id, depth) = if kind < cfg.lut_mix {
                // Non-zero coefficient with a CSD form of a few terms.
                let mut coefficient = rng.gen_range(-15i64..=15);
                if coefficient == 0 {
                    coefficient = 7;
                }
                let id = design.add_mul_const(format!("m{step}"), pool[a].id, coefficient, width);
                (id, pool[a].depth + 1)
            } else {
                let b = pick(&mut rng, &pool, reconverge);
                let subtract = rng.gen::<bool>();
                let id = if subtract {
                    design.add_sub(format!("s{step}"), pool[a].id, pool[b].id, width)
                } else {
                    design.add_add(format!("a{step}"), pool[a].id, pool[b].id, width)
                };
                (id, pool[a].depth.max(pool[b].depth) + 1)
            };
            if depth >= cfg.comb_depth {
                // Bound the combinational depth: pipeline the result.
                let q = design.add_register(format!("p{step}"), id);
                Produced {
                    id: q,
                    width,
                    depth: 0,
                }
            } else {
                Produced { id, width, depth }
            }
        };
        pool.push(produced);
    }

    // Close the feedback loops: patch each open register input to the most
    // recent width-matching signal produced after it (preferring one other
    // than the placeholder). A loop with no later candidate keeps its
    // placeholder — still a valid, merely feed-forward register.
    for open in &open_loops {
        let candidate = pool
            .iter()
            .enumerate()
            .rev()
            .find(|(i, p)| p.width == open.width && *i != open.placeholder)
            .map(|(_, p)| p.id);
        if let Some(signal) = candidate {
            design
                .replace_input(open.node, 0, signal)
                .expect("candidate width was matched");
        }
    }

    // Outputs: sample with a bias towards the most recently produced (and
    // therefore deepest) signals, skipping already-exported ones when
    // possible so ports stay distinct.
    let mut exported: Vec<SignalId> = Vec::new();
    for i in 0..cfg.outputs {
        let fresh: Vec<&Produced> = pool.iter().filter(|p| !exported.contains(&p.id)).collect();
        let id = if fresh.is_empty() {
            pool[rng.gen_range(0..pool.len())].id
        } else {
            // Quadratic bias towards the tail of the pool.
            let r: f64 = rng.gen();
            let index = ((r * r) * fresh.len() as f64) as usize;
            fresh[fresh.len() - 1 - index.min(fresh.len() - 1)].id
        };
        exported.push(id);
        design.add_output(format!("y{i}"), id);
    }

    design
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let config = GeneratorConfig::default();
        for seed in 0..16 {
            let a = generate(seed, &config);
            let b = generate(seed, &config);
            assert_eq!(a.node_count(), b.node_count());
            assert_eq!(a.signal_count(), b.signal_count());
            let nodes_a: Vec<_> = a.nodes().map(|(_, n)| n.clone()).collect();
            let nodes_b: Vec<_> = b.nodes().map(|(_, n)| n.clone()).collect();
            assert_eq!(nodes_a, nodes_b);
        }
    }

    #[test]
    fn node_budget_is_monotone() {
        let mut config = GeneratorConfig::default();
        let mut last = 0;
        for nodes in [1usize, 4, 8, 16, 32] {
            config.nodes = nodes;
            let design = generate(7, &config);
            assert!(design.node_count() >= last);
            last = design.node_count();
        }
    }

    #[test]
    fn sampled_configs_cover_the_knob_ranges() {
        let mut any_feedback = false;
        let mut any_wide = false;
        for seed in 0..64 {
            let config = GeneratorConfig::sampled(seed);
            assert!(config.nodes >= 4 && config.nodes <= 24);
            assert!((1..=10).contains(&config.bus_width));
            any_feedback |= config.feedback > 0.5;
            any_wide |= config.bus_width > 6;
        }
        assert!(any_feedback && any_wide);
    }

    #[test]
    fn generated_designs_evaluate() {
        // The word-level reference model must accept every generated design
        // (a cheap structural sanity check; full synthesis is covered by the
        // fuzz-flow tests).
        for seed in 0..8 {
            let design = generate(seed, &GeneratorConfig::default());
            let stim: Vec<std::collections::HashMap<String, i64>> = (0..4)
                .map(|cycle| {
                    design
                        .inputs()
                        .iter()
                        .map(|(_, sig)| (design.signal(*sig).name.clone(), cycle as i64 * 3 - 5))
                        .collect()
                })
                .collect();
            let out = design.evaluate(&stim);
            assert_eq!(out.len(), 4);
            assert!(!out[0].is_empty());
        }
    }
}
