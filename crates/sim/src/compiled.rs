//! The compiled, levelized, bit-parallel, event-driven fault simulator.
//!
//! The interpreting [`Simulator`](crate::Simulator) walks the netlist
//! cell-by-cell through id-indirected lookups and allocates per-cell input
//! vectors on every evaluation — fine as a semantics oracle, hopeless as the
//! inner loop of a fault-injection campaign. [`CompiledNetlist`] compiles a
//! netlist **once** into a flat, cache-friendly instruction stream
//! (topologically levelized combinational ops, flip-flop records, port
//! tables, per-net successor-level wake lists) and then evaluates **up to
//! 256 fault experiments at a time** over two-plane packed trits
//! ([`TritVec`]): every gate becomes a handful of bitwise operations shared
//! by all lanes, with the exact completion-enumeration `X` semantics of the
//! interpreter preserved (`maj(X, v, v) = v`). The engine picks the word
//! width per batch — wide `4×u64` vectors for full batches, scalar `1×u64`
//! tails for the rest.
//!
//! Fault simulation is *incremental* and *event-driven* on top of that:
//! each experiment word is seeded from the cached fault-free run
//! ([`PackedGolden`]), only the static fan-out cone of the faulted
//! cells/nets ([`tmr_netlist::FanoutIndex`]) is re-evaluated, and within the
//! cone three exact skipping layers compose. A **dirty-level mask** —
//! seeded from the word's injection points and re-armed by flip-flop state
//! divergence — skips every level whose operand words are unchanged against
//! the golden frame. A **per-instruction divergence check** then skips any
//! visited instruction whose operand lanes are all golden-equal and which no
//! overlay targets: its output is provably the golden value, and epoch
//! stamps on the net scratch route downstream reads to the golden frame.
//! Finally, evaluated instructions enumerate **only the diverged lanes**
//! (the completion enumeration starts from the need mask, and the golden
//! value is merged back into the clean lanes), so the bitwise work tracks
//! the number of diverged lanes instead of the word width. A lane exits
//! early the cycle its outcome is decided — either because its voted
//! outputs diverged (first error cycle found) or because its state
//! re-converged with golden (a pure state fault can never diverge again).
//!
//! Faults that bridge two nets (`shorted_nets`) couple values *backwards*
//! against the topological order; words containing such lanes keep the
//! interpreter's multi-pass settling loop — including its per-pass `changed`
//! bookkeeping and the oscillation poisoning after the fourth pass — but run
//! it *inside the cone* (both bridge endpoints seed the cone, which closes
//! it over every short-affected reader), with the same per-instruction
//! divergence skipping carrying the event-driven savings, so results stay
//! bit-identical there too. The interpreter remains available as a
//! differential oracle (`SimBackend::Interpreter` in the campaign layer).

use crate::compare::majority;
use crate::packed::{majority_word, LaneMask, TritVec, TritWord};
use crate::stats::SimStats;
use crate::{FaultOverlay, GoldenRun, OutputGroups, SimError, SinkRef, Trit};
use std::collections::HashMap;
use tmr_netlist::{CellKind, FanoutIndex, Netlist};

/// Sentinel for "this cell has no op / flip-flop slot".
const NONE: u32 = u32::MAX;

/// Maximum number of experiment lanes one [`CompiledNetlist::run_lanes`]
/// batch evaluates in a single stream pass (the wide `4×u64` word).
pub const MAX_LANES: usize = 256;

/// One combinational instruction of the compiled stream.
#[derive(Debug, Clone)]
struct Op {
    /// Output net.
    out: u32,
    /// First operand slot in [`CompiledNetlist::operands`].
    operand_start: u32,
    /// Number of inputs (0..=6).
    k: u8,
    /// Pure pass-through (`Buf` / `Ibuf` / `Obuf`).
    copy: bool,
    /// The cell is a LUT, so campaign truth-table overrides apply to it.
    lut: bool,
    /// Truth table over the `k` inputs (one bit per input assignment).
    init: u64,
}

/// One flip-flop record of the compiled stream.
#[derive(Debug, Clone)]
struct CompiledFf {
    /// The `D` input net.
    d_net: u32,
    /// The `Q` output net.
    q_net: u32,
    /// Power-up value.
    init: bool,
}

/// A netlist compiled for levelized, event-driven, bit-parallel evaluation.
///
/// Built once per netlist with [`CompiledNetlist::compile`]; immutable and
/// self-contained afterwards (it borrows nothing from the netlist), so it
/// can be cached as a pipeline artifact and shared across campaign worker
/// threads behind an `Arc`.
#[derive(Debug, Clone)]
pub struct CompiledNetlist {
    net_count: usize,
    /// Combinational instructions in topological (fanin-first) order — the
    /// same levelization order the interpreter uses, which full-evaluation
    /// mode relies on to reproduce its pass-by-pass settling exactly.
    ops: Vec<Op>,
    /// Flat operand net table (`Op::operand_start` indexes into it).
    operands: Vec<u32>,
    /// Cell index → op index (or [`NONE`]).
    op_of_cell: Vec<u32>,
    ffs: Vec<CompiledFf>,
    /// Cell index → flip-flop slot (or [`NONE`]).
    ff_of_cell: Vec<u32>,
    /// Input-port nets, in stimulus order.
    input_nets: Vec<u32>,
    /// Output-port nets, in trace order.
    outputs: Vec<u32>,
    /// Port index → output position (or [`NONE`]).
    output_of_port: Vec<u32>,
    /// Pad-voting groups: member positions into `outputs`.
    groups: Vec<Vec<usize>>,
    /// The static fan-out cone index used for incremental re-simulation.
    index: FanoutIndex,
    /// Logic level of every op (parallel to `ops`), from the levelization.
    op_level: Vec<u32>,
    /// Number of distinct combinational levels (`max(op_level) + 1`).
    level_count: usize,
    /// Net index → the op driving it (or [`NONE`]). Bridged words pull the
    /// drivers of shorted nets into the evaluated cone so partner reads
    /// resolve against live values.
    driver_op_of_net: Vec<u32>,
    /// Net index → the flip-flop slot driving it (or [`NONE`]).
    driver_ff_of_net: Vec<u32>,
    /// CSR offsets into `net_wake_levels`, one slot per net plus a tail
    /// sentinel.
    net_wake_start: Vec<u32>,
    /// Distinct, sorted levels of the combinational instructions reading
    /// each net — the successor-level wake sets of the event-driven
    /// scheduler, derived from the [`FanoutIndex`] sink relation.
    net_wake_levels: Vec<u32>,
}

/// A small fixed-capacity bitset over the compiled stream's logic levels:
/// the per-word dirty-level mask of the event-driven scheduler.
#[derive(Debug, Clone)]
struct LevelSet {
    bits: Vec<u64>,
}

impl LevelSet {
    fn new(levels: usize) -> Self {
        Self {
            bits: vec![0; levels.div_ceil(64)],
        }
    }

    #[inline]
    fn insert(&mut self, level: u32) {
        self.bits[(level / 64) as usize] |= 1u64 << (level % 64);
    }

    #[inline]
    fn contains(&self, level: u32) -> bool {
        (self.bits[(level / 64) as usize] >> (level % 64)) & 1 == 1
    }

    /// Resets this set to a copy of `other` (same capacity).
    #[inline]
    fn copy_from(&mut self, other: &LevelSet) {
        self.bits.copy_from_slice(&other.bits);
    }
}

/// The packed golden reference of a compiled campaign: the per-cycle settled
/// value of **every net** of the fault-free run (the incremental mode reads
/// out-of-cone nets from here) plus the pad-voted golden outputs the faulty
/// lanes are compared against.
///
/// Built by [`CompiledNetlist::pack_golden`], which re-runs the fault-free
/// design on the compiled engine and asserts the resulting trace is
/// bit-identical to the interpreter-produced [`GoldenRun`] — a permanent
/// differential canary on the compiled evaluation itself.
#[derive(Debug, Clone)]
pub struct PackedGolden {
    /// `frames[cycle][net]`: settled value of every net at the end of the
    /// cycle (flip-flop `Q` nets hold the state *driven* that cycle).
    frames: Vec<Vec<Trit>>,
    /// `voted[cycle][group]`: the pad-voted golden outputs.
    voted: Vec<Vec<Trit>>,
}

impl PackedGolden {
    /// Number of stimulus cycles.
    pub fn cycles(&self) -> usize {
        self.frames.len()
    }
}

impl CompiledNetlist {
    /// Compiles `netlist` into the flat instruction stream: one topological
    /// levelization, one fan-out index, one successor-level wake table — no
    /// further per-run graph work.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CombinationalLoop`] if the netlist cannot be
    /// levelized.
    pub fn compile(netlist: &Netlist) -> Result<Self, SimError> {
        let mut trace_span = tmr_trace::span("sim.compile");
        let levelization = netlist
            .levelize()
            .map_err(|l| SimError::CombinationalLoop {
                cells: l.cells.len(),
            })?;
        let index = FanoutIndex::new(netlist);
        let mut ops = Vec::with_capacity(levelization.order.len());
        let mut op_level = Vec::with_capacity(levelization.order.len());
        let mut operands = Vec::new();
        let mut op_of_cell = vec![NONE; netlist.cell_count()];
        for &cell_id in &levelization.order {
            let cell = netlist.cell(cell_id);
            let copy = matches!(cell.kind, CellKind::Buf | CellKind::Ibuf | CellKind::Obuf);
            let init = if copy {
                0
            } else {
                cell.kind
                    .truth_table()
                    .expect("levelized cells are combinational")
            };
            op_of_cell[cell_id.index()] = ops.len() as u32;
            let operand_start = operands.len() as u32;
            operands.extend(cell.inputs.iter().map(|net| net.index() as u32));
            ops.push(Op {
                out: cell.output.index() as u32,
                operand_start,
                k: cell.kind.input_count() as u8,
                copy,
                lut: cell.kind.is_lut(),
                init,
            });
            op_level.push(levelization.level[cell_id.index()] as u32);
        }
        let level_count = op_level.iter().max().map_or(0, |&max| max as usize + 1);

        // The successor-level wake sets: for every net, the distinct levels
        // of the combinational instructions that read it (flip-flop sinks
        // are excluded — state capture always runs). When an evaluated
        // instruction's output differs from the golden frame, these are the
        // levels the event-driven scheduler must wake.
        let mut net_wake_start = vec![0u32; netlist.net_count() + 1];
        let mut net_wake_levels: Vec<u32> = Vec::new();
        let mut scratch: Vec<u32> = Vec::new();
        for net in 0..netlist.net_count() {
            scratch.clear();
            scratch.extend(index.cell_sinks(net).iter().filter_map(|&cell| {
                match op_of_cell[cell as usize] {
                    NONE => None,
                    op => Some(op_level[op as usize]),
                }
            }));
            scratch.sort_unstable();
            scratch.dedup();
            net_wake_levels.extend_from_slice(&scratch);
            net_wake_start[net + 1] = net_wake_levels.len() as u32;
        }

        let mut ffs = Vec::new();
        let mut ff_of_cell = vec![NONE; netlist.cell_count()];
        for cell_id in netlist.sequential_cells() {
            let cell = netlist.cell(cell_id);
            let init = match cell.kind {
                CellKind::Dff { init } => init,
                _ => unreachable!("sequential cells are flip-flops"),
            };
            ff_of_cell[cell_id.index()] = ffs.len() as u32;
            ffs.push(CompiledFf {
                d_net: cell.inputs[0].index() as u32,
                q_net: cell.output.index() as u32,
                init,
            });
        }

        let input_nets = netlist
            .input_ports()
            .map(|(_, p)| p.net.index() as u32)
            .collect();
        let mut outputs = Vec::new();
        let mut output_of_port = vec![NONE; netlist.ports().count()];
        for (port_id, port) in netlist.output_ports() {
            output_of_port[port_id.index()] = outputs.len() as u32;
            outputs.push(port.net.index() as u32);
        }
        let groups = OutputGroups::new(netlist)
            .groups()
            .map(|(_, _, members)| members.to_vec())
            .collect();

        let mut driver_op_of_net = vec![NONE; netlist.net_count()];
        for (op_idx, op) in ops.iter().enumerate() {
            driver_op_of_net[op.out as usize] = op_idx as u32;
        }
        let mut driver_ff_of_net = vec![NONE; netlist.net_count()];
        for (ff_idx, ff) in ffs.iter().enumerate() {
            driver_ff_of_net[ff.q_net as usize] = ff_idx as u32;
        }

        trace_span.attr("ops", ops.len());
        trace_span.attr("ffs", ffs.len());
        trace_span.attr("levels", level_count);
        trace_span.attr("nets", netlist.net_count());
        Ok(Self {
            net_count: netlist.net_count(),
            ops,
            operands,
            op_of_cell,
            ffs,
            ff_of_cell,
            input_nets,
            outputs,
            output_of_port,
            groups,
            index,
            op_level,
            level_count,
            driver_op_of_net,
            driver_ff_of_net,
            net_wake_start,
            net_wake_levels,
        })
    }

    /// Number of nets of the compiled netlist.
    pub fn net_count(&self) -> usize {
        self.net_count
    }

    /// Number of combinational instructions in the stream.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Number of flip-flops.
    pub fn ff_count(&self) -> usize {
        self.ffs.len()
    }

    /// Number of distinct combinational levels of the stream.
    pub fn level_count(&self) -> usize {
        self.level_count
    }

    /// The operand nets of `op`.
    fn op_inputs(&self, op: &Op) -> &[u32] {
        let start = op.operand_start as usize;
        &self.operands[start..start + op.k as usize]
    }

    /// The successor levels woken when `net` diverges from golden.
    #[inline]
    fn net_wake(&self, net: usize) -> &[u32] {
        let start = self.net_wake_start[net] as usize;
        let end = self.net_wake_start[net + 1] as usize;
        &self.net_wake_levels[start..end]
    }

    /// A cheap fan-out-cone fingerprint of one overlay: an order-independent
    /// hash of its root-net seed set (cell roots by their output net, seed
    /// nets, seeded output ports — exactly the seeds the word compiler hands
    /// to [`FanoutIndex::cone`], tagged by seed kind). Overlays with equal
    /// fingerprints share their fan-out cone, so the campaign layer groups
    /// them into the same lane words and the union cone each word touches
    /// stays small.
    ///
    /// The high half of the key is the smallest tagged root, so sorting by
    /// key is locality-preserving: overlays seeded at nearby nets land in
    /// adjacent words even when their seed sets differ, which keeps each
    /// word's union cone compact. Equal seed sets always produce equal keys,
    /// so the dedup semantics are unaffected by the ordering refinement.
    pub fn cone_key(&self, overlay: &FaultOverlay) -> u128 {
        const CELL_TAG: u64 = 1 << 33;
        const NET_TAG: u64 = 2 << 33;
        const PORT_TAG: u64 = 3 << 33;
        let mut roots: Vec<u64> = Vec::new();
        let cell_root = |cell: tmr_netlist::CellId, roots: &mut Vec<u64>| {
            let out = match self.op_of_cell[cell.index()] {
                NONE => match self.ff_of_cell[cell.index()] {
                    NONE => return,
                    ff => self.ffs[ff as usize].q_net,
                },
                op => self.ops[op as usize].out,
            };
            roots.push(CELL_TAG | u64::from(out));
        };
        for &(cell, _) in &overlay.lut_overrides {
            let op = self.op_of_cell[cell.index()];
            if op != NONE && self.ops[op as usize].lut {
                cell_root(cell, &mut roots);
            }
        }
        for &(cell, _) in &overlay.ff_init_overrides {
            if self.ff_of_cell[cell.index()] != NONE {
                cell_root(cell, &mut roots);
            }
        }
        for sink in &overlay.opened_sinks {
            match *sink {
                SinkRef::CellPin { cell, .. } => cell_root(cell, &mut roots),
                SinkRef::OutputPort(port) => {
                    let position = self.output_of_port[port.index()];
                    if position != NONE {
                        roots.push(PORT_TAG | u64::from(position));
                    }
                }
            }
        }
        for &net in &overlay.corrupted_nets {
            roots.push(NET_TAG | net.index() as u64);
        }
        // Bridged nets seed the cone through both endpoints. Reusing the net
        // tag cannot confuse a bridge with a corruption: clean and bridged
        // faults are batched in separate streams by the campaign layer.
        for &(a, b) in &overlay.shorted_nets {
            roots.push(NET_TAG | a.index() as u64);
            roots.push(NET_TAG | b.index() as u64);
        }
        roots.sort_unstable();
        roots.dedup();
        // FNV-1a over the canonical root list, prefixed by the minimum root
        // as the locality-ordering major key.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &root in &roots {
            for byte in root.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let locality = roots.first().copied().unwrap_or(0);
        (u128::from(locality) << 64) | u128::from(hash)
    }

    /// Runs the fault-free design on the compiled engine and packages the
    /// per-cycle net frames and voted outputs for incremental fault
    /// simulation.
    ///
    /// # Panics
    ///
    /// Panics if the compiled trace diverges from the interpreter-produced
    /// trace inside `golden` — that would be a compiler bug, and this check
    /// keeps every campaign differentially guarded against it.
    pub fn pack_golden(&self, golden: &GoldenRun) -> PackedGolden {
        let mut trace_span = tmr_trace::span("sim.pack_golden");
        let vectors = golden.stimulus().vectors();
        trace_span.attr("cycles", vectors.len());
        let mut values = vec![TritWord::X; self.net_count];
        let mut state: Vec<TritWord> = self
            .ffs
            .iter()
            .map(|ff| TritWord::broadcast(Trit::from_bool(ff.init)))
            .collect();
        let mut frames = Vec::with_capacity(vectors.len());
        let mut voted = Vec::with_capacity(vectors.len());
        let mut inputs = [TritWord::ZERO; 6];
        for (cycle, vector) in vectors.iter().enumerate() {
            assert_eq!(
                vector.len(),
                self.input_nets.len(),
                "stimulus vector length must match the number of input ports"
            );
            for (&net, &value) in self.input_nets.iter().zip(vector.iter()) {
                values[net as usize] = TritWord::broadcast(value);
            }
            for (ff, st) in self.ffs.iter().zip(state.iter()) {
                values[ff.q_net as usize] = *st;
            }
            for op in &self.ops {
                for (pin, &net) in self.op_inputs(op).iter().enumerate() {
                    inputs[pin] = values[net as usize];
                }
                values[op.out as usize] = eval_op(op, &inputs, None, LaneMask::FULL);
            }
            let frame: Vec<Trit> = values.iter().map(|w| w.lane(0)).collect();
            let trace_row: Vec<Trit> = self
                .outputs
                .iter()
                .map(|&net| frame[net as usize])
                .collect();
            assert_eq!(
                trace_row,
                golden.trace().outputs[cycle],
                "compiled golden run diverged from the interpreter at cycle {cycle}"
            );
            voted.push(
                self.groups
                    .iter()
                    .map(|members| {
                        let member_values: Vec<Trit> =
                            members.iter().map(|&m| trace_row[m]).collect();
                        majority(&member_values)
                    })
                    .collect(),
            );
            for (ff, st) in self.ffs.iter().zip(state.iter_mut()) {
                *st = values[ff.d_net as usize];
            }
            frames.push(frame);
        }
        PackedGolden { frames, voted }
    }

    /// Simulates up to 64 fault experiments in one packed word and returns,
    /// per lane, the first cycle at which the pad-voted outputs diverged
    /// from golden (`None` = the fault never produced a wrong answer).
    ///
    /// Equivalent to [`CompiledNetlist::run_lanes`] with event-driven
    /// scheduling enabled and the statistics discarded — the compatibility
    /// entry point for single-word callers.
    ///
    /// # Panics
    ///
    /// Panics if `overlays` is empty or holds more than 64 lanes, or if
    /// `golden` was packed for a different netlist.
    pub fn run_word(
        &self,
        golden: &PackedGolden,
        overlays: &[&FaultOverlay],
    ) -> Vec<Option<usize>> {
        assert!(
            !overlays.is_empty() && overlays.len() <= 64,
            "a packed word holds 1..=64 experiment lanes"
        );
        let mut stats = SimStats::default();
        self.run_lanes(golden, overlays, &mut stats)
    }

    /// Simulates up to [`MAX_LANES`] fault experiments in one word batch and
    /// returns, per lane, the first cycle at which the pad-voted outputs
    /// diverged from golden (`None` = the fault never produced a wrong
    /// answer).
    ///
    /// The result is bit-identical to running the interpreting simulator on
    /// each overlay individually and comparing with
    /// [`OutputGroups::first_voted_mismatch`]. Batches of more than 64 lanes
    /// evaluate on the wide `4×u64` word, the rest on the scalar `1×u64`
    /// word. Every word runs cone-restricted with per-instruction per-lane
    /// divergence skipping; words without `shorted_nets` add dirty-level
    /// scheduling, and words with them keep the interpreter's multi-pass
    /// settling loop, restricted to the cone. `stats` accumulates the
    /// engine's observability counters.
    ///
    /// # Panics
    ///
    /// Panics if `overlays` is empty or holds more than [`MAX_LANES`]
    /// lanes, or if `golden` was packed for a different netlist.
    pub fn run_lanes(
        &self,
        golden: &PackedGolden,
        overlays: &[&FaultOverlay],
        stats: &mut SimStats,
    ) -> Vec<Option<usize>> {
        assert!(
            !overlays.is_empty() && overlays.len() <= MAX_LANES,
            "a word batch holds 1..={MAX_LANES} experiment lanes"
        );
        if let Some(frame) = golden.frames.first() {
            assert_eq!(
                frame.len(),
                self.net_count,
                "golden frames netlist mismatch"
            );
        }
        stats.lanes_simulated += overlays.len() as u64;
        stats.max_lanes_per_word = stats.max_lanes_per_word.max(overlays.len() as u64);
        if overlays.len() <= 64 {
            stats.words_narrow += 1;
            self.run_lanes_at_width::<1>(golden, overlays, stats)
        } else {
            stats.words_wide += 1;
            self.run_lanes_at_width::<4>(golden, overlays, stats)
        }
    }

    /// Width-resolved body of [`CompiledNetlist::run_lanes`].
    fn run_lanes_at_width<const W: usize>(
        &self,
        golden: &PackedGolden,
        overlays: &[&FaultOverlay],
        stats: &mut SimStats,
    ) -> Vec<Option<usize>> {
        let word = WordOverlays::<W>::build(self, overlays);
        if word.has_shorts {
            stats.words_full_eval += 1;
        }
        self.run_word_inc(golden, &word, overlays.len(), stats)
    }

    /// The unified incremental engine: evaluate only the union fan-out cone
    /// of the word's fault sites (bridged nets seed the cone too), and within
    /// it only the instructions whose operands actually diverged — reading
    /// everything else from the golden frames.
    ///
    /// Three skipping layers compose, each exact rather than heuristic:
    ///
    /// 1. **Cone restriction** — instructions outside the union fan-out cone
    ///    of the word's seeds can never differ from golden, so they are never
    ///    visited. Bridges perturb *reads* of their two nets, so seeding both
    ///    nets closes the cone over every short-affected reader.
    /// 2. **Dirty-level scheduling** (words without shorts) —
    ///    a level is skipped when no always-dirty site sits on it, no
    ///    diverged flip-flop woke it this cycle, and no earlier evaluated
    ///    instruction published a golden-divergence wake to it: every operand
    ///    of its instructions is then golden-equal by induction.
    /// 3. **Per-instruction divergence checks** — within a
    ///    dirty level, an instruction whose operand lanes are all
    ///    golden-equal, whose stored output is golden-equal, and which no
    ///    overlay targets must produce its golden output; it is skipped, and
    ///    the epoch stamps (`net_cycle`) route downstream reads of its net to
    ///    the golden frame. Evaluated instructions enumerate only the
    ///    diverged lanes ([`TritVec::select_lanes`] merges the golden value
    ///    back into the rest).
    ///
    /// Words with bridged lanes run the interpreter's multi-pass settling
    /// loop *inside the cone*: values feed back through
    /// [`TritVec::resolve_masked`] reads, passes repeat until no lane
    /// changed, and oscillation through a short poisons the bridged nets on
    /// the final pass — bit-identical to the full-netlist loop because every
    /// instruction outside the perturbed region is at its golden fixed point
    /// pass by pass.
    fn run_word_inc<const W: usize>(
        &self,
        golden: &PackedGolden,
        word: &WordOverlays<W>,
        lanes: usize,
        stats: &mut SimStats,
    ) -> Vec<Option<usize>> {
        let all = LaneMask::<W>::first(lanes);
        let cone = self.index.cone(
            word.seed_cells.iter().copied(),
            word.seed_nets.iter().copied(),
        );
        let mut cone_ops: Vec<u32> = cone
            .cells
            .iter()
            .filter_map(|cell| match self.op_of_cell[cell.index()] {
                NONE => None,
                op => Some(op),
            })
            .collect();
        let mut cone_ffs: Vec<u32> = cone
            .cells
            .iter()
            .filter_map(|cell| match self.ff_of_cell[cell.index()] {
                NONE => None,
                ff => Some(ff),
            })
            .collect();
        // Bridged words resolve partner reads against the *live* stored
        // values (backwards reads through a short must see the previous
        // pass, exactly like the interpreter) — so the drivers of the
        // shorted nets must be evaluated too, keeping every bridged net's
        // stored value in lock-step with a full-netlist walk. Shorted nets
        // with no cell driver (primary inputs) are re-stamped from the
        // golden frame at every cycle start instead.
        let mut bridge_input_nets: Vec<u32> = Vec::new();
        for &(a, b, _) in &word.short_pairs {
            for net in [a as usize, b as usize] {
                match self.driver_op_of_net[net] {
                    NONE => match self.driver_ff_of_net[net] {
                        NONE => bridge_input_nets.push(net as u32),
                        ff => cone_ffs.push(ff),
                    },
                    op => cone_ops.push(op),
                }
            }
        }
        bridge_input_nets.sort_unstable();
        bridge_input_nets.dedup();
        cone_ops.sort_unstable();
        cone_ops.dedup();
        cone_ffs.sort_unstable();
        cone_ffs.dedup();
        let mut affected_outputs: Vec<u32> = cone
            .ports
            .iter()
            .map(|port| self.output_of_port[port.index()])
            .chain(word.seed_ports.iter().copied())
            .collect();
        affected_outputs.sort_unstable();
        affected_outputs.dedup();
        let affected_groups: Vec<usize> = self
            .groups
            .iter()
            .enumerate()
            .filter(|(_, members)| {
                members
                    .iter()
                    .any(|&m| affected_outputs.binary_search(&(m as u32)).is_ok())
            })
            .map(|(g, _)| g)
            .collect();

        // Dirty-level scheduling only applies to words without bridges —
        // multi-pass settling re-walks the stream anyway, and the
        // per-instruction checks below carry the skipping there. The
        // always-dirty seed: levels holding an instruction whose evaluation
        // is itself perturbed — truth-table overrides, opened input pins, or
        // reads of corrupted nets — must be visited every cycle.
        let use_levels = !word.has_shorts;
        let mut always_dirty = LevelSet::new(self.level_count);
        if use_levels {
            for &(op, _, _) in &word.lut {
                always_dirty.insert(self.op_level[op as usize]);
            }
            for &(key, _) in &word.pin_opens {
                always_dirty.insert(self.op_level[(key >> 3) as usize]);
            }
            for &net in &word.corrupt_nets {
                for &level in self.net_wake(net as usize) {
                    always_dirty.insert(level);
                }
            }
        }
        let mut dirty = always_dirty.clone();
        // The distinct levels present in the cone, for the skip counters of
        // level-scheduled words.
        let mut cone_levels: Vec<u32> = Vec::new();
        if !word.has_shorts {
            cone_levels.extend(cone_ops.iter().map(|&op| self.op_level[op as usize]));
            cone_levels.sort_unstable();
            cone_levels.dedup();
        }

        // Epoch stamps: `values[net]` (and its golden-divergence mask
        // `diffg[net]`) is only meaningful in the cycle it was written;
        // everything else reads the golden frame (sound, because a skipped
        // driver is golden-equal by construction).
        let mut net_cycle = vec![u32::MAX; self.net_count];
        let mut values = vec![TritVec::<W>::X; self.net_count];
        let mut diffg = vec![LaneMask::<W>::EMPTY; self.net_count];
        let mut state: Vec<TritVec<W>> = cone_ffs
            .iter()
            .map(|&ff| word.initial_state(self, ff))
            .collect();
        let mut found = vec![None; lanes];
        let mut active = all;
        let mut inputs = [TritVec::<W>::ZERO; 6];
        let mut pin_poison = [LaneMask::<W>::EMPTY; 6];
        let mut member_buf: Vec<TritVec<W>> = Vec::new();
        let max_passes = if word.has_shorts { 4 } else { 1 };
        let last_cycle = golden.cycles().saturating_sub(1);

        for cycle in 0..golden.cycles() {
            let frame = &golden.frames[cycle];
            let stamp = cycle as u32;
            // Pure state faults whose flip-flop state re-converged with
            // golden can never diverge again: retire those lanes now.
            if (word.state_only & active).any() {
                let mut state_diff = LaneMask::<W>::EMPTY;
                for (st, &ff) in state.iter().zip(cone_ffs.iter()) {
                    let q = self.ffs[ff as usize].q_net as usize;
                    state_diff |= st.diff(TritVec::broadcast(frame[q]));
                }
                let retired = word.state_only & !state_diff & active;
                if retired.any() {
                    stats.lanes_retired_early += u64::from(retired.count());
                    active &= !retired;
                    if active.is_empty() {
                        break;
                    }
                }
            }
            dirty.copy_from(&always_dirty);
            for (st, &ff) in state.iter().zip(cone_ffs.iter()) {
                let record = &self.ffs[ff as usize];
                let q = record.q_net as usize;
                values[q] = *st;
                net_cycle[q] = stamp;
                let dg = st.diff(TritVec::broadcast(frame[q]));
                diffg[q] = dg;
                // A flip-flop whose state diverged from golden wakes the
                // levels reading its Q net.
                if use_levels && dg.any() {
                    for &level in self.net_wake(q) {
                        dirty.insert(level);
                    }
                }
            }
            // Bridged primary inputs carry this cycle's stimulus for raw
            // partner reads (the full-netlist loop writes input nets at
            // every cycle start).
            for &net in &bridge_input_nets {
                let net = net as usize;
                values[net] = TritVec::broadcast(frame[net]);
                net_cycle[net] = stamp;
                diffg[net] = LaneMask::EMPTY;
            }
            // Backwards-read lane window. Instruction order is topological,
            // so within one settling pass every plain operand read sees its
            // driver's final value — the only reads that can miss a
            // same-pass update are the raw partner reads through a short
            // whose driver runs later in the order. A lane therefore needs
            // another pass exactly when one of its *shorted* nets changed
            // value this pass; all other lanes are self-consistent and the
            // next pass provably reproduces them. Passes after the first
            // restrict all work to that window, and an empty window ends
            // the settling loop without a confirmation walk.
            let mut settle_window = LaneMask::<W>::FULL;
            for pass in 0..max_passes {
                let window = if pass > 0 {
                    settle_window
                } else {
                    LaneMask::FULL
                };
                let mut pass_change = LaneMask::<W>::EMPTY;
                let mut short_delta = LaneMask::<W>::EMPTY;
                let mut lut_cursor = 0;
                let mut open_cursor = 0;
                for &op_idx in &cone_ops {
                    if use_levels && !dirty.contains(self.op_level[op_idx as usize]) {
                        continue;
                    }
                    let op = &self.ops[op_idx as usize];
                    let out_net = op.out as usize;
                    let lut_entry = word.lut_entry(op_idx, &mut lut_cursor);
                    // The need mask: lanes in which any operand read — or the
                    // instruction's own stored output — diverges from the
                    // golden frame, or an overlay perturbs the evaluation.
                    // Every other lane provably reproduces its golden output.
                    let mut need = LaneMask::<W>::EMPTY;
                    for (pin, &net) in self.op_inputs(op).iter().enumerate() {
                        let net = net as usize;
                        if net_cycle[net] == stamp {
                            need |= diffg[net];
                        }
                        let mut poison = word.corrupt[net];
                        let key = (u64::from(op_idx) << 3) | pin as u64;
                        while open_cursor < word.pin_opens.len()
                            && word.pin_opens[open_cursor].0 < key
                        {
                            open_cursor += 1;
                        }
                        if open_cursor < word.pin_opens.len()
                            && word.pin_opens[open_cursor].0 == key
                        {
                            poison |= word.pin_opens[open_cursor].1;
                        }
                        pin_poison[pin] = poison;
                        need |= poison;
                        if word.has_shorts {
                            need |= word.short_mask[net];
                        }
                    }
                    if let Some((overridden, _)) = lut_entry {
                        need |= overridden;
                    }
                    if net_cycle[out_net] == stamp {
                        need |= diffg[out_net];
                    }
                    need &= active & window;
                    if need.is_empty() {
                        stats.ops_skipped += 1;
                        if word.has_shorts && pass == 0 {
                            // Keep the stored value in lock-step with a
                            // full-netlist walk: a skipped instruction would
                            // have produced its golden output, and raw
                            // partner reads (plus the settling bookkeeping)
                            // must see it. Later passes need no store — the
                            // first pass stamped every cone output, and an
                            // empty need means the stored window lanes are
                            // already golden.
                            let golden_out = TritVec::broadcast(frame[out_net]);
                            let d = golden_out.diff(values[out_net]);
                            pass_change |= d;
                            short_delta |= d & word.short_mask[out_net];
                            values[out_net] = golden_out;
                            net_cycle[out_net] = stamp;
                            diffg[out_net] = LaneMask::EMPTY;
                        }
                        continue;
                    }
                    stats.ops_evaluated += 1;
                    for (pin, &net) in self.op_inputs(op).iter().enumerate() {
                        let net = net as usize;
                        let mut w = if net_cycle[net] == stamp {
                            values[net]
                        } else {
                            TritVec::broadcast(frame[net])
                        };
                        w = w.poison(pin_poison[pin]);
                        if word.has_shorts {
                            w = word.resolve_shorts(w, net, &values);
                        }
                        inputs[pin] = w;
                    }
                    let golden_out = TritVec::broadcast(frame[out_net]);
                    let masks = lut_entry.map(|(_, masks)| masks);
                    // Sub-word narrowing: when every diverged lane of a wide
                    // word sits in one 64-lane sub-word (common after the
                    // locality-ordered cone batching), run the truth-table
                    // enumeration at 1×u64 and splice the result into the
                    // golden broadcast — lane-exact, since eval lanes are
                    // independent and all other sub-words are golden.
                    let narrow_sub = if W > 1 && masks.is_none() {
                        need.only_subword()
                    } else {
                        None
                    };
                    let fresh = if let Some(sub) = narrow_sub {
                        let mut narrow_inputs = [TritVec::<1>::ZERO; 6];
                        for (pin, input) in inputs.iter().enumerate() {
                            narrow_inputs[pin] = input.subword(sub);
                        }
                        let narrow_need = need.subword(sub);
                        let narrow = eval_op(op, &narrow_inputs, None, narrow_need)
                            .select_lanes(golden_out.subword(sub), narrow_need);
                        let mut fresh = golden_out;
                        fresh.set_subword(sub, narrow);
                        fresh
                    } else {
                        eval_op(op, &inputs, masks, need).select_lanes(golden_out, need)
                    };
                    // Outside the fixpoint window the fresh value is not
                    // provably golden — those lanes keep their settled
                    // stored value (a no-op on the wide-open first pass).
                    let out = fresh.select_lanes(values[out_net], window);
                    // Settling deltas compare against the raw stored value
                    // (previous pass or cycle), exactly like the
                    // full-netlist loop; stale stores of level-scheduled
                    // words read as golden instead.
                    let prev = if word.has_shorts || net_cycle[out_net] == stamp {
                        values[out_net]
                    } else {
                        golden_out
                    };
                    let d = out.diff(prev);
                    pass_change |= d;
                    if word.has_shorts {
                        short_delta |= d & word.short_mask[out_net];
                    }
                    values[out_net] = out;
                    net_cycle[out_net] = stamp;
                    let dg = out.diff(golden_out);
                    diffg[out_net] = dg;
                    if use_levels && dg.any() {
                        for &level in self.net_wake(out_net) {
                            dirty.insert(level);
                        }
                    }
                }
                if pass_change.is_empty() {
                    break;
                }
                if short_delta.is_empty() {
                    // Every change this pass landed on an un-shorted net (or
                    // an un-shorted lane of one), so no backwards raw read
                    // can have missed it — the next pass provably changes
                    // nothing, and the full-netlist walk would only run it
                    // to confirm that. Stop without the confirmation pass.
                    break;
                }
                settle_window = short_delta;
                if pass + 1 == max_passes {
                    // Oscillation through a short: poison the shorted nets
                    // of the lanes that were still changing.
                    for &(a, b, mask) in &word.short_pairs {
                        let poison = mask & pass_change;
                        if poison.any() {
                            // Every bridged net is stamped by now (its
                            // driver is in the cone, or it was written at
                            // cycle start), so the raw store is current.
                            for net in [a as usize, b as usize] {
                                let v = values[net].poison(poison);
                                values[net] = v;
                                net_cycle[net] = stamp;
                                diffg[net] = v.diff(TritVec::broadcast(frame[net]));
                            }
                        }
                    }
                }
            }
            if !word.has_shorts {
                for &level in &cone_levels {
                    if dirty.contains(level) {
                        stats.levels_evaluated += 1;
                    } else {
                        stats.levels_skipped += 1;
                    }
                }
            }
            let mut mismatch = LaneMask::<W>::EMPTY;
            for &g in &affected_groups {
                member_buf.clear();
                for &m in &self.groups[g] {
                    let net = self.outputs[m] as usize;
                    let mut w = if net_cycle[net] == stamp {
                        values[net]
                    } else {
                        TritVec::broadcast(frame[net])
                    };
                    w = w.poison(word.corrupt[net]);
                    if word.has_shorts {
                        w = word.resolve_shorts(w, net, &values);
                    }
                    w = w.poison(word.port_open[m]);
                    member_buf.push(w);
                }
                let dut = majority_word(&member_buf);
                mismatch |= dut.diff(TritVec::broadcast(golden.voted[cycle][g]));
            }
            let hits = mismatch & active;
            if hits.any() {
                record_hits(&mut found, hits, cycle);
                if cycle < last_cycle {
                    stats.lanes_retired_early += u64::from(hits.count());
                }
                active &= !hits;
                if active.is_empty() {
                    break;
                }
            }
            for (st, &ff) in state.iter_mut().zip(cone_ffs.iter()) {
                let record = &self.ffs[ff as usize];
                let net = record.d_net as usize;
                let mut w = if net_cycle[net] == stamp {
                    values[net]
                } else {
                    TritVec::broadcast(frame[net])
                };
                w = w.poison(word.corrupt[net]);
                if word.has_shorts {
                    w = word.resolve_shorts(w, net, &values);
                }
                w = w.poison(word.ff_open[ff as usize]);
                *st = w;
            }
        }
        found
    }
}

/// Records `cycle` as the first error cycle of every lane in `hits`.
fn record_hits<const W: usize>(found: &mut [Option<usize>], hits: LaneMask<W>, cycle: usize) {
    hits.for_each(|lane| found[lane] = Some(cycle));
}

/// Evaluates one compiled op over packed inputs with exact `X` semantics,
/// restricted to the lanes in `restrict` — the completion enumeration
/// starts from `restrict` instead of all lanes, so the work is proportional
/// to the diverged lanes and the other lanes come out as `X` (callers merge
/// the golden value back in with [`TritVec::select_lanes`]).
///
/// `masks`, when present, holds one lane mask per truth-table assignment
/// (lanes whose — possibly overridden — truth table has that bit set);
/// otherwise the op's shared `init` is used for every lane.
#[inline]
fn eval_op<const W: usize>(
    op: &Op,
    inputs: &[TritVec<W>; 6],
    masks: Option<&[LaneMask<W>]>,
    restrict: LaneMask<W>,
) -> TritVec<W> {
    if op.copy {
        return inputs[0];
    }
    let k = op.k as usize;
    let mut ones = [LaneMask::<W>::EMPTY; 6];
    let mut zeros = [LaneMask::<W>::EMPTY; 6];
    for (i, input) in inputs.iter().enumerate().take(k) {
        ones[i] = input.can_be_one();
        zeros[i] = input.can_be_zero();
    }
    let mut can_one = LaneMask::<W>::EMPTY;
    let mut can_zero = LaneMask::<W>::EMPTY;
    for assignment in 0..(1usize << k) {
        let mut matching = restrict;
        for i in 0..k {
            matching &= if (assignment >> i) & 1 == 1 {
                ones[i]
            } else {
                zeros[i]
            };
            if matching.is_empty() {
                break;
            }
        }
        if matching.is_empty() {
            continue;
        }
        match masks {
            Some(masks) => {
                can_one |= matching & masks[assignment];
                can_zero |= matching & !masks[assignment];
            }
            None => {
                if (op.init >> assignment) & 1 == 1 {
                    can_one |= matching;
                } else {
                    can_zero |= matching;
                }
            }
        }
    }
    TritVec::from_possibilities(can_one, can_zero)
}

/// The per-word compilation of up to `64 * W` fault overlays into lane
/// masks.
struct WordOverlays<const W: usize> {
    /// Truth-table overrides: `(op index, overridden-lane mask,
    /// per-assignment lane masks)`, sorted by op index (consumed with a
    /// cursor during the ascending op walk).
    lut: Vec<(u32, LaneMask<W>, Vec<LaneMask<W>>)>,
    /// Opened cell-input pins: `((op << 3) | pin, lane mask)`, sorted.
    pin_opens: Vec<(u64, LaneMask<W>)>,
    /// Opened flip-flop `D` pins, dense per flip-flop slot.
    ff_open: Vec<LaneMask<W>>,
    /// Opened output ports, dense per output position.
    port_open: Vec<LaneMask<W>>,
    /// Corrupted (antenna) nets, dense per net.
    corrupt: Vec<LaneMask<W>>,
    /// The distinct corrupted nets (the sparse view of `corrupt`, for the
    /// always-dirty level seed).
    corrupt_nets: Vec<u32>,
    /// Bridged partners per net.
    shorts: HashMap<u32, Vec<(u32, LaneMask<W>)>>,
    /// Every bridged pair with its lane mask (for oscillation poisoning).
    short_pairs: Vec<(u32, u32, LaneMask<W>)>,
    /// Lanes bridging each net, dense per net (forces evaluation of every
    /// instruction reading a bridged net in those lanes).
    short_mask: Vec<LaneMask<W>>,
    /// Any lane bridges nets (selects the multi-pass settling loop).
    has_shorts: bool,
    /// Flip-flop initialisation overrides, dense per flip-flop slot:
    /// lanes overridden, and their override value.
    ff_init_set: Vec<LaneMask<W>>,
    ff_init_val: Vec<LaneMask<W>>,
    /// Lanes whose overlay perturbs *only* flip-flop initial state.
    state_only: LaneMask<W>,
    /// Fan-out cone seeds of the word (union over lanes).
    seed_cells: Vec<tmr_netlist::CellId>,
    seed_nets: Vec<tmr_netlist::NetId>,
    seed_ports: Vec<u32>,
}

impl<const W: usize> WordOverlays<W> {
    fn build(compiled: &CompiledNetlist, overlays: &[&FaultOverlay]) -> Self {
        let mut lut_raw: HashMap<u32, Vec<(usize, u64)>> = HashMap::new();
        let mut pin_opens: HashMap<u64, LaneMask<W>> = HashMap::new();
        let mut word = Self {
            lut: Vec::new(),
            pin_opens: Vec::new(),
            ff_open: vec![LaneMask::EMPTY; compiled.ffs.len()],
            port_open: vec![LaneMask::EMPTY; compiled.outputs.len()],
            corrupt: vec![LaneMask::EMPTY; compiled.net_count],
            corrupt_nets: Vec::new(),
            shorts: HashMap::new(),
            short_pairs: Vec::new(),
            short_mask: Vec::new(),
            has_shorts: false,
            ff_init_set: vec![LaneMask::EMPTY; compiled.ffs.len()],
            ff_init_val: vec![LaneMask::EMPTY; compiled.ffs.len()],
            state_only: LaneMask::EMPTY,
            seed_cells: Vec::new(),
            seed_nets: Vec::new(),
            seed_ports: Vec::new(),
        };
        for (lane, overlay) in overlays.iter().enumerate() {
            let bit = LaneMask::<W>::bit(lane);
            let combinational = !overlay.lut_overrides.is_empty()
                || !overlay.opened_sinks.is_empty()
                || !overlay.shorted_nets.is_empty()
                || !overlay.corrupted_nets.is_empty();
            if !combinational {
                word.state_only |= bit;
            }
            for &(cell, init) in &overlay.lut_overrides {
                let op = compiled.op_of_cell[cell.index()];
                if op == NONE || !compiled.ops[op as usize].lut {
                    continue; // the interpreter ignores overrides on non-LUTs
                }
                lut_raw.entry(op).or_default().push((lane, init));
                word.seed_cells.push(cell);
            }
            for &(cell, value) in &overlay.ff_init_overrides {
                let ff = compiled.ff_of_cell[cell.index()];
                if ff == NONE {
                    continue;
                }
                word.ff_init_set[ff as usize] |= bit;
                if value {
                    word.ff_init_val[ff as usize] |= bit;
                }
                word.seed_cells.push(cell);
            }
            for sink in &overlay.opened_sinks {
                match *sink {
                    SinkRef::CellPin { cell, pin } => {
                        let op = compiled.op_of_cell[cell.index()];
                        if op != NONE {
                            *pin_opens
                                .entry((u64::from(op) << 3) | pin as u64)
                                .or_default() |= bit;
                        } else {
                            let ff = compiled.ff_of_cell[cell.index()];
                            if ff != NONE {
                                word.ff_open[ff as usize] |= bit;
                            }
                        }
                        word.seed_cells.push(cell);
                    }
                    SinkRef::OutputPort(port) => {
                        let position = compiled.output_of_port[port.index()];
                        if position != NONE {
                            word.port_open[position as usize] |= bit;
                            word.seed_ports.push(position);
                        }
                    }
                }
            }
            for &net in &overlay.corrupted_nets {
                if word.corrupt[net.index()].is_empty() {
                    word.corrupt_nets.push(net.index() as u32);
                }
                word.corrupt[net.index()] |= bit;
                word.seed_nets.push(net);
            }
            for &(a, b) in &overlay.shorted_nets {
                if !word.has_shorts {
                    word.has_shorts = true;
                    word.short_mask = vec![LaneMask::EMPTY; compiled.net_count];
                }
                word.short_mask[a.index()] |= bit;
                word.short_mask[b.index()] |= bit;
                word.shorts
                    .entry(a.index() as u32)
                    .or_default()
                    .push((b.index() as u32, bit));
                word.shorts
                    .entry(b.index() as u32)
                    .or_default()
                    .push((a.index() as u32, bit));
                word.short_pairs
                    .push((a.index() as u32, b.index() as u32, bit));
                // A bridge perturbs every *read* of its two nets, so seeding
                // both closes the fan-out cone over all short-affected
                // consumers.
                word.seed_nets.push(a);
                word.seed_nets.push(b);
            }
        }
        word.lut = lut_raw
            .into_iter()
            .map(|(op, lanes)| {
                let record = &compiled.ops[op as usize];
                let assignments = 1usize << record.k;
                let overridden = lanes.iter().fold(LaneMask::<W>::EMPTY, |mask, &(lane, _)| {
                    mask | LaneMask::bit(lane)
                });
                let mut masks = vec![LaneMask::<W>::EMPTY; assignments];
                for (assignment, mask) in masks.iter_mut().enumerate() {
                    if (record.init >> assignment) & 1 == 1 {
                        *mask = !overridden;
                    }
                    for &(lane, init) in &lanes {
                        if (init >> assignment) & 1 == 1 {
                            *mask |= LaneMask::bit(lane);
                        }
                    }
                }
                (op, overridden, masks)
            })
            .collect();
        word.lut.sort_unstable_by_key(|&(op, _, _)| op);
        word.pin_opens = pin_opens.into_iter().collect();
        word.pin_opens.sort_unstable_by_key(|&(key, _)| key);
        word
    }

    /// The initial packed state of flip-flop slot `ff`, overrides applied.
    fn initial_state(&self, compiled: &CompiledNetlist, ff: u32) -> TritVec<W> {
        let record = &compiled.ffs[ff as usize];
        let mut state = TritVec::broadcast(Trit::from_bool(record.init));
        let set = self.ff_init_set[ff as usize];
        state.val = (state.val & !set) | (self.ff_init_val[ff as usize] & set);
        state
    }

    /// Applies bridged-net resolution against the raw stored partner values
    /// (mirrors the interpreter's sequential `Trit::resolve` fold). Raw is
    /// essential: a backwards read through a short must see the partner's
    /// previous-pass (or previous-cycle) value, which is why the engine pulls
    /// every shorted net's driver into the evaluated cone and has skipped
    /// instructions of bridged words still store their golden output.
    #[inline]
    fn resolve_shorts(
        &self,
        mut value: TritVec<W>,
        net: usize,
        values: &[TritVec<W>],
    ) -> TritVec<W> {
        // The dense mask answers "is this net bridged anywhere?" with one
        // array probe, keeping the hash lookup off the unbridged-net reads
        // that dominate a word's evaluations.
        if !self.short_mask[net].any() {
            return value;
        }
        if let Some(partners) = self.shorts.get(&(net as u32)) {
            for &(partner, mask) in partners {
                value = value.resolve_masked(values[partner as usize], mask);
            }
        }
        value
    }

    /// Truth-table override entry for `op`, if any lane overrides it: the
    /// overridden-lane mask and the per-assignment lane masks. `cursor` must
    /// advance monotonically with the ascending op walk.
    #[inline]
    fn lut_entry(&self, op: u32, cursor: &mut usize) -> Option<(LaneMask<W>, &[LaneMask<W>])> {
        while *cursor < self.lut.len() && self.lut[*cursor].0 < op {
            *cursor += 1;
        }
        match self.lut.get(*cursor) {
            Some(&(candidate, overridden, ref masks)) if candidate == op => {
                Some((overridden, masks))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Simulator, Stimulus};
    use tmr_netlist::{CellKind, Netlist};

    /// y = (a & b) | c, q = reg(y), with a second voted-style output.
    fn sample() -> Netlist {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let ab = nl.add_net("ab");
        let y = nl.add_net("y");
        let q = nl.add_net("q");
        nl.add_cell(
            "u_and",
            CellKind::Lut { k: 2, init: 0b1000 },
            vec![a, b],
            ab,
        )
        .unwrap();
        nl.add_cell("u_or", CellKind::Lut { k: 2, init: 0b1110 }, vec![ab, c], y)
            .unwrap();
        nl.add_cell("u_ff", CellKind::Dff { init: false }, vec![y], q)
            .unwrap();
        nl.add_output("y", y);
        nl.add_output("q", q);
        nl
    }

    /// The oracle outcome of one overlay on one netlist.
    fn interpreter_outcome(
        netlist: &Netlist,
        golden: &GoldenRun,
        overlay: &FaultOverlay,
    ) -> Option<usize> {
        let simulator = Simulator::new(netlist).unwrap();
        let trace = simulator.run_stimulus(golden.stimulus(), overlay);
        golden.groups().first_voted_mismatch(golden.trace(), &trace)
    }

    /// Exhaustive per-overlay differential check of one word against the
    /// interpreter.
    fn check_word(netlist: &Netlist, cycles: usize, seed: u64, overlays: Vec<FaultOverlay>) {
        let golden = GoldenRun::compute(netlist, cycles, seed).unwrap();
        let compiled = CompiledNetlist::compile(netlist).unwrap();
        let packed = compiled.pack_golden(&golden);
        let refs: Vec<&FaultOverlay> = overlays.iter().collect();
        let got = compiled.run_word(&packed, &refs);
        for (lane, overlay) in overlays.iter().enumerate() {
            let expected = interpreter_outcome(netlist, &golden, overlay);
            assert_eq!(got[lane], expected, "lane {lane}: {overlay:?}");
        }
    }

    #[test]
    fn compiled_stream_shape() {
        let nl = sample();
        let compiled = CompiledNetlist::compile(&nl).unwrap();
        assert_eq!(compiled.op_count(), 2);
        assert_eq!(compiled.ff_count(), 1);
        assert_eq!(compiled.net_count(), nl.net_count());
        assert!(compiled.level_count() >= 2, "two chained LUTs, two levels");
    }

    #[test]
    fn combinational_loop_is_rejected() {
        let mut nl = Netlist::new("loop");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        nl.add_cell("u1", CellKind::Not, vec![y], x).unwrap();
        nl.add_cell("u2", CellKind::Not, vec![x], y).unwrap();
        nl.add_output("y", y);
        assert!(matches!(
            CompiledNetlist::compile(&nl),
            Err(SimError::CombinationalLoop { .. })
        ));
    }

    #[test]
    fn golden_pack_matches_interpreter_trace() {
        let nl = sample();
        let golden = GoldenRun::compute(&nl, 12, 7).unwrap();
        let compiled = CompiledNetlist::compile(&nl).unwrap();
        let packed = compiled.pack_golden(&golden);
        assert_eq!(packed.cycles(), 12);
    }

    #[test]
    fn lut_and_ff_and_open_overlays_match_interpreter() {
        let nl = sample();
        let and_cell = nl.find_cell("u_and").unwrap().0;
        let or_cell = nl.find_cell("u_or").unwrap().0;
        let ff_cell = nl.find_cell("u_ff").unwrap().0;
        let ab_net = nl.find_cell("u_and").unwrap().1.output;
        let overlays = vec![
            FaultOverlay {
                lut_overrides: vec![(and_cell, 0b0111)],
                ..FaultOverlay::none()
            },
            FaultOverlay {
                ff_init_overrides: vec![(ff_cell, true)],
                ..FaultOverlay::none()
            },
            FaultOverlay {
                opened_sinks: vec![SinkRef::CellPin {
                    cell: or_cell,
                    pin: 1,
                }],
                ..FaultOverlay::none()
            },
            FaultOverlay {
                corrupted_nets: vec![ab_net],
                ..FaultOverlay::none()
            },
            FaultOverlay::none(),
        ];
        check_word(&nl, 10, 3, overlays);
    }

    #[test]
    fn shorted_overlays_match_interpreter_in_full_mode() {
        let nl = sample();
        let a = nl
            .find_port("a", tmr_netlist::PortDir::Input)
            .unwrap()
            .1
            .net;
        let c = nl
            .find_port("c", tmr_netlist::PortDir::Input)
            .unwrap()
            .1
            .net;
        let y = nl.find_cell("u_or").unwrap().1.output;
        let overlays = vec![
            FaultOverlay {
                shorted_nets: vec![(a, c)],
                ..FaultOverlay::none()
            },
            // A feedback bridge (output shorted to an input) exercises the
            // multi-pass settling and poisoning path.
            FaultOverlay {
                shorted_nets: vec![(y, a)],
                ..FaultOverlay::none()
            },
            FaultOverlay::none(),
        ];
        check_word(&nl, 10, 3, overlays);
    }

    #[test]
    fn sixty_five_lane_words_are_rejected() {
        let nl = sample();
        let golden = GoldenRun::compute(&nl, 4, 1).unwrap();
        let compiled = CompiledNetlist::compile(&nl).unwrap();
        let packed = compiled.pack_golden(&golden);
        let overlay = FaultOverlay::none();
        let overlays: Vec<&FaultOverlay> = std::iter::repeat_n(&overlay, 65).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            compiled.run_word(&packed, &overlays)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn oversized_lane_batches_are_rejected() {
        let nl = sample();
        let golden = GoldenRun::compute(&nl, 4, 1).unwrap();
        let compiled = CompiledNetlist::compile(&nl).unwrap();
        let packed = compiled.pack_golden(&golden);
        let overlay = FaultOverlay::none();
        let overlays: Vec<&FaultOverlay> = std::iter::repeat_n(&overlay, MAX_LANES + 1).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut stats = SimStats::default();
            compiled.run_lanes(&packed, &overlays, &mut stats)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn full_word_of_64_lanes_runs() {
        let nl = sample();
        let and_cell = nl.find_cell("u_and").unwrap().0;
        let overlays: Vec<FaultOverlay> = (0..64)
            .map(|i| {
                if i % 2 == 0 {
                    FaultOverlay {
                        lut_overrides: vec![(and_cell, i as u64 & 0xf)],
                        ..FaultOverlay::none()
                    }
                } else {
                    FaultOverlay::none()
                }
            })
            .collect();
        check_word(&nl, 8, 11, overlays);
    }

    /// A wide (more than 64 lanes) batch evaluates on the `4×u64` word and
    /// agrees with the per-overlay interpreter outcomes and the narrow
    /// words' results.
    #[test]
    fn wide_word_batches_match_interpreter_and_narrow_words() {
        let nl = sample();
        let and_cell = nl.find_cell("u_and").unwrap().0;
        let ff_cell = nl.find_cell("u_ff").unwrap().0;
        let overlays: Vec<FaultOverlay> = (0..200)
            .map(|i| match i % 3 {
                0 => FaultOverlay {
                    lut_overrides: vec![(and_cell, i as u64 & 0xf)],
                    ..FaultOverlay::none()
                },
                1 => FaultOverlay {
                    ff_init_overrides: vec![(ff_cell, i % 2 == 0)],
                    ..FaultOverlay::none()
                },
                _ => FaultOverlay::none(),
            })
            .collect();
        let golden = GoldenRun::compute(&nl, 10, 3).unwrap();
        let compiled = CompiledNetlist::compile(&nl).unwrap();
        let packed = compiled.pack_golden(&golden);
        let refs: Vec<&FaultOverlay> = overlays.iter().collect();
        let mut stats = SimStats::default();
        let wide = compiled.run_lanes(&packed, &refs, &mut stats);
        assert_eq!(stats.words_wide, 1);
        assert_eq!(stats.words_narrow, 0);
        assert_eq!(stats.max_lanes_per_word, 200);
        assert_eq!(stats.lanes_simulated, 200);
        let narrow: Vec<Option<usize>> = refs
            .chunks(64)
            .flat_map(|chunk| compiled.run_word(&packed, chunk))
            .collect();
        assert_eq!(wide, narrow, "wide and narrow words must agree");
        for (lane, overlay) in overlays.iter().enumerate() {
            let expected = interpreter_outcome(&nl, &golden, overlay);
            assert_eq!(wide[lane], expected, "lane {lane}");
        }
    }

    /// The event-driven scheduler actually skips clean levels (the counters
    /// prove it) while staying bit-identical to the interpreter.
    #[test]
    fn event_driven_scheduling_skips_clean_levels() {
        // A 4-deep buffer chain after the faulted LUT gives the scheduler
        // levels to skip once a masked fault's effect dies out.
        let mut nl = Netlist::new("deep");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_net("g");
        nl.add_cell("u_and", CellKind::Lut { k: 2, init: 0b1000 }, vec![a, b], g)
            .unwrap();
        let mut prev = g;
        for i in 0..4 {
            let next = nl.add_net(format!("n{i}"));
            nl.add_cell(format!("u_buf{i}"), CellKind::Buf, vec![prev], next)
                .unwrap();
            prev = next;
        }
        nl.add_output("y", prev);
        let ff_q = nl.add_net("q");
        nl.add_cell("u_ff", CellKind::Dff { init: false }, vec![prev], ff_q)
            .unwrap();
        nl.add_output("q", ff_q);

        let and_cell = nl.find_cell("u_and").unwrap().0;
        // A masked fault: the override reproduces the original truth table,
        // so the faulted level re-evaluates every cycle but never diverges —
        // the four buffer levels downstream stay clean and skippable.
        let overlays = [FaultOverlay {
            lut_overrides: vec![(and_cell, 0b1000)],
            ..FaultOverlay::none()
        }];
        let golden = GoldenRun::compute(&nl, 12, 9).unwrap();
        let compiled = CompiledNetlist::compile(&nl).unwrap();
        let packed = compiled.pack_golden(&golden);
        let refs: Vec<&FaultOverlay> = overlays.iter().collect();
        let mut stats = SimStats::default();
        let got = compiled.run_lanes(&packed, &refs, &mut stats);
        for (lane, overlay) in overlays.iter().enumerate() {
            assert_eq!(got[lane], interpreter_outcome(&nl, &golden, overlay));
        }
        assert!(
            stats.levels_skipped > 0,
            "a masked fault must leave clean levels to skip: {stats}"
        );
    }

    /// Overlays perturbing the same cells/nets share a cone fingerprint;
    /// unrelated overlays do not collide on this design.
    #[test]
    fn cone_keys_group_by_root_net_set() {
        let nl = sample();
        let and_cell = nl.find_cell("u_and").unwrap().0;
        let or_cell = nl.find_cell("u_or").unwrap().0;
        let ab_net = nl.find_cell("u_and").unwrap().1.output;
        let compiled = CompiledNetlist::compile(&nl).unwrap();
        let lut_a = FaultOverlay {
            lut_overrides: vec![(and_cell, 0b0111)],
            ..FaultOverlay::none()
        };
        let lut_b = FaultOverlay {
            lut_overrides: vec![(and_cell, 0b0001)],
            ..FaultOverlay::none()
        };
        let lut_other = FaultOverlay {
            lut_overrides: vec![(or_cell, 0b0001)],
            ..FaultOverlay::none()
        };
        let corrupt = FaultOverlay {
            corrupted_nets: vec![ab_net],
            ..FaultOverlay::none()
        };
        assert_eq!(
            compiled.cone_key(&lut_a),
            compiled.cone_key(&lut_b),
            "different truth tables on one cell share the cone"
        );
        assert_ne!(compiled.cone_key(&lut_a), compiled.cone_key(&lut_other));
        assert_ne!(
            compiled.cone_key(&lut_a),
            compiled.cone_key(&corrupt),
            "a cell seed and a net seed on the same net differ (readers-only cone)"
        );
        assert_eq!(compiled.cone_key(&FaultOverlay::none()), {
            let empty = FaultOverlay::none();
            compiled.cone_key(&empty)
        });
    }

    #[test]
    fn stimulus_replay_is_exact_on_random_designs() {
        // A depth-3 random-ish LUT network with feedback registers.
        let mut nl = Netlist::new("rnd");
        let mut nets = vec![
            nl.add_input("a_0"),
            nl.add_input("b_0"),
            nl.add_input("c_0"),
        ];
        for layer in 0..3 {
            let mut next = Vec::new();
            for gate in 0..3 {
                let out = nl.add_net(format!("n{layer}_{gate}"));
                let init = (layer as u64 * 7 + gate as u64 * 13 + 5) & 0xffff;
                nl.add_cell(
                    format!("u{layer}_{gate}"),
                    CellKind::Lut { k: 3, init },
                    vec![nets[0], nets[1], nets[2]],
                    out,
                )
                .unwrap();
                next.push(out);
            }
            nets = next;
        }
        let q = nl.add_net("q");
        nl.add_cell("u_ff", CellKind::Dff { init: true }, vec![nets[0]], q)
            .unwrap();
        nl.add_output("y_0", nets[1]);
        nl.add_output("q_0", q);

        let ff = nl.find_cell("u_ff").unwrap().0;
        let u00 = nl.find_cell("u0_0").unwrap().0;
        let overlays = vec![
            FaultOverlay {
                lut_overrides: vec![(u00, 0x9a)],
                ff_init_overrides: vec![(ff, false)],
                ..FaultOverlay::none()
            },
            FaultOverlay {
                opened_sinks: vec![SinkRef::CellPin { cell: u00, pin: 2 }],
                ..FaultOverlay::none()
            },
        ];
        check_word(&nl, 16, 23, overlays);
    }

    #[test]
    fn packed_stimulus_matches_golden_run_replay() {
        let nl = sample();
        let stimulus = Stimulus::random(&nl, 6, 2);
        let golden = GoldenRun::compute(&nl, 6, 2).unwrap();
        assert_eq!(stimulus.vectors(), golden.stimulus().vectors());
    }
}
