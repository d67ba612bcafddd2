//! The word-level design graph.
//!
//! A [`Design`] is a dataflow graph of word-level (bus-level) operators:
//! inputs, constants, signed adders/subtractors, constant multipliers,
//! registers, majority voters and outputs. All buses carry signed
//! two's-complement values of a declared width (1..=32 bits).
//!
//! This is the level at which `tmr-core` applies the TMR transformation,
//! because voter-partitioning decisions ("vote after each adder", "vote after
//! each tap") are statements about word-level components, exactly as in
//! Fig. 4 of the paper.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use tmr_netlist::Domain;

/// Maximum supported bus width.
pub const MAX_WIDTH: u8 = 32;

/// Identifier of a [`WordSignal`] inside a [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignalId(u32);

impl SignalId {
    /// Creates a signal id from a dense index.
    pub fn from_index(index: usize) -> Self {
        Self(index as u32)
    }
    /// Returns the dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// Identifier of a [`WordNode`] inside a [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WordNodeId(u32);

impl WordNodeId {
    /// Creates a node id from a dense index.
    pub fn from_index(index: usize) -> Self {
        Self(index as u32)
    }
    /// Returns the dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for WordNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// A word-level operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WordOp {
    /// A top-level input bus.
    Input,
    /// A top-level output; `port` is the external port name. Output nodes
    /// consume one signal and drive nothing.
    Output {
        /// External port name.
        port: String,
    },
    /// A constant bus value (two's complement of the output width).
    Const {
        /// The constant value.
        value: i64,
    },
    /// Signed addition of two buses (inputs are sign-extended to the output
    /// width; the result wraps on overflow).
    Add,
    /// Signed subtraction `a - b`.
    Sub,
    /// Multiplication of one bus by a compile-time constant coefficient
    /// (the "dedicated multipliers" of the paper's FIR filter).
    MulConst {
        /// The constant coefficient.
        coefficient: i64,
    },
    /// A register (one pipeline stage on the implicit global clock).
    Register {
        /// Power-up value.
        init: i64,
    },
    /// A bitwise 2-of-3 majority voter over three equal-width buses — the TMR
    /// voter. Inserted by `tmr-core`, never by user designs directly.
    Voter,
}

impl WordOp {
    /// Number of input buses the operator consumes.
    pub fn input_count(&self) -> usize {
        match self {
            WordOp::Input | WordOp::Const { .. } => 0,
            WordOp::Output { .. } | WordOp::MulConst { .. } | WordOp::Register { .. } => 1,
            WordOp::Add | WordOp::Sub => 2,
            WordOp::Voter => 3,
        }
    }

    /// Returns `true` if the operator produces an output signal.
    pub fn has_output(&self) -> bool {
        !matches!(self, WordOp::Output { .. })
    }

    /// Short mnemonic for reports.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            WordOp::Input => "input",
            WordOp::Output { .. } => "output",
            WordOp::Const { .. } => "const",
            WordOp::Add => "add",
            WordOp::Sub => "sub",
            WordOp::MulConst { .. } => "mul",
            WordOp::Register { .. } => "reg",
            WordOp::Voter => "voter",
        }
    }
}

impl fmt::Display for WordOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WordOp::Const { value } => write!(f, "const({value})"),
            WordOp::MulConst { coefficient } => write!(f, "mul(x{coefficient})"),
            WordOp::Register { init } => write!(f, "reg(init={init})"),
            WordOp::Output { port } => write!(f, "output({port})"),
            other => f.write_str(other.mnemonic()),
        }
    }
}

/// A word-level bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WordSignal {
    /// Signal name.
    pub name: String,
    /// Bus width in bits (1..=32).
    pub width: u8,
    /// TMR domain of the signal.
    pub domain: Domain,
    /// The node driving this signal (`None` only during construction).
    pub driver: Option<WordNodeId>,
}

/// A word-level operator instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WordNode {
    /// Instance name.
    pub name: String,
    /// The operation.
    pub op: WordOp,
    /// TMR domain of the node.
    pub domain: Domain,
    /// Input signals in operator-defined order.
    pub inputs: Vec<SignalId>,
    /// Output signal, if the operator produces one.
    pub output: Option<SignalId>,
}

/// Errors produced while building a [`Design`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignError {
    /// Bus width outside 1..=32.
    BadWidth {
        /// Offending signal name.
        signal: String,
        /// Requested width.
        width: u8,
    },
    /// Wrong number of inputs for an operator.
    ArityMismatch {
        /// Offending node name.
        node: String,
        /// Expected input count.
        expected: usize,
        /// Provided input count.
        actual: usize,
    },
    /// A referenced signal id was out of range.
    UnknownSignal(SignalId),
    /// A referenced node id was out of range.
    UnknownNode(WordNodeId),
    /// Voter inputs (or register input/output) had mismatched widths.
    WidthMismatch {
        /// Offending node name.
        node: String,
        /// Details of the mismatch.
        detail: String,
    },
}

impl fmt::Display for DesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignError::BadWidth { signal, width } => {
                write!(f, "signal `{signal}` has unsupported width {width}")
            }
            DesignError::ArityMismatch {
                node,
                expected,
                actual,
            } => write!(
                f,
                "node `{node}` expects {expected} input(s) but {actual} were provided"
            ),
            DesignError::UnknownSignal(id) => write!(f, "unknown signal id {id}"),
            DesignError::UnknownNode(id) => write!(f, "unknown node id {id}"),
            DesignError::WidthMismatch { node, detail } => {
                write!(f, "width mismatch at node `{node}`: {detail}")
            }
        }
    }
}

impl Error for DesignError {}

/// Aggregate statistics of a word-level design.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DesignStats {
    /// Number of adder/subtractor nodes.
    pub adders: usize,
    /// Number of constant-multiplier nodes.
    pub multipliers: usize,
    /// Number of register nodes.
    pub registers: usize,
    /// Number of voter nodes.
    pub voters: usize,
    /// Number of input buses.
    pub inputs: usize,
    /// Number of output ports.
    pub outputs: usize,
    /// Total node count.
    pub nodes: usize,
}

/// A word-level dataflow design.
#[derive(Debug, Clone, Default)]
pub struct Design {
    name: String,
    signals: Vec<WordSignal>,
    nodes: Vec<WordNode>,
}

impl Design {
    /// Creates an empty design.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    // ------------------------------------------------------------------
    // General construction (used by the TMR transformation)
    // ------------------------------------------------------------------

    /// Adds a node with an explicit domain, creating its output signal
    /// (`output_width` must be `Some` for operators that produce a value).
    ///
    /// This is the general constructor used by `tmr-core` when rebuilding a
    /// triplicated copy of a design; user code normally uses the typed
    /// helpers ([`Design::add_add`], [`Design::add_register`], …).
    ///
    /// # Errors
    ///
    /// Returns an error if the arity or widths are inconsistent.
    pub fn add_node_in_domain(
        &mut self,
        name: impl Into<String>,
        op: WordOp,
        inputs: Vec<SignalId>,
        output_width: Option<u8>,
        domain: Domain,
    ) -> Result<(WordNodeId, Option<SignalId>), DesignError> {
        let name = name.into();
        if inputs.len() != op.input_count() {
            return Err(DesignError::ArityMismatch {
                node: name,
                expected: op.input_count(),
                actual: inputs.len(),
            });
        }
        for &sig in &inputs {
            if sig.index() >= self.signals.len() {
                return Err(DesignError::UnknownSignal(sig));
            }
        }
        // Width rules.
        match &op {
            WordOp::Register { .. } => {
                let w_in = self.signals[inputs[0].index()].width;
                if let Some(w_out) = output_width {
                    if w_out != w_in {
                        return Err(DesignError::WidthMismatch {
                            node: name,
                            detail: format!("register output width {w_out} != input width {w_in}"),
                        });
                    }
                }
            }
            WordOp::Voter => {
                let w0 = self.signals[inputs[0].index()].width;
                for &sig in &inputs[1..] {
                    let w = self.signals[sig.index()].width;
                    if w != w0 {
                        return Err(DesignError::WidthMismatch {
                            node: name,
                            detail: format!("voter input widths differ ({w0} vs {w})"),
                        });
                    }
                }
            }
            _ => {}
        }

        let output = if op.has_output() {
            let width = match (&op, output_width) {
                (WordOp::Register { .. }, None) => self.signals[inputs[0].index()].width,
                (WordOp::Voter, None) => self.signals[inputs[0].index()].width,
                (_, Some(w)) => w,
                (_, None) => {
                    return Err(DesignError::WidthMismatch {
                        node: name,
                        detail: "operator requires an explicit output width".to_string(),
                    })
                }
            };
            if width == 0 || width > MAX_WIDTH {
                return Err(DesignError::BadWidth {
                    signal: name.clone(),
                    width,
                });
            }
            Some(self.push_signal(name.clone(), width, domain))
        } else {
            None
        };

        let id = WordNodeId::from_index(self.nodes.len());
        self.nodes.push(WordNode {
            name,
            op,
            domain,
            inputs,
            output,
        });
        if let Some(sig) = output {
            self.signals[sig.index()].driver = Some(id);
        }
        Ok((id, output))
    }

    /// Replaces input pin `pin` of `node` with `signal`.
    ///
    /// This is how registered feedback loops are closed: create the register
    /// with a placeholder input, build the logic that reads the register
    /// output, then patch the register input to the real signal.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::UnknownSignal`] for out-of-range ids,
    /// [`DesignError::ArityMismatch`] if `pin` is not a valid input pin, and
    /// [`DesignError::WidthMismatch`] if the new signal's width differs from
    /// the one being replaced.
    pub fn replace_input(
        &mut self,
        node: WordNodeId,
        pin: usize,
        signal: SignalId,
    ) -> Result<(), DesignError> {
        if signal.index() >= self.signals.len() {
            return Err(DesignError::UnknownSignal(signal));
        }
        let node_ref = self
            .nodes
            .get(node.index())
            .ok_or(DesignError::UnknownNode(node))?;
        let old = match node_ref.inputs.get(pin) {
            Some(&s) => s,
            None => {
                return Err(DesignError::ArityMismatch {
                    node: node_ref.name.clone(),
                    expected: node_ref.op.input_count(),
                    actual: pin + 1,
                })
            }
        };
        let old_width = self.signals[old.index()].width;
        let new_width = self.signals[signal.index()].width;
        if old_width != new_width {
            return Err(DesignError::WidthMismatch {
                node: node_ref.name.clone(),
                detail: format!("replacement width {new_width} != original width {old_width}"),
            });
        }
        self.nodes[node.index()].inputs[pin] = signal;
        Ok(())
    }

    fn push_signal(&mut self, name: String, width: u8, domain: Domain) -> SignalId {
        let id = SignalId::from_index(self.signals.len());
        self.signals.push(WordSignal {
            name,
            width,
            domain,
            driver: None,
        });
        id
    }

    // ------------------------------------------------------------------
    // Typed helpers
    // ------------------------------------------------------------------

    /// Adds a top-level input bus.
    ///
    /// # Panics
    ///
    /// Panics if the width is outside 1..=32.
    pub fn add_input(&mut self, name: impl Into<String>, width: u8) -> SignalId {
        self.add_input_in_domain(name, width, Domain::None)
    }

    /// Adds a top-level input bus in a TMR domain.
    ///
    /// # Panics
    ///
    /// Panics if the width is outside 1..=32.
    pub fn add_input_in_domain(
        &mut self,
        name: impl Into<String>,
        width: u8,
        domain: Domain,
    ) -> SignalId {
        self.add_node_in_domain(name, WordOp::Input, vec![], Some(width), domain)
            .expect("input construction cannot fail for valid widths")
            .1
            .expect("inputs produce a signal")
    }

    /// Adds a top-level output port reading `signal`.
    pub fn add_output(&mut self, port: impl Into<String>, signal: SignalId) -> WordNodeId {
        self.add_output_in_domain(port, signal, Domain::None)
    }

    /// Adds a top-level output port in a TMR domain.
    pub fn add_output_in_domain(
        &mut self,
        port: impl Into<String>,
        signal: SignalId,
        domain: Domain,
    ) -> WordNodeId {
        let port = port.into();
        self.add_node_in_domain(
            format!("out_{port}"),
            WordOp::Output { port },
            vec![signal],
            None,
            domain,
        )
        .expect("output construction cannot fail for valid signals")
        .0
    }

    /// Adds a constant bus.
    ///
    /// # Panics
    ///
    /// Panics if the width is outside 1..=32.
    pub fn add_const(&mut self, name: impl Into<String>, value: i64, width: u8) -> SignalId {
        self.add_node_in_domain(
            name,
            WordOp::Const { value },
            vec![],
            Some(width),
            Domain::None,
        )
        .expect("constant construction cannot fail for valid widths")
        .1
        .expect("constants produce a signal")
    }

    /// Adds a signed adder `a + b` with the given output width.
    ///
    /// # Panics
    ///
    /// Panics if the width is outside 1..=32 or a signal id is unknown.
    pub fn add_add(
        &mut self,
        name: impl Into<String>,
        a: SignalId,
        b: SignalId,
        width: u8,
    ) -> SignalId {
        self.add_node_in_domain(name, WordOp::Add, vec![a, b], Some(width), Domain::None)
            .expect("adder construction failed")
            .1
            .expect("adders produce a signal")
    }

    /// Adds a signed subtractor `a - b` with the given output width.
    ///
    /// # Panics
    ///
    /// Panics if the width is outside 1..=32 or a signal id is unknown.
    pub fn add_sub(
        &mut self,
        name: impl Into<String>,
        a: SignalId,
        b: SignalId,
        width: u8,
    ) -> SignalId {
        self.add_node_in_domain(name, WordOp::Sub, vec![a, b], Some(width), Domain::None)
            .expect("subtractor construction failed")
            .1
            .expect("subtractors produce a signal")
    }

    /// Adds a constant multiplier `a * coefficient` with the given output width.
    ///
    /// # Panics
    ///
    /// Panics if the width is outside 1..=32 or the signal id is unknown.
    pub fn add_mul_const(
        &mut self,
        name: impl Into<String>,
        a: SignalId,
        coefficient: i64,
        width: u8,
    ) -> SignalId {
        self.add_node_in_domain(
            name,
            WordOp::MulConst { coefficient },
            vec![a],
            Some(width),
            Domain::None,
        )
        .expect("multiplier construction failed")
        .1
        .expect("multipliers produce a signal")
    }

    /// Adds a register with power-up value 0.
    ///
    /// # Panics
    ///
    /// Panics if the signal id is unknown.
    pub fn add_register(&mut self, name: impl Into<String>, input: SignalId) -> SignalId {
        self.add_node_in_domain(
            name,
            WordOp::Register { init: 0 },
            vec![input],
            None,
            Domain::None,
        )
        .expect("register construction failed")
        .1
        .expect("registers produce a signal")
    }

    /// Adds a bitwise majority voter over three equal-width buses.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ or a signal id is unknown.
    pub fn add_voter(
        &mut self,
        name: impl Into<String>,
        a: SignalId,
        b: SignalId,
        c: SignalId,
    ) -> SignalId {
        self.add_node_in_domain(name, WordOp::Voter, vec![a, b, c], None, Domain::Voter)
            .expect("voter construction failed")
            .1
            .expect("voters produce a signal")
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The signal with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn signal(&self, id: SignalId) -> &WordSignal {
        &self.signals[id.index()]
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: WordNodeId) -> &WordNode {
        &self.nodes[id.index()]
    }

    /// Iterates over all signals.
    pub fn signals(&self) -> impl Iterator<Item = (SignalId, &WordSignal)> {
        self.signals
            .iter()
            .enumerate()
            .map(|(i, s)| (SignalId::from_index(i), s))
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (WordNodeId, &WordNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (WordNodeId::from_index(i), n))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of signals.
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// The input nodes, in creation order.
    pub fn inputs(&self) -> Vec<(WordNodeId, SignalId)> {
        self.nodes()
            .filter(|(_, n)| matches!(n.op, WordOp::Input))
            .map(|(id, n)| (id, n.output.expect("inputs have an output signal")))
            .collect()
    }

    /// The output nodes with their external port names, in creation order.
    pub fn outputs(&self) -> Vec<(WordNodeId, String, SignalId)> {
        self.nodes()
            .filter_map(|(id, n)| match &n.op {
                WordOp::Output { port } => Some((id, port.clone(), n.inputs[0])),
                _ => None,
            })
            .collect()
    }

    /// Computes aggregate statistics.
    pub fn stats(&self) -> DesignStats {
        let mut stats = DesignStats {
            nodes: self.node_count(),
            ..DesignStats::default()
        };
        for (_, node) in self.nodes() {
            match node.op {
                WordOp::Add | WordOp::Sub => stats.adders += 1,
                WordOp::MulConst { .. } => stats.multipliers += 1,
                WordOp::Register { .. } => stats.registers += 1,
                WordOp::Voter => stats.voters += 1,
                WordOp::Input => stats.inputs += 1,
                WordOp::Output { .. } => stats.outputs += 1,
                WordOp::Const { .. } => {}
            }
        }
        stats
    }

    // ------------------------------------------------------------------
    // Behavioural evaluation (reference model)
    // ------------------------------------------------------------------

    /// Runs the design for `inputs.len()` clock cycles and returns, for each
    /// cycle, the value of every output port *before* the clock edge of that
    /// cycle (combinational settle, then clock).
    ///
    /// `inputs[cycle]` maps input-node *signal names* to signed values; any
    /// missing input reads 0. Values are truncated to the bus width and
    /// interpreted as two's complement.
    ///
    /// This is the bit-true reference model against which the gate-level and
    /// FPGA-level simulations are checked.
    pub fn evaluate(&self, inputs: &[HashMap<String, i64>]) -> Vec<HashMap<String, i64>> {
        let mut register_state: HashMap<WordNodeId, i64> = self
            .nodes()
            .filter_map(|(id, n)| match n.op {
                WordOp::Register { init } => {
                    let width = self
                        .signal(n.output.expect("registers drive a signal"))
                        .width;
                    Some((id, truncate(init, width)))
                }
                _ => None,
            })
            .collect();

        let order = self.topological_order();
        let mut results = Vec::with_capacity(inputs.len());

        for cycle_inputs in inputs {
            let mut values: Vec<i64> = vec![0; self.signals.len()];
            // Registers drive their current state.
            for (&node, &state) in &register_state {
                if let Some(sig) = self.node(node).output {
                    values[sig.index()] = state;
                }
            }
            // Combinational settle in topological order.
            for &node_id in &order {
                let node = self.node(node_id);
                let out_sig = match node.output {
                    Some(s) => s,
                    None => continue,
                };
                let width = self.signal(out_sig).width;
                let value = match &node.op {
                    WordOp::Input => {
                        let name = &self.signal(out_sig).name;
                        truncate(cycle_inputs.get(name).copied().unwrap_or(0), width)
                    }
                    WordOp::Const { value } => truncate(*value, width),
                    WordOp::Add => truncate(
                        values[node.inputs[0].index()] + values[node.inputs[1].index()],
                        width,
                    ),
                    WordOp::Sub => truncate(
                        values[node.inputs[0].index()] - values[node.inputs[1].index()],
                        width,
                    ),
                    WordOp::MulConst { coefficient } => {
                        truncate(values[node.inputs[0].index()] * coefficient, width)
                    }
                    WordOp::Voter => {
                        let a = values[node.inputs[0].index()];
                        let b = values[node.inputs[1].index()];
                        let c = values[node.inputs[2].index()];
                        truncate((a & b) | (a & c) | (b & c), width)
                    }
                    WordOp::Register { .. } => continue, // already driven from state
                    WordOp::Output { .. } => unreachable!("outputs have no output signal"),
                };
                values[out_sig.index()] = value;
            }

            // Sample outputs.
            let mut out = HashMap::new();
            for (_, port, sig) in self.outputs() {
                out.insert(port, values[sig.index()]);
            }
            results.push(out);

            // Clock edge: registers capture their inputs.
            for (node, state) in register_state.iter_mut() {
                let n = self.node(*node);
                let width = self
                    .signal(n.output.expect("registers drive a signal"))
                    .width;
                *state = truncate(values[n.inputs[0].index()], width);
            }
        }
        results
    }

    /// Sets the TMR domain of a signal (used by the TMR transformation to tag
    /// voted signals with the domain of the logic they feed).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn set_signal_domain(&mut self, signal: SignalId, domain: Domain) {
        self.signals[signal.index()].domain = domain;
    }

    /// Topological order of the non-register nodes (register outputs act as
    /// sources, so registered feedback loops do not create cycles).
    pub fn topological_order(&self) -> Vec<WordNodeId> {
        let mut indegree = vec![0usize; self.nodes.len()];
        for (id, node) in self.nodes() {
            if matches!(node.op, WordOp::Register { .. }) {
                continue;
            }
            indegree[id.index()] = node
                .inputs
                .iter()
                .filter(|&&sig| {
                    self.signal(sig)
                        .driver
                        .map(|d| !matches!(self.node(d).op, WordOp::Register { .. }))
                        .unwrap_or(false)
                })
                .count();
        }

        let mut queue: Vec<WordNodeId> = self
            .nodes()
            .filter(|(id, n)| !matches!(n.op, WordOp::Register { .. }) && indegree[id.index()] == 0)
            .map(|(id, _)| id)
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        // Consumers of each signal.
        let mut consumers: Vec<Vec<WordNodeId>> = vec![Vec::new(); self.signals.len()];
        for (id, node) in self.nodes() {
            for &sig in &node.inputs {
                consumers[sig.index()].push(id);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let id = queue[head];
            head += 1;
            order.push(id);
            if let Some(out) = self.node(id).output {
                for &consumer in &consumers[out.index()] {
                    let c = self.node(consumer);
                    if matches!(c.op, WordOp::Register { .. }) {
                        continue;
                    }
                    indegree[consumer.index()] -= 1;
                    if indegree[consumer.index()] == 0 {
                        queue.push(consumer);
                    }
                }
            }
        }
        order
    }
}

impl fmt::Display for Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        write!(
            f,
            "design `{}`: {} adders, {} multipliers, {} registers, {} voters, {} inputs, {} outputs",
            self.name,
            stats.adders,
            stats.multipliers,
            stats.registers,
            stats.voters,
            stats.inputs,
            stats.outputs
        )
    }
}

/// Truncates a value to `width` bits and sign-extends back to i64.
pub(crate) fn truncate(value: i64, width: u8) -> i64 {
    debug_assert!((1..=MAX_WIDTH).contains(&width));
    let shift = 64 - u32::from(width);
    (value << shift) >> shift
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncate_wraps_two_complement() {
        assert_eq!(truncate(5, 4), 5);
        assert_eq!(truncate(8, 4), -8);
        assert_eq!(truncate(-1, 4), -1);
        assert_eq!(truncate(255, 8), -1);
        assert_eq!(truncate(-129, 8), 127);
    }

    #[test]
    fn builds_and_reports_stats() {
        let mut d = Design::new("t");
        let a = d.add_input("a", 8);
        let b = d.add_input("b", 8);
        let s = d.add_add("s", a, b, 9);
        let m = d.add_mul_const("m", s, 3, 12);
        let q = d.add_register("q", m);
        d.add_output("y", q);
        let stats = d.stats();
        assert_eq!(stats.adders, 1);
        assert_eq!(stats.multipliers, 1);
        assert_eq!(stats.registers, 1);
        assert_eq!(stats.inputs, 2);
        assert_eq!(stats.outputs, 1);
        assert_eq!(d.signal(q).width, 12);
        assert!(d.to_string().contains("1 adders"));
    }

    #[test]
    fn voter_width_mismatch_is_rejected() {
        let mut d = Design::new("t");
        let a = d.add_input("a", 8);
        let b = d.add_input("b", 8);
        let c = d.add_input("c", 9);
        let err = d
            .add_node_in_domain("v", WordOp::Voter, vec![a, b, c], None, Domain::Voter)
            .unwrap_err();
        assert!(matches!(err, DesignError::WidthMismatch { .. }));
    }

    #[test]
    fn arity_is_checked() {
        let mut d = Design::new("t");
        let a = d.add_input("a", 8);
        let err = d
            .add_node_in_domain("bad", WordOp::Add, vec![a], Some(9), Domain::None)
            .unwrap_err();
        assert!(matches!(err, DesignError::ArityMismatch { .. }));
    }

    #[test]
    fn width_limits_are_enforced() {
        let mut d = Design::new("t");
        let err = d
            .add_node_in_domain("wide", WordOp::Input, vec![], Some(64), Domain::None)
            .unwrap_err();
        assert!(matches!(err, DesignError::BadWidth { .. }));
    }

    #[test]
    fn evaluate_combinational_pipeline() {
        // y = reg(a * 3 + b), 12-bit
        let mut d = Design::new("mac");
        let a = d.add_input("a", 8);
        let b = d.add_input("b", 8);
        let m = d.add_mul_const("m", a, 3, 12);
        let s = d.add_add("s", m, b, 12);
        let q = d.add_register("q", s);
        d.add_output("y", q);

        let mk = |a: i64, b: i64| {
            let mut h = HashMap::new();
            h.insert("a".to_string(), a);
            h.insert("b".to_string(), b);
            h
        };
        let out = d.evaluate(&[mk(5, 1), mk(-4, 2), mk(0, 0)]);
        // Cycle 0: register still holds init (0).
        assert_eq!(out[0]["y"], 0);
        // Cycle 1: sees 5*3+1 = 16.
        assert_eq!(out[1]["y"], 16);
        // Cycle 2: sees -4*3+2 = -10.
        assert_eq!(out[2]["y"], -10);
    }

    #[test]
    fn evaluate_voter_masks_one_bad_input() {
        let mut d = Design::new("vote");
        let a = d.add_input("a", 4);
        let b = d.add_input("b", 4);
        let c = d.add_input("c", 4);
        let v = d.add_voter("v", a, b, c);
        d.add_output("y", v);
        let mut h = HashMap::new();
        h.insert("a".to_string(), 7);
        h.insert("b".to_string(), 7);
        h.insert("c".to_string(), 1);
        let out = d.evaluate(&[h]);
        assert_eq!(out[0]["y"], 7);
    }

    #[test]
    fn outputs_and_inputs_listing() {
        let mut d = Design::new("io");
        let a = d.add_input("a", 4);
        d.add_output("y", a);
        assert_eq!(d.inputs().len(), 1);
        let outs = d.outputs();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].1, "y");
    }
}
