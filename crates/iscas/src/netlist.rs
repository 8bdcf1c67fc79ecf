//! Gate-level netlists and the ISCAS-89 `.bench` format parser.

use std::collections::HashMap;
use std::fmt;

/// Gate function in a gate-level netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Logical AND (any fan-in ≥ 2).
    And,
    /// Logical NAND.
    Nand,
    /// Logical OR.
    Or,
    /// Logical NOR.
    Nor,
    /// Inverter (fan-in 1).
    Not,
    /// Buffer (fan-in 1).
    Buff,
    /// D flip-flop (fan-in 1) — the latch boundary of timing analysis.
    Dff,
}

impl GateKind {
    fn parse(s: &str) -> Option<GateKind> {
        match s.to_ascii_uppercase().as_str() {
            "AND" => Some(GateKind::And),
            "NAND" => Some(GateKind::Nand),
            "OR" => Some(GateKind::Or),
            "NOR" => Some(GateKind::Nor),
            "NOT" | "INV" => Some(GateKind::Not),
            "BUF" | "BUFF" => Some(GateKind::Buff),
            "DFF" => Some(GateKind::Dff),
            _ => None,
        }
    }

    /// `true` for the sequential element.
    pub fn is_dff(self) -> bool {
        self == GateKind::Dff
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Not => "NOT",
            GateKind::Buff => "BUFF",
            GateKind::Dff => "DFF",
        };
        write!(f, "{s}")
    }
}

/// One gate instance: `output = kind(inputs…)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// Output signal name (also the gate's name).
    pub output: String,
    /// Gate function.
    pub kind: GateKind,
    /// Input signal names.
    pub inputs: Vec<String>,
}

/// A gate-level netlist in the ISCAS-89 sense.
#[derive(Debug, Clone, Default)]
pub struct GateNetlist {
    /// Circuit name.
    pub name: String,
    /// Primary inputs.
    pub inputs: Vec<String>,
    /// Primary outputs.
    pub outputs: Vec<String>,
    /// All gates including DFFs, in file order.
    pub gates: Vec<Gate>,
    by_output: HashMap<String, usize>,
}

impl GateNetlist {
    /// Builds the netlist and its output index.
    pub fn new(name: &str, inputs: Vec<String>, outputs: Vec<String>, gates: Vec<Gate>) -> Self {
        let by_output = gates
            .iter()
            .enumerate()
            .map(|(i, g)| (g.output.clone(), i))
            .collect();
        GateNetlist {
            name: name.to_string(),
            inputs,
            outputs,
            gates,
            by_output,
        }
    }

    /// The gate driving a signal, if any (primary inputs have none).
    pub fn driver(&self, signal: &str) -> Option<&Gate> {
        self.by_output.get(signal).map(|&i| &self.gates[i])
    }

    /// Number of combinational gates (excluding DFFs).
    pub fn combinational_count(&self) -> usize {
        self.gates.iter().filter(|g| !g.kind.is_dff()).count()
    }

    /// Number of DFFs.
    pub fn dff_count(&self) -> usize {
        self.gates.iter().filter(|g| g.kind.is_dff()).count()
    }

    /// Signals that act as combinational *sources*: primary inputs and DFF
    /// outputs.
    pub fn timing_sources(&self) -> Vec<String> {
        let mut out = self.inputs.clone();
        for g in &self.gates {
            if g.kind.is_dff() {
                out.push(g.output.clone());
            }
        }
        out
    }

    /// Signals that act as combinational *sinks*: primary outputs and DFF
    /// inputs.
    pub fn timing_sinks(&self) -> Vec<String> {
        let mut out = self.outputs.clone();
        for g in &self.gates {
            if g.kind.is_dff() {
                out.extend(g.inputs.iter().cloned());
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

/// Parses an ISCAS-89 `.bench` description.
///
/// # Errors
///
/// Returns a message naming the first malformed line, including a signal
/// driven by two gates and a gate driving a primary input.
///
/// # Example
///
/// ```
/// let nl = linvar_iscas::parse_bench("demo", "\
/// INPUT(a)
/// OUTPUT(y)
/// y = NAND(a, a)
/// ").map_err(|e| e.to_string())?;
/// assert_eq!(nl.gates.len(), 1);
/// # Ok::<(), String>(())
/// ```
pub fn parse_bench(name: &str, text: &str) -> Result<GateNetlist, String> {
    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    let mut gates = Vec::new();
    // Line of the gate driving each signal, to reject a second driver.
    let mut driven_at: HashMap<String, usize> = HashMap::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |msg: &str| format!("{name}.bench line {}: {msg}", lineno + 1);
        if let Some(rest) = line.strip_prefix("INPUT(") {
            let sig = rest.strip_suffix(')').ok_or_else(|| err("missing )"))?;
            let sig = sig.trim().to_string();
            if let Some(at) = driven_at.get(&sig) {
                return Err(err(&format!(
                    "primary input {sig} is driven by the gate on line {at}"
                )));
            }
            inputs.push(sig);
        } else if let Some(rest) = line.strip_prefix("OUTPUT(") {
            let sig = rest.strip_suffix(')').ok_or_else(|| err("missing )"))?;
            outputs.push(sig.trim().to_string());
        } else if let Some((lhs, rhs)) = line.split_once('=') {
            let output = lhs.trim().to_string();
            let rhs = rhs.trim();
            let open = rhs.find('(').ok_or_else(|| err("missing ("))?;
            let kind = GateKind::parse(rhs[..open].trim())
                .ok_or_else(|| err(&format!("unknown gate kind {}", &rhs[..open])))?;
            let body = rhs[open + 1..]
                .strip_suffix(')')
                .ok_or_else(|| err("missing )"))?;
            let ins: Vec<String> = body
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            if ins.is_empty() {
                return Err(err("gate with no inputs"));
            }
            let expected_single = matches!(kind, GateKind::Not | GateKind::Buff | GateKind::Dff);
            if expected_single && ins.len() != 1 {
                return Err(err("single-input gate with multiple inputs"));
            }
            if !expected_single && ins.len() < 2 {
                return Err(err("multi-input gate with one input"));
            }
            if inputs.contains(&output) {
                return Err(err(&format!("gate drives primary input {output}")));
            }
            if let Some(at) = driven_at.insert(output.clone(), lineno + 1) {
                return Err(err(&format!(
                    "signal {output} is already driven by the gate on line {at}"
                )));
            }
            gates.push(Gate {
                output,
                kind,
                inputs: ins,
            });
        } else {
            return Err(err("unrecognized line"));
        }
    }
    Ok(GateNetlist::new(name, inputs, outputs, gates))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = "\
# comment
INPUT(a)
INPUT(b)
OUTPUT(y)
q = DFF(d)
n1 = NAND(a, q)
d = NOR(n1, b)
y = NOT(d)
";

    #[test]
    fn parse_small_bench() {
        let nl = parse_bench("small", SMALL).unwrap();
        assert_eq!(nl.inputs, vec!["a", "b"]);
        assert_eq!(nl.outputs, vec!["y"]);
        assert_eq!(nl.gates.len(), 4);
        assert_eq!(nl.dff_count(), 1);
        assert_eq!(nl.combinational_count(), 3);
        let d = nl.driver("d").unwrap();
        assert_eq!(d.kind, GateKind::Nor);
        assert!(nl.driver("a").is_none(), "primary inputs have no driver");
    }

    #[test]
    fn timing_sources_and_sinks() {
        let nl = parse_bench("small", SMALL).unwrap();
        let sources = nl.timing_sources();
        assert!(sources.contains(&"a".to_string()));
        assert!(sources.contains(&"q".to_string()), "dff output is a source");
        let sinks = nl.timing_sinks();
        assert!(sinks.contains(&"y".to_string()));
        assert!(sinks.contains(&"d".to_string()), "dff input is a sink");
    }

    #[test]
    fn parse_errors_name_lines() {
        assert!(parse_bench("x", "junk line")
            .unwrap_err()
            .contains("line 1"));
        assert!(parse_bench("x", "y = XYZ(a, b)")
            .unwrap_err()
            .contains("unknown gate"));
        assert!(parse_bench("x", "y = NOT(a, b)")
            .unwrap_err()
            .contains("single-input"));
        assert!(parse_bench("x", "y = NAND(a)")
            .unwrap_err()
            .contains("multi-input"));
        assert!(parse_bench("x", "INPUT(a").is_err());
    }

    #[test]
    fn a_signal_with_two_drivers_is_a_line_numbered_error() {
        let text = "INPUT(a)\nINPUT(b)\ny = NAND(a, b)\n# again\ny = NOR(a, b)\n";
        let e = parse_bench("x", text).unwrap_err();
        assert!(e.contains("line 5"), "{e}");
        assert!(e.contains("already driven by the gate on line 3"), "{e}");
    }

    #[test]
    fn a_gate_driving_a_primary_input_is_a_line_numbered_error() {
        // Input declared first: the gate's line is at fault.
        let e = parse_bench("x", "INPUT(a)\nINPUT(b)\na = NOT(b)\n").unwrap_err();
        assert!(e.contains("line 3"), "{e}");
        assert!(e.contains("drives primary input a"), "{e}");
        // Gate first: the declaration that collides with it is.
        let e = parse_bench("x", "INPUT(b)\na = NOT(b)\nINPUT(a)\n").unwrap_err();
        assert!(e.contains("line 3"), "{e}");
        assert!(e.contains("driven by the gate on line 2"), "{e}");
        // A DFF counts as a driver too.
        assert!(parse_bench("x", "INPUT(d)\nd = DFF(d)\n").is_err());
    }

    #[test]
    fn gate_kind_display_roundtrip() {
        for k in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Not,
            GateKind::Buff,
            GateKind::Dff,
        ] {
            assert_eq!(GateKind::parse(&k.to_string()), Some(k));
        }
    }
}
