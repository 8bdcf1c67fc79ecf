//! A small SPICE-like deck parser for linear RC decks.
//!
//! Supported cards (case-insensitive first letter selects the element):
//!
//! ```text
//! * comment
//! R<name> <node+> <node-> <ohms>
//! C<name> <node+> <node-> <farads>
//! L<name> <node+> <node-> <henries>
//! V<name> <node+> <node-> DC <volts>
//! V<name> <node+> <node-> RAMP <v0> <v1> <t0> <tr>
//! I<name> <node+> <node-> DC <amps>
//! .port <node> [<node> ...]
//! .param <name>
//! ```
//!
//! Values accept SPICE engineering suffixes (`f p n u m k meg g`) and must
//! be finite; a RAMP's rise time `tr` must be positive. Element values may
//! carry variational terms: `R1 a b 10 p=50` declares `R = 10 + 50·p` for a
//! previously declared `.param p`.

use crate::element::SourceWaveform;
use crate::error::CircuitError;
use crate::netlist::Netlist;
use crate::variation::VariationalValue;

/// Parses a SPICE-like deck into a [`Netlist`].
///
/// # Errors
///
/// Returns [`CircuitError::ParseError`] with the 1-based line number of the
/// first malformed card (including a non-finite value or a RAMP rise time
/// that is not positive), or the underlying netlist-construction error.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), linvar_circuit::CircuitError> {
/// let deck = "\
/// * simple rc
/// .param p
/// R1 in out 10 p=50
/// C1 out 0 2p
/// .port out
/// ";
/// let nl = linvar_circuit::parse_deck(deck)?;
/// assert_eq!(nl.elements().len(), 2);
/// assert_eq!(nl.ports().len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse_deck(deck: &str) -> Result<Netlist, CircuitError> {
    let mut nl = Netlist::new();
    for (lineno, raw) in deck.lines().enumerate() {
        let line = raw.trim();
        let lineno = lineno + 1;
        if line.is_empty() || line.starts_with('*') {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let head = tokens[0];
        let err = |message: String| CircuitError::ParseError {
            line: lineno,
            message,
        };
        // Every numeric field must be a finite number: `1e999` overflows
        // to infinity and would poison the whole simulation.
        let number = |token: &str, what: &str| match parse_value(token) {
            Some(v) if v.is_finite() => Ok(v),
            Some(_) => Err(err(format!("{what} {token} is not finite"))),
            None => Err(err(format!("bad {what} {token}"))),
        };
        if head.starts_with('.') {
            match head.to_ascii_lowercase().as_str() {
                ".param" => {
                    for name in &tokens[1..] {
                        nl.params.declare(name);
                    }
                }
                ".port" => {
                    for name in &tokens[1..] {
                        let node = nl.node(name);
                        nl.mark_port(node)
                            .map_err(|e| err(format!("bad port {name}: {e}")))?;
                    }
                }
                other => return Err(err(format!("unknown directive {other}"))),
            }
            continue;
        }
        let kind = head.chars().next().unwrap_or(' ').to_ascii_uppercase();
        match kind {
            'R' | 'C' | 'L' => {
                if tokens.len() < 4 {
                    return Err(err("expected: <name> <n+> <n-> <value>".into()));
                }
                let a = nl.node(tokens[1]);
                let b = nl.node(tokens[2]);
                let nominal = number(tokens[3], "value")?;
                let mut value = VariationalValue::new(nominal);
                for extra in &tokens[4..] {
                    let (pname, sens) = extra
                        .split_once('=')
                        .ok_or_else(|| err(format!("bad variational term {extra}")))?;
                    let pidx = nl
                        .params
                        .index_of(pname)
                        .ok_or_else(|| err(format!("undeclared parameter {pname}")))?;
                    value = value.with_sensitivity(pidx, number(sens, "sensitivity")?);
                }
                let res = match kind {
                    'R' => nl.add_variational_resistor(head, a, b, value),
                    'C' => nl.add_variational_capacitor(head, a, b, value),
                    _ => nl.add_variational_inductor(head, a, b, value),
                };
                res.map_err(|e| err(e.to_string()))?;
            }
            'V' | 'I' => {
                if tokens.len() < 5 {
                    return Err(err("expected: <name> <n+> <n-> DC|RAMP <args>".into()));
                }
                let pos = nl.node(tokens[1]);
                let neg = nl.node(tokens[2]);
                let waveform = match tokens[3].to_ascii_uppercase().as_str() {
                    "DC" => SourceWaveform::Dc(number(tokens[4], "value")?),
                    "RAMP" => {
                        if tokens.len() < 8 {
                            return Err(err("RAMP needs <v0> <v1> <t0> <tr>".into()));
                        }
                        let vals: Vec<f64> = tokens[4..8]
                            .iter()
                            .map(|t| number(t, "RAMP argument"))
                            .collect::<Result<_, _>>()?;
                        if vals[3] <= 0.0 {
                            return Err(err(format!(
                                "RAMP rise time {} must be positive",
                                tokens[7]
                            )));
                        }
                        SourceWaveform::Ramp {
                            v0: vals[0],
                            v1: vals[1],
                            t0: vals[2],
                            tr: vals[3],
                        }
                    }
                    other => return Err(err(format!("unknown source kind {other}"))),
                };
                let res = if kind == 'V' {
                    nl.add_vsource(head, pos, neg, waveform)
                } else {
                    nl.add_isource(head, pos, neg, waveform)
                };
                res.map_err(|e| err(e.to_string()))?;
            }
            other => return Err(err(format!("unknown element kind {other}"))),
        }
    }
    Ok(nl)
}

/// Parses a number with an optional SPICE engineering suffix.
///
/// Returns `None` on malformed input. `meg` is the 10⁶ suffix; a bare `m`
/// is milli, matching SPICE conventions.
pub fn parse_value(token: &str) -> Option<f64> {
    let lower = token.to_ascii_lowercase();
    let (num_str, mult) = if let Some(stripped) = lower.strip_suffix("meg") {
        (stripped, 1e6)
    } else {
        let last = lower.chars().last()?;
        let mult = match last {
            'f' => 1e-15,
            'p' => 1e-12,
            'n' => 1e-9,
            'u' => 1e-6,
            'm' => 1e-3,
            'k' => 1e3,
            'g' => 1e9,
            _ => 1.0,
        };
        if mult != 1.0 {
            (&lower[..lower.len() - 1], mult)
        } else {
            (lower.as_str(), 1.0)
        }
    };
    num_str.parse::<f64>().ok().map(|v| v * mult)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;

    #[test]
    fn engineering_suffixes() {
        let approx = |tok: &str, expect: f64| {
            let v = parse_value(tok).unwrap_or_else(|| panic!("failed to parse {tok}"));
            assert!(
                (v - expect).abs() <= 1e-12 * expect.abs(),
                "{tok} parsed to {v}, expected {expect}"
            );
        };
        approx("2p", 2e-12);
        approx("1.5n", 1.5e-9);
        approx("3k", 3e3);
        approx("2meg", 2e6);
        approx("10", 10.0);
        approx("4u", 4e-6);
        approx("1m", 1e-3);
        approx("7f", 7e-15);
        assert_eq!(parse_value("xyz"), None);
        assert_eq!(parse_value(""), None);
    }

    #[test]
    fn parse_simple_rc_deck() {
        let deck = "\
* example
R1 a b 100
C1 b 0 2p
V1 a 0 DC 1.8
.port b
";
        let nl = parse_deck(deck).unwrap();
        assert_eq!(nl.elements().len(), 3);
        assert_eq!(nl.node_count(), 2);
        assert_eq!(nl.ports().len(), 1);
    }

    #[test]
    fn parse_variational_terms() {
        let deck = "\
.param p
R1 a 0 10 p=50
C1 a 0 2p p=10p
";
        let nl = parse_deck(deck).unwrap();
        match &nl.elements()[0] {
            Element::Resistor { value, .. } => {
                assert_eq!(value.eval(&[0.1]), 15.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &nl.elements()[1] {
            Element::Capacitor { value, .. } => {
                assert!((value.eval(&[0.1]) - 3e-12).abs() < 1e-24);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_ramp_source() {
        let deck = "V1 in 0 RAMP 0 1.8 1n 0.2n";
        let nl = parse_deck(deck).unwrap();
        match &nl.elements()[0] {
            Element::VSource { waveform, .. } => {
                assert!((waveform.eval(2e-9) - 1.8).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let deck = "R1 a b 100\nQ1 x y z";
        match parse_deck(deck) {
            Err(CircuitError::ParseError { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_values_are_line_numbered_errors() {
        for card in [
            "I1 a 0 DC 1e999",
            "V1 a 0 DC -1e999",
            "R1 a 0 1e308k",
            "C1 a 0 infinity",
            "V1 a 0 RAMP 0 1.8 1e999 1n",
            "R1 a 0 10 p=1e999",
        ] {
            match parse_deck(&format!(".param p\n{card}")) {
                Err(CircuitError::ParseError { line, message }) => {
                    assert_eq!(line, 2, "{card}");
                    assert!(message.contains("not finite"), "{card}: {message}");
                }
                other => panic!("{card} parsed: {other:?}"),
            }
        }
    }

    #[test]
    fn ramp_rise_time_must_be_positive() {
        for tr in ["-1n", "0", "-0"] {
            let deck = format!("* ramp\nV1 a 0 RAMP 0 1.8 1n {tr}");
            match parse_deck(&deck) {
                Err(CircuitError::ParseError { line, message }) => {
                    assert_eq!(line, 2, "{tr}");
                    assert!(message.contains("rise time"), "{tr}: {message}");
                }
                other => panic!("rise time {tr} parsed: {other:?}"),
            }
        }
    }

    #[test]
    fn undeclared_parameter_is_an_error() {
        let deck = "R1 a 0 10 p=50";
        assert!(parse_deck(deck).is_err());
    }

    #[test]
    fn short_card_is_an_error() {
        assert!(parse_deck("R1 a 0").is_err());
        assert!(parse_deck("V1 a 0 DC").is_err());
        assert!(parse_deck("V1 a 0 RAMP 0 1").is_err());
        assert!(parse_deck("V1 a 0 SINE 0 1 2 3").is_err());
        assert!(parse_deck(".bogus x").is_err());
    }
}
