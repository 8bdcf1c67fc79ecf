//! No-panic batteries for the two text parsers: `circuit::parse_deck`
//! (SPICE-like RC decks) and `iscas::parse_bench` (ISCAS-89 `.bench`).
//!
//! Each parser is fed token soups drawn from its own grammar — element
//! letters, ground, suffixed and overflowing values, variational terms,
//! directives and source kinds for decks; declarations, gate kinds and
//! punctuation for `.bench` — and byte mutations of a valid input. Every
//! input must come back as `Ok` or a typed error; a panic fails the test
//! with the offending input printed. Inputs are a fixed function of the
//! test name (the vendored proptest has no shrinking and no randomness
//! across runs), so a failure reproduces exactly.

use linvar_circuit::parse_deck;
use linvar_iscas::benches::S27_BENCH;
use linvar_iscas::parse_bench;
use proptest::prelude::*;

/// Card heads: every element letter in both cases plus heads the grammar
/// does not know.
const HEADS: &[&str] = &[
    "R1", "r2", "C1", "c2", "L1", "l2", "V1", "v2", "I1", "i2", "X1", "é",
];
/// Nodes, including both spellings of ground.
const NODES: &[&str] = &["0", "gnd", "GND", "a", "b", "in", "out", "p"];
/// Values: every engineering suffix, negative and signed zeros,
/// subnormal, overflowing and non-finite literals, malformed numbers.
const VALUES: &[&str] = &[
    "10", "1k", "2p", "1.5n", "3meg", "4u", "1m", "7f", "2g", ".5", "1.", "22", "-5", "0", "-0",
    "1e-320", "1e999", "-1e999", "1e308k", "nan", "inf", "infinity", "abc", "meg", "m",
];
/// Variational terms, well-formed and not.
const TERMS: &[&str] = &[
    "p=50", "q=-0.1p", "p=2", "q=1k", "p=", "=3", "p==1", "p=1e999", "r=1", "q=nan",
];
/// Source kinds.
const KINDS: &[&str] = &["DC", "dc", "RAMP", "ramp", "SIN", "PULSE"];
/// Directives and comments.
const DIRECTIVES: &[&str] = &[
    ".param p q",
    ".PARAM p",
    ".param",
    ".port",
    ".Port",
    ".end",
    "*",
];

/// A valid deck exercising every card kind, the seed of the byte mutations.
const VALID_DECK: &str = "\
* mutation seed
.param p q
V1 in 0 DC 1.8
V2 ck 0 RAMP 0 1.8 1n 0.2n
R1 in a 10 p=50
R2 a out 1k q=-20
L1 out b 1n p=0.1n
C1 b 0 2p p=10p
C2 a b 0.5p
I1 0 b DC 1m
.port out b
";

/// Tokens of the `.bench` grammar for free-form lines, concatenated
/// without separators so fragments recombine.
const BENCH_TOKENS: &[&str] = &[
    "INPUT(", "OUTPUT(", "INPUT", "G0", "G1", "=", " = ", "NAND(", "NOT(", "DFF(", "XOR(", "(",
    ")", ",", " ", "#", "\t", "((", "))", "=(", "é", "\u{feff}", "\r",
];
/// Signals: few enough that redeclarations and second drivers happen.
const SIGNALS: &[&str] = &["G0", "G1", "G2", "G3", "G4", "a", "", "G 5"];
/// Gate kinds, known and unknown, in the cases the parser meets.
const GATES: &[&str] = &[
    "AND", "NAND", "OR", "NOR", "NOT", "INV", "BUF", "BUFF", "DFF", "nand", "XOR", "",
];

fn pick<'a>(class: &[&'a str], seed: u64) -> &'a str {
    class[(seed % class.len() as u64) as usize]
}

/// Lines of up to `max` draws each: a template index and eight seeds that
/// fill its slots, then a prefix of the lines is kept.
fn lines(templates: u64, max: usize) -> impl Strategy<Value = Vec<(u64, Vec<u64>)>> {
    (
        prop::collection::vec((0..templates, prop::collection::vec(any::<u64>(), 8)), max),
        0..max + 1,
    )
        .prop_map(|(mut v, keep)| {
            v.truncate(keep);
            v
        })
}

/// A deck of up to six cards after a `.param p q` line: two-terminal
/// elements with variational terms, DC/RAMP sources, directives, and
/// free token soup.
fn deck_soup() -> impl Strategy<Value = String> {
    lines(6, 6).prop_map(|cards| {
        let mut deck = String::from(".param p q\n");
        for (template, x) in cards {
            let line = match template {
                0..=2 => {
                    let terms = (0..x[4] % 3).map(|k| pick(TERMS, x[5 + k as usize]));
                    let mut card = vec![pick(HEADS, x[0]), pick(NODES, x[1]), pick(NODES, x[2])];
                    card.push(pick(VALUES, x[3]));
                    card.extend(terms);
                    card.join(" ")
                }
                3 => {
                    let n = (x[4] % 6) as usize;
                    let mut card = vec![pick(HEADS, x[0]), pick(NODES, x[1]), pick(NODES, x[2])];
                    card.push(pick(KINDS, x[3]));
                    card.extend((0..n).map(|k| pick(VALUES, x[(5 + k) % 8])));
                    card.join(" ")
                }
                4 => format!("{} {}", pick(DIRECTIVES, x[0]), pick(NODES, x[1])),
                _ => {
                    let every = [HEADS, NODES, VALUES, TERMS, KINDS, DIRECTIVES];
                    let n = (x[0] % 8) as usize;
                    (0..n)
                        .map(|k| pick(every[(x[k] % 6) as usize], x[(k + 1) % 8] >> 8))
                        .collect::<Vec<_>>()
                        .join(" ")
                }
            };
            deck.push_str(&line);
            deck.push('\n');
        }
        deck
    })
}

/// A `.bench` text of up to eight lines: declarations, gates of one or
/// more inputs, comments, and free token soup.
fn bench_soup() -> impl Strategy<Value = String> {
    lines(5, 8).prop_map(|decls| {
        let mut text = String::new();
        for (template, x) in decls {
            let line = match template {
                0 => format!("INPUT({})", pick(SIGNALS, x[0])),
                1 => format!("OUTPUT({})", pick(SIGNALS, x[0])),
                2 | 3 => {
                    let n = 1 + (x[2] % 3) as usize;
                    let ins: Vec<&str> = (0..n).map(|k| pick(SIGNALS, x[3 + k])).collect();
                    let (out, gate) = (pick(SIGNALS, x[0]), pick(GATES, x[1]));
                    format!("{out} = {gate}({})", ins.join(", "))
                }
                _ => (0..(x[0] % 8) as usize)
                    .map(|k| pick(BENCH_TOKENS, x[k]))
                    .collect(),
            };
            text.push_str(&line);
            text.push('\n');
        }
        text
    })
}

/// Applies up to six byte edits (overwrite, insert or delete at a drawn
/// offset) to `seed`; invalid UTF-8 is replaced, as a reader of untrusted
/// bytes would.
fn mutate(seed: &str, edits: &[(u64, u64, u64)]) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for &(kind, at, byte) in edits {
        let at = (at % (bytes.len() as u64 + 1)) as usize;
        match kind % 3 {
            0 if at < bytes.len() => bytes[at] = byte as u8,
            1 => bytes.insert(at, byte as u8),
            _ if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn edits() -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    (
        prop::collection::vec((0u64..3, any::<u64>(), 0u64..256), 6),
        1usize..7,
    )
        .prop_map(|(mut v, keep)| {
            v.truncate(keep);
            v
        })
}

/// A deck that parses must also stamp: the emitter sees whatever the
/// parser accepted.
fn parse_and_stamp(deck: &str) {
    if let Ok(nl) = parse_deck(deck) {
        let _ = nl.stamp_mna(&[1.0, -1.0]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    #[test]
    fn parse_deck_never_panics_on_token_soup(deck in deck_soup()) {
        parse_and_stamp(&deck);
    }

    #[test]
    fn parse_deck_never_panics_on_mutated_decks(e in edits()) {
        parse_and_stamp(&mutate(VALID_DECK, &e));
    }

    #[test]
    fn parse_bench_never_panics_on_token_soup(text in bench_soup()) {
        let _ = parse_bench("fuzz", &text);
    }

    #[test]
    fn parse_bench_never_panics_on_mutated_s27(e in edits()) {
        let _ = parse_bench("s27", &mutate(S27_BENCH, &e));
    }
}

#[test]
fn the_mutation_seeds_are_valid() {
    let nl = parse_deck(VALID_DECK).expect("seed deck parses");
    assert_eq!(nl.elements().len(), 8);
    assert_eq!(nl.ports().len(), 2);
    let s27 = parse_bench("s27", S27_BENCH).expect("s27 parses");
    assert_eq!(s27.gates.len(), 13);
}

/// The soups must reach past the first card: a generator whose every
/// input fails on line 1 would test nothing. Counts accepted inputs with
/// at least one element or gate, and errors on later lines, over a fixed
/// draw.
#[test]
fn the_soups_reach_accepted_inputs_and_late_errors() {
    let mut rng = proptest::test_rng("soup-coverage");
    let (mut decks_ok, mut decks_late) = (0, 0);
    let (mut benches_ok, mut benches_late) = (0, 0);
    for _ in 0..1500 {
        match parse_deck(&deck_soup().generate(&mut rng)) {
            Ok(nl) if !nl.elements().is_empty() => decks_ok += 1,
            Err(linvar_circuit::CircuitError::ParseError { line, .. }) if line > 2 => {
                decks_late += 1
            }
            _ => {}
        }
        match parse_bench("fuzz", &bench_soup().generate(&mut rng)) {
            Ok(nl) if !nl.gates.is_empty() => benches_ok += 1,
            Err(e) if !e.contains("line 1:") => benches_late += 1,
            _ => {}
        }
    }
    eprintln!(
        "decks {decks_ok} ok, {decks_late} late; benches {benches_ok} ok, {benches_late} late"
    );
    assert!(decks_ok > 0 && decks_late > 0);
    assert!(benches_ok > 0 && benches_late > 0);
}
