//! Deck-to-macromodel utility: parse a SPICE-like RC(L) deck, build its
//! variational reduced-order model, and print the pole/residue summary —
//! the "library pre-characterization" step of the paper as a standalone
//! tool.
//!
//! Run with `cargo run --release --example reduce_deck [path/to/deck.sp]`;
//! without an argument a built-in demonstration deck is used.

use linvar::prelude::*;

const DEMO_DECK: &str = "\
* demonstration: variational RC tree with two ports
.param width
Rdrv1 p1 0 800
Rdrv2 p2 0 800
R1 p1 n1 20 width=-4
C1 n1 0 50f width=10f
R2 n1 n2 20 width=-4
C2 n2 0 50f width=10f
R3 n1 p2 25 width=-5
C3 p2 0 30f width=6f
.port p1 p2
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let deck = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(&path)?,
        None => {
            println!("(no deck given — using the built-in demo deck)\n");
            DEMO_DECK.to_string()
        }
    };
    let nl = linvar::circuit::parse_deck(&deck)?;
    println!(
        "parsed: {} nodes, {} elements, {} ports, {} parameters",
        nl.node_count(),
        nl.elements().len(),
        nl.ports().len(),
        nl.params.len()
    );
    if nl.ports().is_empty() {
        return Err("deck has no .port directive".into());
    }
    let var = nl.variational_stamps()?.sparse()?;
    let order = 6.min(var.order());
    let vrom = VariationalRom::characterize(&var, ReductionMethod::Prima { order }, 0.02)?;
    println!(
        "variational ROM: order {order}, {} parameter(s)\n",
        vrom.param_count()
    );

    for sample in [-1.0, 0.0, 1.0] {
        let w: Vec<f64> = vec![sample; var.param_count()];
        let pr = extract_pole_residue(&vrom.evaluate(&w)?)?;
        let (stable, report) = stabilize(&pr);
        println!(
            "w = {sample:+}: {} poles ({} removed by the filter)",
            pr.pole_count(),
            report.removed_poles.len()
        );
        for (k, p) in stable.poles.iter().enumerate() {
            let tau = if p.re != 0.0 {
                -1.0 / p.re
            } else {
                f64::INFINITY
            };
            println!("  pole {k}: {p}   (tau = {:.3e} s)", tau);
        }
        let dc = stable.dc();
        print!("  Z(0) =");
        for i in 0..dc.rows() {
            for j in 0..dc.cols() {
                print!(" {:.2}", dc[(i, j)]);
            }
            if i + 1 < dc.rows() {
                print!(" ;");
            }
        }
        println!(" ohm\n");
    }
    Ok(())
}
