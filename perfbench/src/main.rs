//! The linvar benchmark: four workloads, end-to-end metrics from a plain
//! run and per-layer metrics from a separate traced run.
//!
//! ```text
//! linvar-perfbench --workload <paths|chains|irdrop|serve> --seed <n>
//!                  --seconds <s> --trace <0|1> [--expected <file>] [--bless]
//! ```
//!
//! The last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`). A run whose outputs fail
//! the correctness gate exits non-zero without printing it. See
//! `README.md` beside this crate for what each workload loads.

mod chains;
mod gate;
mod irdrop;
mod jobloop;
mod measure;
mod paths;
mod serve;

use measure::Metrics;
use std::path::PathBuf;

/// Worker threads inside the library's campaign pools, and client
/// connections on `serve`: the two cores of the reference machine.
pub const THREADS: usize = 2;

/// Set-ups per plain run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// End-to-end metrics: every plain run prints all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("samples_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: every traced run prints all of them; a layer the
/// workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("unattributed_frac", "frac"),
    ("trace_overhead_frac", "frac"),
    ("core.build_s", "s"),
    ("mor.prima_project_s", "s"),
    ("core.sample_ms_p50", "ms"),
    ("core.rung_vrom_frac", "frac"),
    ("core.stage_spice_rescues", "1/sample"),
    ("teta.stage_eval_s", "s/sample"),
    ("teta.stage_evals", "1/sample"),
    ("teta.chords_per_stage", "1/stage"),
    ("mor.eigen_s", "s/sample"),
    ("mor.stabilize_s", "s/sample"),
    ("numeric.lu_factor_s", "s/sample"),
    ("numeric.lu_factor_calls", "1/sample"),
    ("numeric.lu_solve_s", "s/sample"),
    ("numeric.lu_solve_calls", "1/sample"),
    ("numeric.lu_factor_recoveries", "1/sample"),
    ("numeric.ws_hit_frac", "frac"),
    ("circuit.freeze_ms", "ms/sample"),
    ("spice.transient_ms", "ms/sample"),
    ("spice.newton_iterations", "1/sample"),
    ("numeric.sparse_symbolic_s", "s/sample"),
    ("numeric.sparse_symbolic_calls", "1/sample"),
    ("numeric.sparse_factor_s", "s/sample"),
    ("numeric.sparse_factor_calls", "1/sample"),
    ("numeric.sparse_solve_s", "s/sample"),
    ("numeric.sparse_solve_calls", "1/sample"),
    ("numeric.solves_per_factor", "1/factor"),
    ("circuit.assemble_ms.grid32x32", "ms/sample"),
    ("numeric.factor_ms.grid32x32", "ms/sample"),
    ("numeric.solve_ms.grid32x32", "ms/sample"),
    ("circuit.assemble_ms.grid64x64", "ms/sample"),
    ("numeric.factor_ms.grid64x64", "ms/sample"),
    ("numeric.solve_ms.grid64x64", "ms/sample"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.polls_per_job", "1/job"),
    ("serve.handle_s", "s/job"),
    ("serve.shed_429", "count"),
    ("stats.checkpoint_write_s", "s/job"),
    ("stats.checkpoints_written", "1/job"),
    ("stats.checkpoint_bytes", "B/job"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub expected: PathBuf,
    pub bless: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = gate::DEFAULT_SEED;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut expected = None;
        let mut bless = false;
        while let Some(flag) = it.next() {
            if flag == "--bless" {
                bless = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
                "--seconds" => {
                    seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| bad("a positive number of seconds"))?;
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                "--expected" => expected = Some(PathBuf::from(&value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !["paths", "chains", "irdrop", "serve"].contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}"));
        }
        let expected =
            expected.unwrap_or_else(|| PathBuf::from(format!("perfbench/expected/{workload}.txt")));
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            expected,
            bless,
        })
    }

    /// Whether this run's result rows are checked against the stored ones.
    pub fn gated_seed(&self) -> bool {
        self.seed == gate::DEFAULT_SEED
    }
}

/// A finished run: its metrics plus what it attempted and how much failed.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run() -> Result<String, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    let mut out = match args.workload.as_str() {
        "paths" => jobloop::run::<paths::Paths>(&args)?,
        "chains" => jobloop::run::<chains::Chains>(&args)?,
        "irdrop" => jobloop::run::<irdrop::IrDrop>(&args)?,
        _ => serve::run(&args)?,
    };
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        for (name, unit) in PER_LAYER {
            if out.metrics.get(name).is_none() {
                out.metrics.set(name, 0.0, unit);
            }
        }
    }
    out.metrics.check_only(names)?;
    out.metrics.check_finite()?;
    Ok(out.metrics.result_line(out.attempted, out.failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn full_command_line_parses() {
        let a = parse("--workload chains --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("chains", 7, 10.0, true)
        );
        assert!(!a.gated_seed());
        assert_eq!(a.expected, PathBuf::from("perfbench/expected/chains.txt"));
        assert!(parse("--workload paths").expect("defaults").gated_seed());
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--seed 1",
            "--workload nope",
            "--workload paths --trace 2",
            "--workload paths --seconds 0",
            "--workload paths --seed -1",
            "--workload paths --seed",
            "--workload paths --frobnicate 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                spec.contains(&entry),
                "{name} [{unit}] missing from BENCHMARK.json"
            );
        }
        let declared = spec.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn metric_names_are_unique_and_within_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for (n, u) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(n.len() <= 64 && u.len() <= 16, "{n} {u}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(u
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
