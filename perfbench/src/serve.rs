//! `serve`: the campaign service under a closed loop. An in-process
//! `linvar-serve` listens on an ephemeral port with a fresh jobs
//! directory; [`THREADS`] clients each submit a `chain3@10` job over real
//! TCP, poll for its result every [`POLL`], and only then submit the
//! next. Every job has its own seed, so idempotent dedup never answers.
//! The only workload that loads HTTP, the journaled job store and
//! campaign checkpoint writes.

use crate::gate;
use crate::jobloop::{counter, numeric_layers, phase_s, unattributed};
use crate::measure::{beyond, job_seed, median, peak_rss_mb, percentile, Metrics, MIN_BEYOND};
use crate::{Args, Outcome, SETUP_REPS, THREADS};
use linvar_core::registry::{CampaignModel, ChainModel};
use linvar_core::{CampaignConfig, ModelRegistry, RecoveryPolicy};
use linvar_metrics::Json;
use linvar_serve::{bits_hex, request, JsonGet, ServeConfig, Server, ServerHandle};
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

const MODEL: &str = "chain3@10";
/// Samples per job.
const SAMPLES_PER_JOB: usize = 8;
/// Fixed interval between result polls.
const POLL: Duration = Duration::from_millis(2);
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);
/// Job-index offset of the traced half, so its seeds never repeat the
/// plain half's (a repeat would be answered by dedup).
const TRACED_JOBS: u64 = 1 << 20;

/// One completed job, as a client saw it.
struct ClientJob {
    ms: f64,
    submit_ms: f64,
    polls: usize,
    shed: usize,
    row: String,
}

/// One phase of client load.
struct Load {
    wall_s: f64,
    jobs: Vec<ClientJob>,
    /// The row of each client's first job.
    first_rows: Vec<String>,
}

impl Load {
    fn jobs_per_s(&self) -> f64 {
        self.jobs.len() as f64 / self.wall_s
    }

    fn sorted(&self, f: impl Fn(&ClientJob) -> f64) -> Vec<f64> {
        let mut v: Vec<f64> = self.jobs.iter().map(f).collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Parent of the per-server jobs directories, inside the checkout.
const JOBS_ROOT: &str = ".perfbench-jobs";

fn job_dir(rep: usize) -> PathBuf {
    PathBuf::from(JOBS_ROOT).join(format!("{}-{rep}", std::process::id()))
}

/// The client seed of job `i` of client `k`.
fn seed_of(seed: u64, k: usize, i: u64) -> u64 {
    job_seed(seed, ((k as u64) << 40) | i)
}

/// The result line the service must report for `seed`: the same
/// campaign run in-process, formatted like the service's result rows.
fn reference_line(seed: u64) -> Result<String, String> {
    let run = ChainModel::new(3, 10)
        .run(
            seed,
            SAMPLES_PER_JOB,
            1,
            RecoveryPolicy::default(),
            &CampaignConfig::default(),
        )
        .map_err(|e| e.to_string())?;
    Ok(format!(
        "mc {MODEL} seed={seed} n={SAMPLES_PER_JOB}: n={} mean={} std={} failures={}",
        run.summary.n,
        bits_hex(run.summary.mean),
        bits_hex(run.summary.std),
        run.failures
    ))
}

/// Checks a service result line: all samples done, none failed, finite
/// statistics.
fn check_line(line: &str) -> Result<(), String> {
    let field = |key: &str| {
        line.split_whitespace()
            .filter_map(|t| t.strip_prefix(key))
            .next_back()
            .ok_or_else(|| format!("result {line:?} has no {key}"))
    };
    let hex = |key: &str| -> Result<f64, String> {
        let h = field(key)?;
        u64::from_str_radix(h, 16)
            .map(f64::from_bits)
            .map_err(|_| format!("result {line:?}: bad {key}{h}"))
    };
    let failures: usize = field("failures=")?
        .parse()
        .map_err(|_| format!("bad failures in {line:?}"))?;
    if field("n=")? != SAMPLES_PER_JOB.to_string() {
        return Err(format!(
            "result {line:?} did not complete {SAMPLES_PER_JOB} samples"
        ));
    }
    gate::check_stats(line, &[hex("mean=")?, hex("std=")?], failures)
}

/// Submits one job and polls until it is done.
fn one_job(addr: &str, seed: u64, tenant: &str) -> Result<ClientJob, String> {
    let mut body = Json::obj();
    body.set("model", MODEL)
        .set("n", SAMPLES_PER_JOB as u64)
        .set("seed", seed)
        .set("tenant", tenant);
    let start = Instant::now();
    let mut shed = 0;
    let (id, submit_ms) = loop {
        let t = Instant::now();
        let resp = request(addr, "POST", "/jobs", Some(&body), CLIENT_TIMEOUT)?;
        if resp.status == 429 {
            shed += 1;
            thread::sleep(Duration::from_millis(50));
            continue;
        }
        if resp.status != 200 || resp.body.get_bool("existing") != Some(false) {
            return Err(format!(
                "submit seed {seed}: status {}, body {:?}",
                resp.status, resp.body
            ));
        }
        let id = resp
            .body
            .get_str("job")
            .ok_or("submit: no job id")?
            .to_string();
        break (id, t.elapsed().as_secs_f64() * 1e3);
    };
    let mut polls = 0;
    loop {
        polls += 1;
        let resp = request(
            addr,
            "GET",
            &format!("/jobs/{id}/result"),
            None,
            CLIENT_TIMEOUT,
        )?;
        match resp.status {
            202 => thread::sleep(POLL),
            200 => {
                let ms = start.elapsed().as_secs_f64() * 1e3;
                if resp.body.get_str("state") != Some("done") {
                    return Err(format!("job {id} ended {:?}", resp.body));
                }
                let row = resp
                    .body
                    .get_str("result")
                    .ok_or("done job has no result")?
                    .to_string();
                check_line(&row)?;
                return Ok(ClientJob {
                    ms,
                    submit_ms,
                    polls,
                    shed,
                    row,
                });
            }
            other => return Err(format!("result of job {id}: status {other}")),
        }
    }
}

/// Runs [`THREADS`] closed-loop clients until `seconds` have passed.
fn load(addr: &str, seed: u64, first_job: u64, seconds: f64) -> Result<Load, String> {
    let t0 = Instant::now();
    let per_client = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|k| {
                s.spawn(move || -> Result<Vec<ClientJob>, String> {
                    let mut jobs = Vec::new();
                    let mut i = first_job;
                    while t0.elapsed().as_secs_f64() < seconds {
                        jobs.push(one_job(addr, seed_of(seed, k, i), &format!("client{k}"))?);
                        i += 1;
                    }
                    Ok(jobs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    let wall_s = t0.elapsed().as_secs_f64();
    let first_rows = per_client
        .iter()
        .enumerate()
        .map(|(k, jobs)| match jobs.first() {
            Some(j) => Ok(format!("client{k}.job0 {}", j.row)),
            None => Err(format!("client {k} completed no job")),
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Load {
        wall_s,
        jobs: per_client.into_iter().flatten().collect(),
        first_rows,
    })
}

/// A started server with its jobs directory.
struct Service {
    handle: Option<ServerHandle>,
    dir: PathBuf,
    addr: String,
}

impl Service {
    /// Starts a server on a fresh jobs directory and waits for a first
    /// job, which builds the model lazily.
    fn start(rep: usize, seed: u64) -> Result<Service, String> {
        let dir = job_dir(rep);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        let config = ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: THREADS,
            jobs_dir: dir.clone(),
            ..ServeConfig::default()
        };
        let handle = Server::start(config, ModelRegistry::with_builtins())
            .map_err(|e| format!("start: {e}"))?;
        let svc = Service {
            addr: handle.addr().to_string(),
            handle: Some(handle),
            dir,
        };
        one_job(&svc.addr, job_seed(seed, u64::MAX), "setup")?;
        Ok(svc)
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
            h.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        // Removes the parent only once it is empty.
        let _ = std::fs::remove_dir(JOBS_ROOT);
    }
}

/// Gate: each client's first row against the stored rows (default
/// seed), and against an in-process run of the same campaign (any seed).
fn gate_rows(args: &Args, first_rows: &[String]) -> Result<(), String> {
    if args.gated_seed() || args.bless {
        gate::check_or_bless(&args.expected, first_rows, args.bless)?;
    }
    for (k, row) in first_rows.iter().enumerate() {
        let want = format!(
            "client{k}.job0 {}",
            reference_line(seed_of(args.seed, k, 0))?
        );
        if *row != want {
            return Err(format!(
                "service result differs from in-process run:\n  {row}\n  {want}"
            ));
        }
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    eprintln!(
        "serve: {THREADS} closed-loop clients, {MODEL} jobs of {SAMPLES_PER_JOB} samples, \
         result polled every {} ms",
        POLL.as_millis()
    );
    let mut m = Metrics::default();
    let load_done = if args.trace {
        linvar_metrics::reset();
        linvar_metrics::enable();
        let svc = Service::start(0, args.seed)?;
        linvar_metrics::disable();
        let plain = load(&svc.addr, args.seed, 0, args.seconds / 2.0)?;
        linvar_metrics::reset();
        linvar_metrics::enable();
        let traced = load(&svc.addr, args.seed, TRACED_JOBS, args.seconds / 2.0)?;
        drop(svc);
        let r = linvar_metrics::snapshot();
        linvar_metrics::disable();
        gate_rows(args, &plain.first_rows)?;

        let jobs = traced.jobs.len() as f64;
        let submit = traced.sorted(|j| j.submit_ms);
        m.set(
            "serve.submit_ms_p50",
            percentile(&submit, 0.5).unwrap_or(0.0),
            "ms",
        );
        let polls: usize = traced.jobs.iter().map(|j| j.polls).sum();
        m.set("serve.polls_per_job", polls as f64 / jobs, "1/job");
        m.set(
            "serve.handle_s",
            phase_s(&r, "serve_handle") / jobs,
            "s/job",
        );
        m.set("serve.shed_429", counter(&r, "serve.shed_429"), "count");
        m.set(
            "stats.checkpoint_write_s",
            phase_s(&r, "checkpoint_write") / jobs,
            "s/job",
        );
        m.set(
            "stats.checkpoints_written",
            counter(&r, "campaign.checkpoints_written") / jobs,
            "1/job",
        );
        m.set(
            "stats.checkpoint_bytes",
            counter(&r, "campaign.checkpoint_bytes") / jobs,
            "B/job",
        );
        numeric_layers(&r, jobs * SAMPLES_PER_JOB as f64, &mut m);
        // Leaf layers inside a job's submit→result time: request
        // handling, sample evaluation and checkpoint writes. Queueing,
        // journaling and the poll interval are not timed.
        unattributed(
            traced.jobs.iter().map(|j| j.ms * 1e-3).sum(),
            &[
                phase_s(&r, "serve_handle"),
                phase_s(&r, "sample_eval"),
                phase_s(&r, "checkpoint_write"),
            ],
            &mut m,
        );
        m.set(
            "trace_overhead_frac",
            1.0 - traced.jobs_per_s() / plain.jobs_per_s(),
            "frac",
        );
        traced
    } else {
        let mut setups = Vec::with_capacity(SETUP_REPS);
        let mut svc = None;
        for rep in 0..SETUP_REPS {
            drop(svc.take());
            let t = Instant::now();
            svc = Some(Service::start(rep, args.seed)?);
            setups.push(t.elapsed().as_secs_f64());
        }
        let svc = svc.expect("SETUP_REPS >= 1");
        let plain = load(&svc.addr, args.seed, 0, args.seconds)?;
        drop(svc);
        // Read before the gate, whose in-process reference runs are not
        // the service's load.
        m.set("peak_rss_mb", peak_rss_mb()?, "MiB");
        gate_rows(args, &plain.first_rows)?;
        let lat = plain.sorted(|j| j.ms);
        m.set("setup_s", median(&setups), "s");
        m.set("jobs_per_s", plain.jobs_per_s(), "1/s");
        m.set(
            "samples_per_s",
            plain.jobs_per_s() * SAMPLES_PER_JOB as f64,
            "1/s",
        );
        m.set("job_ms_p50", percentile(&lat, 0.5).expect("jobs ran"), "ms");
        m.set("job_ms_p90", percentile(&lat, 0.9).expect("jobs ran"), "ms");
        eprintln!("serve: set-ups {setups:?} s");
        plain
    };
    let shed: usize = load_done.jobs.iter().map(|j| j.shed).sum();
    let n = load_done.jobs.len();
    eprintln!(
        "serve: {n} jobs in {:.2} s, {shed} submission(s) shed with 429; \
         {} jobs lie beyond the p90 (a tail needs {MIN_BEYOND})",
        load_done.wall_s,
        beyond(n, 0.9)
    );
    Ok(Outcome {
        metrics: m,
        attempted: (n + shed) as u64,
        failed: shed as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_are_checked() {
        let good = format!(
            "mc {MODEL} seed=5 n={SAMPLES_PER_JOB}: n={SAMPLES_PER_JOB} mean=3ff0000000000000 std=3fe0000000000000 failures=0"
        );
        check_line(&good).expect("good line");
        assert!(check_line(&good.replace("failures=0", "failures=1")).is_err());
        assert!(
            check_line(&good.replace("mean=3ff0000000000000", "mean=7ff8000000000000")).is_err()
        );
        assert!(check_line(&good.replace(&format!(": n={SAMPLES_PER_JOB}"), ": n=3")).is_err());
        assert!(check_line("garbage").is_err());
    }

    #[test]
    fn client_seeds_are_distinct() {
        assert_ne!(seed_of(1, 0, 0), seed_of(1, 1, 0));
        assert_ne!(seed_of(1, 0, 0), seed_of(1, 0, TRACED_JOBS));
    }
}
