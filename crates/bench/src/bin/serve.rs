//! The campaign service binary: server mode plus a tiny client so
//! ci.sh and operators need nothing beyond this workspace (no `curl`).
//!
//! ```text
//! serve serve    [--addr A] [--jobs-dir D] [--workers N] [--queue N]
//! serve submit   [--addr A] --model M --n N [--seed S] [--tenant T]
//!                [--max-retries R] [--no-fallback] [--budget B]
//! serve wait     [--addr A] --job ID [--timeout-secs S]
//! serve status   [--addr A] --job ID
//! serve list     [--addr A]
//! serve cancel   [--addr A] --job ID
//! serve health   [--addr A]
//! serve shutdown [--addr A]
//! ```
//!
//! Server mode resolves its defaults from `LINVAR_SERVE_ADDR`,
//! `LINVAR_SERVE_WORKERS`, `LINVAR_SERVE_QUEUE`, and
//! `LINVAR_SERVE_FAULT` (flags win), registers the built-in model
//! registry, runs the recovery scan, and serves until SIGTERM/ctrl-c or
//! `POST /shutdown` — then drains gracefully and exits 0.
//!
//! `submit` prints the job id on stdout (one token, script-friendly);
//! `wait` polls until the job is terminal and prints the deterministic
//! result line — the byte-identity anchor of the kill/restart smoke in
//! ci.sh.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use linvar_core::ModelRegistry;
use linvar_metrics::Json;
use linvar_serve::{
    install_signal_handlers, request, ClientResponse, JsonGet, ServeConfig, Server,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

fn main() {
    if let Err(e) = run() {
        eprintln!("serve: {e}");
        std::process::exit(1);
    }
}

struct Opts {
    addr: String,
    rest: std::collections::BTreeMap<String, String>,
    flags: std::collections::BTreeSet<String>,
}

fn parse_opts<I: Iterator<Item = String>>(mut argv: I) -> Result<Opts, String> {
    let mut rest = std::collections::BTreeMap::new();
    let mut flags = std::collections::BTreeSet::new();
    while let Some(arg) = argv.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument {arg:?}"));
        };
        if matches!(name, "no-fallback" | "quick") {
            flags.insert(name.to_string());
            continue;
        }
        let value = argv
            .next()
            .ok_or_else(|| format!("--{name} requires a value"))?;
        rest.insert(name.to_string(), value);
    }
    let addr = rest
        .remove("addr")
        .unwrap_or_else(|| linvar_serve::config::DEFAULT_ADDR.to_string());
    Ok(Opts { addr, rest, flags })
}

impl Opts {
    fn take(&mut self, name: &str) -> Option<String> {
        self.rest.remove(name)
    }

    fn take_usize(&mut self, name: &str) -> Result<Option<usize>, String> {
        match self.rest.remove(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse::<usize>()
                .map(Some)
                .map_err(|_| format!("--{name} wants a non-negative integer, got {raw:?}")),
        }
    }

    fn finish(self) -> Result<(), String> {
        if let Some(unknown) = self.rest.keys().next() {
            return Err(format!("unknown option --{unknown}"));
        }
        Ok(())
    }
}

fn run() -> Result<(), String> {
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else {
        return Err(
            "usage: serve <serve|submit|wait|status|list|cancel|health|shutdown> [options]".into(),
        );
    };
    let mut opts = parse_opts(argv)?;
    match cmd.as_str() {
        "serve" => serve_mode(opts),
        "submit" => {
            let model = opts.take("model").ok_or("submit requires --model")?;
            let n = opts
                .take_usize("n")?
                .ok_or("submit requires --n <samples>")?;
            let seed = opts
                .take("seed")
                .map(|s| s.parse::<u64>().map_err(|_| format!("bad --seed {s:?}")))
                .transpose()?
                .unwrap_or(0);
            let tenant = opts.take("tenant");
            let max_retries = opts.take_usize("max-retries")?;
            let budget = opts.take_usize("budget")?;
            let no_fallback = opts.flags.contains("no-fallback");
            let addr = opts.addr.clone();
            opts.finish()?;
            let mut body = Json::obj();
            body.set("model", model)
                .set("n", n as u64)
                .set("seed", seed);
            if let Some(t) = tenant {
                body.set("tenant", t);
            }
            if let Some(r) = max_retries {
                body.set("max_retries", r as u64);
            }
            if let Some(b) = budget {
                body.set("budget", b as u64);
            }
            if no_fallback {
                body.set("allow_fallback", false);
            }
            let resp = request(&addr, "POST", "/jobs", Some(&body), CLIENT_TIMEOUT)?;
            expect_ok(&resp)?;
            let id = resp
                .body
                .get_str("job")
                .ok_or("response has no \"job\" field")?;
            eprintln!(
                "job {id} state={} existing={}",
                resp.body.get_str("state").unwrap_or("?"),
                resp.body.get_bool("existing").unwrap_or(false)
            );
            println!("{id}");
            Ok(())
        }
        "wait" => {
            let job = opts.take("job").ok_or("wait requires --job <id>")?;
            let timeout = opts.take_usize("timeout-secs")?.unwrap_or(120);
            let addr = opts.addr.clone();
            opts.finish()?;
            // A timeout past what `Instant` can represent never expires.
            let deadline = Instant::now().checked_add(Duration::from_secs(timeout as u64));
            loop {
                let resp = request(
                    &addr,
                    "GET",
                    &format!("/jobs/{job}/result"),
                    None,
                    CLIENT_TIMEOUT,
                )?;
                if resp.status == 200 {
                    let state = resp.body.get_str("state").unwrap_or("?");
                    if let Some(line) = resp.body.get_str("result") {
                        println!("{line}");
                    }
                    if let Some(err) = resp.body.get_str("error") {
                        return Err(format!("job {job} {state}: {err}"));
                    }
                    if state != "done" && state != "truncated" {
                        return Err(format!("job {job} finished as {state}"));
                    }
                    return Ok(());
                }
                if resp.status != 202 {
                    return Err(format!("wait: unexpected status {}", resp.status));
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return Err(format!("job {job} not terminal after {timeout}s"));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        "status" | "cancel" => {
            let job = opts.take("job").ok_or("requires --job <id>")?;
            let addr = opts.addr.clone();
            opts.finish()?;
            let (method, path) = if cmd == "status" {
                ("GET", format!("/jobs/{job}"))
            } else {
                ("POST", format!("/jobs/{job}/cancel"))
            };
            let resp = request(&addr, method, &path, None, CLIENT_TIMEOUT)?;
            expect_ok(&resp)?;
            print!("{}", resp.body.render());
            Ok(())
        }
        "list" | "health" | "shutdown" => {
            let addr = opts.addr.clone();
            opts.finish()?;
            let (method, path) = match cmd.as_str() {
                "list" => ("GET", "/jobs"),
                "health" => ("GET", "/healthz"),
                _ => ("POST", "/shutdown"),
            };
            let resp = request(&addr, method, path, None, CLIENT_TIMEOUT)?;
            expect_ok(&resp)?;
            print!("{}", resp.body.render());
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn expect_ok(resp: &ClientResponse) -> Result<(), String> {
    if resp.ok() {
        return Ok(());
    }
    let detail = resp.body.get_str("error").unwrap_or("");
    Err(format!("server answered {}: {detail}", resp.status))
}

fn serve_mode(mut opts: Opts) -> Result<(), String> {
    let mut config = ServeConfig::from_env();
    config.addr = opts.addr.clone();
    if let Some(d) = opts.take("jobs-dir") {
        config.jobs_dir = PathBuf::from(d);
    }
    if let Some(w) = opts.take_usize("workers")? {
        config.workers = w.max(1);
    }
    if let Some(q) = opts.take_usize("queue")? {
        config.queue_cap = q.max(1);
    }
    opts.finish()?;

    linvar_metrics::reset();
    linvar_metrics::enable();
    install_signal_handlers();
    let registry = ModelRegistry::with_builtins();
    let handle = Server::start(config.clone(), registry).map_err(|e| e.to_string())?;
    eprintln!(
        "serve: listening on {} ({} worker(s), queue bound {}, jobs in {})",
        handle.addr(),
        config.workers,
        config.queue_cap,
        config.jobs_dir.display()
    );
    if let Some(fault) = config.fault {
        eprintln!("serve: fault armed: {fault:?}");
    }
    handle.join();
    eprintln!("serve: drained; exiting 0");
    Ok(())
}
