//! API-level lifecycle, admission-control, and wire-robustness tests
//! for the campaign service, all in-process on ephemeral ports.
//!
//! The job-state transition *table* is unit-tested exhaustively in
//! `linvar-serve`'s store module; here the same machine is driven
//! end-to-end over HTTP: idempotent resubmission, cancel in every
//! state, bounded-queue shedding, and malformed-wire handling.

use linvar_core::ModelRegistry;
use linvar_metrics::Json;
use linvar_serve::{request, ClientResponse, JsonGet, ServeConfig, Server, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

fn start_server(tag: &str, workers: usize, queue_cap: usize) -> (ServerHandle, String, PathBuf) {
    let dir = std::env::temp_dir().join(format!("linvar-serve-http-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_cap,
        jobs_dir: dir.clone(),
        ..ServeConfig::default()
    };
    let handle = Server::start(config, ModelRegistry::with_builtins()).expect("start server");
    let addr = handle.addr().to_string();
    (handle, addr, dir)
}

fn stop(handle: ServerHandle, dir: &PathBuf) {
    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(dir);
}

fn submit(addr: &str, model: &str, seed: u64, n: usize) -> ClientResponse {
    let mut body = Json::obj();
    body.set("model", model)
        .set("seed", seed)
        .set("n", n as u64);
    request(addr, "POST", "/jobs", Some(&body), CLIENT_TIMEOUT).expect("submit")
}

fn wait_state(addr: &str, id: &str, want: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let resp =
            request(addr, "GET", &format!("/jobs/{id}"), None, CLIENT_TIMEOUT).expect("status");
        assert_eq!(resp.status, 200);
        if resp.body.get_str("state") == Some(want) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} never reached {want}; last: {}",
            resp.body.render()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn resubmission_is_idempotent_keyed_by_campaign_fingerprint() {
    let (handle, addr, dir) = start_server("dedup", 1, 16);
    let first = submit(&addr, "demo-fast", 42, 32);
    assert_eq!(first.status, 200);
    assert_eq!(first.body.get_bool("existing"), Some(false));
    let id = first.body.get_str("job").expect("id").to_string();

    // Same campaign again — same job, no double-run; a different tenant
    // still dedups (identity excludes the tenant by design).
    let dup = submit(&addr, "demo-fast", 42, 32);
    assert_eq!(dup.body.get_bool("existing"), Some(true));
    assert_eq!(dup.body.get_str("job"), Some(id.as_str()));
    let mut other_tenant = Json::obj();
    other_tenant
        .set("model", "demo-fast")
        .set("seed", 42u64)
        .set("n", 32u64)
        .set("tenant", "someone-else");
    let cross = request(&addr, "POST", "/jobs", Some(&other_tenant), CLIENT_TIMEOUT).expect("x");
    assert_eq!(cross.body.get_bool("existing"), Some(true));
    assert_eq!(cross.body.get_str("job"), Some(id.as_str()));

    // A different seed is a different campaign.
    let fresh = submit(&addr, "demo-fast", 43, 32);
    assert_eq!(fresh.body.get_bool("existing"), Some(false));
    assert_ne!(fresh.body.get_str("job"), Some(id.as_str()));

    // Resubmission after completion answers from the terminal record,
    // result included.
    wait_state(&addr, &id, "done");
    let done = submit(&addr, "demo-fast", 42, 32);
    assert_eq!(done.body.get_bool("existing"), Some(true));
    assert_eq!(done.body.get_str("state"), Some("done"));
    assert!(done.body.get_str("result").is_some());
    stop(handle, &dir);
}

#[test]
fn bounded_queue_sheds_with_429_and_retry_after() {
    // One worker, queue bound 1: a slow runner plus one queued job fill
    // the service; the next submission must shed.
    let (handle, addr, dir) = start_server("shed", 1, 1);
    let running = submit(&addr, "demo-slow", 1, 120);
    assert_eq!(running.status, 200);
    let running_id = running.body.get_str("job").expect("id").to_string();
    wait_state(&addr, &running_id, "running");
    let queued = submit(&addr, "demo-slow", 2, 120);
    assert_eq!(queued.status, 200);

    let shed = submit(&addr, "demo-slow", 3, 120);
    assert_eq!(shed.status, 429, "full queue must shed");
    assert_eq!(shed.retry_after, Some(1), "shed must carry Retry-After");

    // The saturated service stays healthy and its queue within bound.
    let health = request(&addr, "GET", "/healthz", None, CLIENT_TIMEOUT).expect("healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.body.get_bool("ok"), Some(true), "{:?}", health.body);
    let depth = health.body.get_u64("queued").expect("queued");
    let cap = health.body.get_u64("queue_cap").expect("queue_cap");
    assert!(depth <= cap, "queue grew past its bound: {depth} > {cap}");

    // Shedding is not sticky: cancel the queued job and the next
    // submission is admitted.
    let queued_id = queued.body.get_str("job").expect("id").to_string();
    let cancel = request(
        &addr,
        "POST",
        &format!("/jobs/{queued_id}/cancel"),
        None,
        CLIENT_TIMEOUT,
    )
    .expect("cancel");
    assert_eq!(cancel.status, 200);
    let retry = submit(&addr, "demo-slow", 3, 120);
    assert_eq!(retry.status, 200, "queue slot must be reusable");

    // Healthz never stopped answering.
    let health = request(&addr, "GET", "/healthz", None, CLIENT_TIMEOUT).expect("healthz");
    assert_eq!(health.status, 200);
    stop(handle, &dir);
}

#[test]
fn cancel_semantics_in_every_lifecycle_state() {
    let (handle, addr, dir) = start_server("cancel", 1, 16);

    // Occupy the only worker so the next job stays queued.
    let blocker = submit(&addr, "demo-slow", 50, 400);
    let blocker_id = blocker.body.get_str("job").expect("id").to_string();
    wait_state(&addr, &blocker_id, "running");

    // Cancel while queued: immediate terminal state.
    let queued = submit(&addr, "demo-fast", 51, 32);
    let queued_id = queued.body.get_str("job").expect("id").to_string();
    let resp = request(
        &addr,
        "POST",
        &format!("/jobs/{queued_id}/cancel"),
        None,
        CLIENT_TIMEOUT,
    )
    .expect("cancel queued");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body.get_str("state"), Some("cancelled"));

    // Cancel a terminal job: 409, state unchanged.
    let again = request(
        &addr,
        "POST",
        &format!("/jobs/{queued_id}/cancel"),
        None,
        CLIENT_TIMEOUT,
    )
    .expect("cancel terminal");
    assert_eq!(again.status, 409);

    // Cancel while running: acknowledged, then terminal once in-flight
    // samples finish.
    let resp = request(
        &addr,
        "POST",
        &format!("/jobs/{blocker_id}/cancel"),
        None,
        CLIENT_TIMEOUT,
    )
    .expect("cancel running");
    assert_eq!(resp.status, 202);
    assert_eq!(resp.body.get_bool("cancelling"), Some(true));
    wait_state(&addr, &blocker_id, "cancelled");

    // Resubmitting a cancelled campaign answers from the terminal
    // record (the transition table accepts nothing out of a terminal
    // state).
    let resub = submit(&addr, "demo-slow", 50, 400);
    assert_eq!(resub.body.get_bool("existing"), Some(true));
    assert_eq!(resub.body.get_str("state"), Some("cancelled"));

    // Cancel of an unknown job: 404.
    let missing = request(
        &addr,
        "POST",
        "/jobs/deadbeef00000000/cancel",
        None,
        CLIENT_TIMEOUT,
    )
    .expect("cancel unknown");
    assert_eq!(missing.status, 404);
    stop(handle, &dir);
}

#[test]
fn result_endpoint_distinguishes_pending_from_terminal_and_missing() {
    let (handle, addr, dir) = start_server("result", 1, 16);
    let slow = submit(&addr, "demo-slow", 60, 200);
    let id = slow.body.get_str("job").expect("id").to_string();
    let pending = request(
        &addr,
        "GET",
        &format!("/jobs/{id}/result"),
        None,
        CLIENT_TIMEOUT,
    )
    .expect("pending");
    assert_eq!(pending.status, 202, "unfinished job polls as 202");
    let missing = request(
        &addr,
        "GET",
        "/jobs/0000000000000000/result",
        None,
        CLIENT_TIMEOUT,
    )
    .expect("missing");
    assert_eq!(missing.status, 404);
    let listing = request(&addr, "GET", "/jobs", None, CLIENT_TIMEOUT).expect("list");
    assert_eq!(listing.status, 200);
    assert!(listing.body.render().contains(&id));
    stop(handle, &dir);
}

#[test]
fn malformed_wire_input_gets_4xx_never_a_crash() {
    let (handle, addr, dir) = start_server("wire", 1, 16);

    // JSON-level garbage and contract violations through the client.
    let cases: &[(&str, &str)] = &[
        ("not json at all", "syntactic garbage"),
        ("{\"model\": \"demo-fast\"}", "missing n"),
        ("{\"n\": 8}", "missing model"),
        ("{\"model\": \"demo-fast\", \"n\": 0}", "zero n"),
        ("{\"model\": \"no-such-model\", \"n\": 8}", "unknown model"),
        (
            "{\"model\": \"demo-fast\", \"n\": 8, \"seed\": -4}",
            "negative seed",
        ),
        (
            "{\"model\": \"demo-fast\", \"n\": 1125899906842624}",
            "sample count beyond the job limit (2^50)",
        ),
        (
            "{\"model\": \"demo-fast\", \"n\": 4, \"max_retries\": 18446744073709551615}",
            "retry budget beyond the job limit (2^64-1)",
        ),
    ];
    for (body, why) in cases {
        let resp = raw_roundtrip(
            &addr,
            &format!(
                "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        );
        assert!(
            resp.starts_with("HTTP/1.1 400"),
            "{why}: expected 400, got {resp:?}"
        );
    }

    // Wire-level garbage.
    let resp = raw_roundtrip(&addr, "FETCH /jobs NONSENSE/9\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 400"), "bad request line: {resp}");
    let resp = raw_roundtrip(&addr, "DELETE /jobs HTTP/1.1\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 405"), "bad method: {resp}");
    let resp = raw_roundtrip(&addr, "GET /totally/unknown HTTP/1.1\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 404"), "unknown path: {resp}");

    // Size caps: an oversized declared body is refused up front.
    let resp = raw_roundtrip(
        &addr,
        &format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            linvar_serve::http::BODY_CAP + 1
        ),
    );
    assert!(resp.starts_with("HTTP/1.1 413"), "oversized body: {resp}");

    // After all of that abuse, the server still works.
    let ok = submit(&addr, "demo-fast", 70, 16);
    assert_eq!(ok.status, 200);
    stop(handle, &dir);
}

/// Writes raw bytes on a fresh connection and reads the whole response.
fn raw_roundtrip(addr: &str, raw: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .expect("timeout");
    stream.write_all(raw.as_bytes()).expect("write");
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    out
}

#[test]
fn tenants_are_served_round_robin_not_first_come_first_served() {
    // One worker; tenant A floods the queue first, then tenant B adds
    // one job. Round-robin means B's job runs after at most one more of
    // A's jobs — not after all of them.
    let (handle, addr, dir) = start_server("fair", 1, 32);
    let blocker = submit(&addr, "demo-slow", 80, 40);
    let blocker_id = blocker.body.get_str("job").expect("id").to_string();
    wait_state(&addr, &blocker_id, "running");

    // Every backlog job holds ~200ms (demo-slow, 8 samples) so the
    // claim order is observable without racing instant jobs.
    let mut a_ids = Vec::new();
    for k in 0..4u64 {
        let mut body = Json::obj();
        body.set("model", "demo-slow")
            .set("seed", 81 + k)
            .set("n", 8u64)
            .set("tenant", "tenant-a");
        let resp = request(&addr, "POST", "/jobs", Some(&body), CLIENT_TIMEOUT).expect("a");
        assert_eq!(resp.status, 200);
        a_ids.push(resp.body.get_str("job").expect("id").to_string());
    }
    let mut body = Json::obj();
    body.set("model", "demo-slow")
        .set("seed", 90u64)
        .set("n", 8u64)
        .set("tenant", "tenant-b");
    let b = request(&addr, "POST", "/jobs", Some(&body), CLIENT_TIMEOUT).expect("b");
    let b_id = b.body.get_str("job").expect("id").to_string();

    wait_state(&addr, &b_id, "done");
    // Fairness: when B's job finished, tenant A's backlog must not have
    // fully drained first (the worker alternates tenants).
    let states: Vec<String> = a_ids
        .iter()
        .map(|id| {
            request(&addr, "GET", &format!("/jobs/{id}"), None, CLIENT_TIMEOUT)
                .expect("status")
                .body
                .get_str("state")
                .expect("state")
                .to_string()
        })
        .collect();
    assert!(
        states.iter().any(|s| s != "done"),
        "tenant B waited behind ALL of tenant A's backlog: {states:?}"
    );
    stop(handle, &dir);
}

fn get(addr: &str, path: &str) -> ClientResponse {
    request(addr, "GET", path, None, CLIENT_TIMEOUT).expect("get")
}

fn post(addr: &str, path: &str) -> ClientResponse {
    request(addr, "POST", path, None, CLIENT_TIMEOUT).expect("post")
}

/// Polls `/jobs/<id>/result` until it answers 200 and returns the line.
fn wait_result(addr: &str, id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let resp = get(addr, &format!("/jobs/{id}/result"));
        if resp.status == 200 {
            return resp.body.get_str("result").expect("result line").into();
        }
        assert_eq!(resp.status, 202, "job {id}: {}", resp.body.render());
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Asserts what the service answers for finished jobs (`done`, by id with
/// their result lines), which it reads back from the journal.
fn check_finished(addr: &str, done: &[(String, String)], seed0: u64) {
    for (k, (id, line)) in done.iter().enumerate() {
        let resp = get(addr, &format!("/jobs/{id}/result"));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body.get_str("result"), Some(line.as_str()));
        let status = get(addr, &format!("/jobs/{id}"));
        assert_eq!(status.body.get_str("state"), Some("done"));
        let again = submit(addr, "demo-fast", seed0 + k as u64, 16);
        assert_eq!(again.status, 200);
        assert_eq!(again.body.get_bool("existing"), Some(true));
        assert_eq!(again.body.get_str("job"), Some(id.as_str()));
        assert_eq!(again.body.get_str("result"), Some(line.as_str()));
        assert_eq!(post(addr, &format!("/jobs/{id}/cancel")).status, 409);
    }
    // The resubmissions ran nothing.
    let health = get(addr, "/healthz");
    assert_eq!(health.body.get_u64("queued"), Some(0));
    assert_eq!(health.body.get_u64("running"), Some(0));
    assert_eq!(health.body.get_u64("jobs"), Some(done.len() as u64));
    let listing = get(addr, "/jobs").body;
    let Some(Json::Arr(jobs)) = listing.get("jobs") else {
        panic!("no job list in {}", listing.render());
    };
    let mut listed: Vec<(&str, &str)> = jobs
        .iter()
        .map(|j| {
            (
                j.get_str("job").expect("id"),
                j.get_str("state").expect("state"),
            )
        })
        .collect();
    listed.sort();
    let mut want: Vec<(&str, &str)> = done.iter().map(|(id, _)| (id.as_str(), "done")).collect();
    want.sort();
    assert_eq!(listed, want);
    // Ids of the wrong shape never reach the journal.
    for path in ["/jobs/zz/result", "/jobs/zz", "/jobs/..%2Fx/result"] {
        assert_eq!(get(addr, path).status, 404, "{path}");
    }
    assert_eq!(post(addr, "/jobs/zz/cancel").status, 404);
}

#[test]
fn finished_jobs_are_served_from_the_journal() {
    let (handle, addr, dir) = start_server("journal", 1, 16);
    let seed0 = 900;
    let ids: Vec<String> = (0..4)
        .map(|k| {
            let resp = submit(&addr, "demo-fast", seed0 + k, 16);
            assert_eq!(resp.body.get_bool("existing"), Some(false));
            resp.body.get_str("job").expect("id").to_string()
        })
        .collect();
    let done: Vec<(String, String)> = ids
        .into_iter()
        .map(|id| {
            let line = wait_result(&addr, &id);
            (id, line)
        })
        .collect();
    check_finished(&addr, &done, seed0);
    handle.shutdown();
    handle.join();

    // A restarted server counts and answers them the same way.
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        jobs_dir: dir.clone(),
        ..ServeConfig::default()
    };
    let handle = Server::start(config, ModelRegistry::with_builtins()).expect("restart");
    check_finished(&handle.addr().to_string(), &done, seed0);
    stop(handle, &dir);
}

/// The voluntary context switches of this process's thread named `name`.
#[cfg(target_os = "linux")]
fn voluntary_switches(name: &str) -> u64 {
    let mut seen = Vec::new();
    for task in std::fs::read_dir("/proc/self/task")
        .expect("task list")
        .flatten()
    {
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        if comm.trim_end() == name {
            let status = std::fs::read_to_string(task.path().join("status")).expect("status");
            let line = status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .expect("voluntary_ctxt_switches");
            return line.trim().parse().expect("a count");
        }
        seen.push(comm);
    }
    panic!("no thread named {name} among {seen:?}");
}

#[cfg(target_os = "linux")]
#[test]
fn idle_acceptor_sleeps_in_accept() {
    let (handle, addr, dir) = start_server("idle", 1, 16);
    // One request, so the acceptor has run (and named itself). Its name
    // carries its port, so other tests' servers in this process are not
    // counted.
    assert_eq!(get(&addr, "/healthz").status, 200);
    let name = format!("accept-{}", handle.addr().port());
    let before = voluntary_switches(&name);
    std::thread::sleep(Duration::from_secs(1));
    let woke = voluntary_switches(&name) - before;
    assert!(woke <= 2, "idle acceptor woke {woke} times in 1 s");
    stop(handle, &dir);
}

#[cfg(target_os = "linux")]
#[test]
fn idle_worker_sleeps_until_work_arrives() {
    let (handle, addr, dir) = start_server("idle-worker", 1, 16);
    assert_eq!(get(&addr, "/healthz").status, 200);
    // The worker's name carries its port, like the acceptor's.
    let name = format!("job-{}", handle.addr().port());
    let before = voluntary_switches(&name);
    std::thread::sleep(Duration::from_secs(1));
    let woke = voluntary_switches(&name) - before;
    assert!(woke <= 2, "idle worker woke {woke} times in 1 s");
    stop(handle, &dir);
}

#[test]
fn shutdown_wakes_an_acceptor_bound_on_the_unspecified_address() {
    let dir = std::env::temp_dir().join(format!("linvar-serve-http-any-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        addr: "0.0.0.0:0".into(),
        workers: 1,
        jobs_dir: dir.clone(),
        ..ServeConfig::default()
    };
    let handle = Server::start(config, ModelRegistry::with_builtins()).expect("start server");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.shutdown();
        handle.join();
        let _ = tx.send(());
    });
    assert!(
        rx.recv_timeout(Duration::from_secs(20)).is_ok(),
        "join did not return"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
