//! Fault injection for the campaign service: one fault per crash window
//! of a job's life.
//!
//! Set `LINVAR_SERVE_FAULT` to one of:
//!
//! | value                  | effect (fires once)                                       |
//! |------------------------|-----------------------------------------------------------|
//! | `crash-before-journal` | `abort()` in the submit handler *before* the job record is journaled — the crash window where the server never acknowledged the job |
//! | `crash-after-journal`  | `abort()` right *after* the queued record reaches disk, before the client gets a response — the job exists, nobody was told |
//! | `crash-mid-checkpoint` | worker runs half the campaign, writes a **torn** `*.tmp` checkpoint sibling, then `abort()` — the window inside `save_checkpoint` |
//! | `worker-panic`         | the worker thread panics while running the job (contained; the job is re-queued) |
//! | `stall:<millis>`       | the worker stalls that long before starting the job (the server must stay responsive) |
//!
//! Crashes use [`std::process::abort`] — no unwinding, no destructors —
//! the closest in-process stand-in for `kill -9`. Every fault fires at
//! most once per process so the restarted server (same env) makes
//! progress; injections are counted under `serve.faults_injected`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// An injectable fault. See the module table for the crash windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeFault {
    /// Die before the submission is journaled.
    CrashBeforeJournal,
    /// Die after the queued record is durable, before the response.
    CrashAfterJournal,
    /// Run half the job, leave a torn checkpoint staging file, die.
    CrashMidCheckpoint,
    /// Panic the worker thread mid-job (must be contained).
    WorkerPanic,
    /// Stall the worker before the job starts.
    Stall {
        /// Stall duration in milliseconds.
        millis: u64,
    },
}

impl ServeFault {
    /// Parses the `LINVAR_SERVE_FAULT` spelling.
    pub fn parse(s: &str) -> Option<ServeFault> {
        let s = s.trim();
        match s {
            "crash-before-journal" => Some(ServeFault::CrashBeforeJournal),
            "crash-after-journal" => Some(ServeFault::CrashAfterJournal),
            "crash-mid-checkpoint" => Some(ServeFault::CrashMidCheckpoint),
            "worker-panic" => Some(ServeFault::WorkerPanic),
            _ => {
                let millis = s.strip_prefix("stall:")?.trim().parse::<u64>().ok()?;
                Some(ServeFault::Stall { millis })
            }
        }
    }

    /// Reads `LINVAR_SERVE_FAULT` through the hardened knob parser;
    /// unknown spellings warn and inject nothing (a typo'd fault knob
    /// must not silently change what a test believes it exercised).
    pub fn from_env() -> Option<ServeFault> {
        let raw = linvar_stats::env_knob_str("LINVAR_SERVE_FAULT", "no fault").valid()?;
        let parsed = ServeFault::parse(&raw);
        if parsed.is_none() {
            eprintln!(
                "warning: ignoring invalid LINVAR_SERVE_FAULT={raw:?} \
                 (expected crash-before-journal | crash-after-journal | \
                 crash-mid-checkpoint | worker-panic | stall:<millis>); using no fault"
            );
        }
        parsed
    }

    /// The stall duration, when this is a stall.
    pub fn stall_duration(self) -> Option<Duration> {
        match self {
            ServeFault::Stall { millis } => Some(Duration::from_millis(millis)),
            _ => None,
        }
    }
}

/// Fire-once latch: the first [`FaultArm::fire`] call returns `true`,
/// later calls `false`. The latch is per-process state and nothing
/// about faults is journaled, so a restarted process re-arms — the
/// recovery tests clear `LINVAR_SERVE_FAULT` before the second run so
/// the resumed campaign completes.
#[derive(Debug, Default)]
pub struct FaultArm {
    fired: AtomicBool,
}

impl FaultArm {
    /// A fresh (armed) latch.
    pub fn new() -> FaultArm {
        FaultArm::default()
    }

    /// True exactly once.
    pub fn fire(&self) -> bool {
        let first = !self.fired.swap(true, Ordering::SeqCst);
        if first {
            linvar_metrics::incr(linvar_metrics::Counter::ServeFaultsInjected);
        }
        first
    }
}

/// `kill -9` stand-in: immediate abnormal termination, no unwinding,
/// no buffered writes, no destructors.
pub fn crash_now(window: &str) -> ! {
    eprintln!("serve-fault: aborting in window {window:?}");
    std::process::abort();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spellings_parse_and_garbage_does_not() {
        assert_eq!(
            ServeFault::parse("crash-before-journal"),
            Some(ServeFault::CrashBeforeJournal)
        );
        assert_eq!(
            ServeFault::parse(" crash-after-journal "),
            Some(ServeFault::CrashAfterJournal)
        );
        assert_eq!(
            ServeFault::parse("crash-mid-checkpoint"),
            Some(ServeFault::CrashMidCheckpoint)
        );
        assert_eq!(
            ServeFault::parse("worker-panic"),
            Some(ServeFault::WorkerPanic)
        );
        assert_eq!(
            ServeFault::parse("stall:250"),
            Some(ServeFault::Stall { millis: 250 })
        );
        for bad in ["", "crash", "stall:", "stall:abc", "stall:-1", "panic"] {
            assert_eq!(ServeFault::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn fault_arm_fires_once() {
        let arm = FaultArm::new();
        assert!(arm.fire());
        assert!(!arm.fire());
        assert!(!arm.fire());
    }

    #[test]
    fn stall_duration_only_for_stalls() {
        assert_eq!(
            ServeFault::Stall { millis: 30 }.stall_duration(),
            Some(Duration::from_millis(30))
        );
        assert_eq!(ServeFault::WorkerPanic.stall_duration(), None);
    }
}
