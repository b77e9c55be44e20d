//! Failure accounting and the wall-clock watchdog.
//!
//! Every program operation the benchmark attempts (training steps,
//! `apply_placement`, `finish_migrations`) is counted, with the text of
//! each one that fails. The watchdog fails a run that overstays its
//! budget, naming the workload and the phase it was stuck in, and kills
//! any worker processes left behind — a hung worker must fail the run,
//! not hang it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
static FAILED: AtomicU64 = AtomicU64::new(0);
static ERRORS: Mutex<Vec<String>> = Mutex::new(Vec::new());
static PHASE: Mutex<&'static str> = Mutex::new("start");
/// Set once the watchdog has fired; from then on it alone reports.
static FIRED: AtomicBool = AtomicBool::new(false);

/// Names the phase the run is entering.
pub fn phase(name: &'static str) {
    *PHASE.lock().expect("phase lock poisoned") = name;
}

fn current_phase() -> &'static str {
    *PHASE.lock().expect("phase lock poisoned")
}

/// Runs one program operation, counting it and recording its error.
pub fn op<T, E: std::fmt::Display>(
    what: &str,
    f: impl FnOnce() -> Result<T, E>,
) -> Result<T, String> {
    ATTEMPTED.fetch_add(1, Ordering::Relaxed);
    f().map_err(|e| {
        let msg = format!("{what} failed in phase {}: {e}", current_phase());
        record_failure(msg.clone());
        msg
    })
}

/// Counts one failed operation that surfaced outside [`op`] (a panic
/// caught at the workload boundary, or the watchdog firing).
pub fn record_failure(msg: String) {
    FAILED.fetch_add(1, Ordering::Relaxed);
    ERRORS.lock().expect("error log poisoned").push(msg);
}

/// `(attempted, failed)` so far.
pub fn counts() -> (u64, u64) {
    (
        ATTEMPTED.load(Ordering::Relaxed),
        FAILED.load(Ordering::Relaxed),
    )
}

/// Every recorded failure message.
pub fn errors() -> Vec<String> {
    ERRORS.lock().expect("error log poisoned").clone()
}

/// A running watchdog; [`Watchdog::disarm`] stops and joins it.
pub struct Watchdog {
    stop: mpsc::Sender<()>,
    thread: JoinHandle<()>,
}

impl Watchdog {
    /// Fails the process after `budget` unless disarmed first: prints the
    /// stuck workload and phase, kills child processes, calls `on_fire`
    /// (which prints the failed result line) and exits with code 3.
    pub fn arm(workload: &'static str, budget: Duration, on_fire: fn()) -> Self {
        let (stop, rx) = mpsc::channel::<()>();
        let thread = std::thread::spawn(move || {
            if let Err(RecvTimeoutError::Timeout) = rx.recv_timeout(budget) {
                FIRED.store(true, Ordering::SeqCst);
                let msg = format!(
                    "watchdog: workload {workload} exceeded {}s in phase {}",
                    budget.as_secs(),
                    current_phase()
                );
                eprintln!("{msg}");
                record_failure(msg);
                reap_children();
                on_fire();
                std::process::exit(3);
            }
        });
        Watchdog { stop, thread }
    }

    /// Stops the watchdog. If it already fired, the run it killed may
    /// have ended in a panic or error meanwhile; this parks the caller
    /// while the watchdog reports and exits.
    pub fn disarm(self) {
        if FIRED.load(Ordering::SeqCst) {
            loop {
                std::thread::park();
            }
        }
        // The receiver only goes away once the thread has fired and is
        // exiting the process, so a failed send changes nothing.
        let _ = self.stop.send(());
        self.thread.join().expect("watchdog thread panicked");
    }
}

/// Kills every child process of this process and waits until each has
/// ended. Used when a run is abandoned with workers still attached
/// (a timeout or a caught panic); normal shutdown reaps them itself.
pub fn reap_children() {
    let children = child_pids();
    for &pid in &children {
        let status = std::process::Command::new("kill")
            .args(["-KILL", &pid.to_string()])
            .status();
        if let Err(e) = status {
            eprintln!("could not kill child {pid}: {e}");
        }
    }
    // A killed child has ended once it is a zombie (or gone); this
    // process's exit hands zombies to init.
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline
        && children
            .iter()
            .any(|&pid| matches!(proc_state(pid), Some(s) if s != 'Z'))
    {
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn child_pids() -> Vec<u32> {
    let me = std::process::id();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| proc_stat(pid).is_some_and(|(_, ppid)| ppid == me))
        .collect()
}

fn proc_state(pid: u32) -> Option<char> {
    proc_stat(pid).map(|(state, _)| state)
}

/// `(state, parent pid)` from `/proc/<pid>/stat`. The command name may
/// hold spaces or parentheses, so fields are read after its last `)`.
fn proc_stat(pid: u32) -> Option<(char, u32)> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let mut fields = stat[stat.rfind(')')? + 1..].split_whitespace();
    let state = fields.next()?.chars().next()?;
    let ppid = fields.next()?.parse().ok()?;
    Some((state, ppid))
}
