//! Chaos-soak driver for `fastmond`: spawn the real daemon binary, fire
//! concurrent multi-tenant campaign clients at it, `kill -9` it at band
//! boundaries, restart it, and collect every campaign's terminal record.
//!
//! The driver is deliberately daemon-agnostic at the type level (it
//! speaks the newline-JSON wire protocol over a socket and manages a
//! child process) so it lives here in the bench crate; the actual soak
//! acceptance test in `crates/daemon/tests/soak.rs` combines it with an
//! in-process clean serial baseline to assert bit-identity.
//!
//! A campaign is "done" only when a daemon answers a `completed`
//! terminal record for it. Everything else — connection refused while
//! the daemon is down, `cancelled`/`failed (resumable)`/`drained`
//! terminals, `queue_full` rejects — makes the client reconnect (via the
//! atomically rewritten `--addr-file`) and resubmit the identical
//! request, which resumes from the campaign's durable checkpoint.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fastmon_obs::json::{self, Value};

/// What one soak run looks like.
#[derive(Debug, Clone)]
pub struct SoakPlan {
    /// Concurrent client threads.
    pub clients: usize,
    /// Campaigns each client runs (sequentially).
    pub per_client: usize,
    /// `kill -9` + restart cycles while campaigns are in flight.
    pub kills: usize,
    /// `FASTMON_FAILPOINTS` spec armed in the daemon child (not in the
    /// driving process).
    pub failpoints: Option<String>,
    /// Circuit profile submitted by every campaign.
    pub profile: String,
    /// Profile scale factor.
    pub scale: f64,
    /// Fault-sample cap per campaign.
    pub max_faults: usize,
    /// Daemon worker threads.
    pub workers: usize,
    /// Daemon queue capacity.
    pub queue_limit: usize,
    /// Abort the soak (as a failure) after this long.
    pub budget: Duration,
}

impl SoakPlan {
    /// The acceptance-scale default: 4 clients × 2 campaigns with 2
    /// kills, failpoints armed.
    #[must_use]
    pub fn acceptance() -> Self {
        SoakPlan {
            clients: 4,
            per_client: 2,
            kills: 2,
            failpoints: Some("checkpoint_write=err@every:5;campaign_band=err@every:23".to_string()),
            profile: "s9234".to_string(),
            scale: 0.05,
            max_faults: 150,
            workers: 2,
            queue_limit: 16,
            budget: Duration::from_secs(600),
        }
    }

    /// Scales the acceptance plan via `FASTMON_SOAK_*` env knobs
    /// (`CLIENTS`, `PER_CLIENT`, `KILLS`) — CI smoke uses
    /// `CLIENTS=2 PER_CLIENT=2 KILLS=1` wait-time-boxed.
    #[must_use]
    pub fn from_env() -> Self {
        let mut plan = SoakPlan::acceptance();
        let read = |name: &str| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
        };
        if let Some(v) = read("FASTMON_SOAK_CLIENTS") {
            plan.clients = v.max(1);
        }
        if let Some(v) = read("FASTMON_SOAK_PER_CLIENT") {
            plan.per_client = v.max(1);
        }
        if let Some(v) = read("FASTMON_SOAK_KILLS") {
            plan.kills = v;
        }
        plan
    }

    /// The deterministic campaign list this plan submits: one spec per
    /// (client, slot), each with a distinct seed (distinct campaign
    /// fingerprint).
    #[must_use]
    pub fn campaigns(&self) -> Vec<CampaignSpec> {
        let mut out = Vec::new();
        for client in 0..self.clients {
            for slot in 0..self.per_client {
                out.push(CampaignSpec {
                    tenant: format!("tenant-{client}"),
                    name: format!("c{client}-j{slot}"),
                    seed: 100 + (client * self.per_client + slot) as u64,
                });
            }
        }
        out
    }
}

/// One campaign identity inside a soak plan.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Submitting tenant.
    pub tenant: String,
    /// Job label.
    pub name: String,
    /// Flow seed — the only thing distinguishing campaigns, hence the
    /// fingerprint key.
    pub seed: u64,
}

impl CampaignSpec {
    /// The submit request line for this campaign under `plan`.
    #[must_use]
    pub fn submit_line(&self, plan: &SoakPlan) -> String {
        format!(
            concat!(
                r#"{{"op":"submit","proto":1,"tenant":"{tenant}","name":"{name}","#,
                r#""circuit":{{"kind":"profile","name":"{profile}","scale":{scale},"seed":7}},"#,
                r#""max_faults":{max_faults},"seed":{seed},"threads":1}}"#
            ),
            tenant = self.tenant,
            name = self.name,
            profile = plan.profile,
            scale = plan.scale,
            max_faults = plan.max_faults,
            seed = self.seed,
        )
    }
}

/// How one campaign ended up.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Job label.
    pub name: String,
    /// Campaign fingerprint (hex, as reported on the wire).
    pub fingerprint: String,
    /// Result digest (hex) — bit-identity is equality of this.
    pub result_fingerprint: String,
    /// Whether any attempt resumed from a checkpoint.
    pub resumed_ever: bool,
    /// Submissions needed until `completed`.
    pub attempts: usize,
}

/// Aggregate soak outcome.
#[derive(Debug)]
pub struct SoakReport {
    /// Every campaign, completed.
    pub results: Vec<CampaignResult>,
    /// `kill -9`s actually delivered.
    pub kills: usize,
    /// Daemon (re)starts, including the first.
    pub starts: usize,
    /// Campaigns that resumed from a checkpoint at least once.
    pub resumed_campaigns: usize,
    /// Whether the final SIGTERM drain exited with status 0.
    pub drain_exit_zero: bool,
    /// Status of the in-flight job at drain time
    /// (`cancelled`/`completed`/`drained`).
    pub drain_job_status: String,
}

/// A spawned `fastmond` child process.
pub struct DaemonProc {
    child: Child,
}

impl DaemonProc {
    /// Spawns `bin` rooted at `root` (checkpoints, results and the addr
    /// file live underneath), with `failpoints` armed in its
    /// environment.
    ///
    /// # Errors
    ///
    /// Propagates spawn failures as strings.
    pub fn spawn(
        bin: &Path,
        root: &Path,
        plan: &SoakPlan,
        failpoints: Option<&str>,
    ) -> Result<DaemonProc, String> {
        let mut cmd = Command::new(bin);
        cmd.arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--workers")
            .arg(plan.workers.to_string())
            .arg("--queue-limit")
            .arg(plan.queue_limit.to_string())
            .arg("--checkpoint-root")
            .arg(root.join("checkpoints"))
            .arg("--results-dir")
            .arg(root.join("results"))
            .arg("--postmortem-dir")
            .arg(root.join("postmortems"))
            .arg("--addr-file")
            .arg(addr_file(root))
            .arg("--gc-grace-secs")
            .arg("900")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .env_remove("FASTMON_FAILPOINTS")
            .env_remove("FASTMON_DEADLINE_SECS");
        if let Some(spec) = failpoints {
            cmd.env("FASTMON_FAILPOINTS", spec);
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        Ok(DaemonProc { child })
    }

    /// The child's PID.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `kill -9` — the crash under test.
    pub fn kill9(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Delivers SIGTERM (via `/bin/sh`, the workspace links no libc) and
    /// waits; returns whether the daemon exited with status 0.
    #[must_use]
    pub fn sigterm_and_wait(mut self) -> bool {
        let _ = Command::new("sh")
            .arg("-c")
            .arg(format!("kill -TERM {}", self.child.id()))
            .status();
        match self.child.wait() {
            Ok(status) => status.success(),
            Err(_) => false,
        }
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn addr_file(root: &Path) -> PathBuf {
    root.join("fastmond.addr")
}

fn read_addr(root: &Path) -> Option<SocketAddr> {
    std::fs::read_to_string(addr_file(root))
        .ok()?
        .trim()
        .parse()
        .ok()
}

fn connect(root: &Path) -> Option<TcpStream> {
    let addr = read_addr(root)?;
    let stream = TcpStream::connect_timeout(&addr, Duration::from_millis(500)).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .ok()?;
    Some(stream)
}

fn get_str(v: &Value, key: &str) -> String {
    v.get(key)
        .and_then(|s| s.as_str())
        .unwrap_or_default()
        .to_string()
}

enum Attempt {
    /// Terminal `completed` record.
    Completed(Value),
    /// Saw a `resumed` event before losing the daemon or getting a
    /// non-final terminal — resubmit.
    Retry { resumed: bool },
}

/// One submission attempt: connect, submit, stream until a terminal
/// record or a broken connection.
fn attempt(root: &Path, line: &str) -> Attempt {
    let mut resumed = false;
    let mut checkpointed = Checkpointed(false);
    let Some(stream) = connect(root) else {
        return Attempt::Retry { resumed };
    };
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return Attempt::Retry { resumed },
    };
    if writer
        .write_all(format!("{line}\n").as_bytes())
        .and_then(|()| writer.flush())
        .is_err()
    {
        return Attempt::Retry { resumed };
    }
    let mut reader = BufReader::new(stream);
    loop {
        let mut buf = String::new();
        match reader.read_line(&mut buf) {
            Ok(0) | Err(_) => return Attempt::Retry { resumed },
            Ok(_) => {}
        }
        let Ok(record) = json::parse(buf.trim()) else {
            return Attempt::Retry { resumed };
        };
        match get_str(&record, "event").as_str() {
            "resumed" => resumed = true,
            "band" => {
                BANDS_SEEN.fetch_add(1, Ordering::Relaxed);
                checkpointed.mark();
            }
            "reject" => {
                std::thread::sleep(Duration::from_millis(200));
                return Attempt::Retry { resumed };
            }
            "terminal" => {
                if get_str(&record, "status") == "completed" {
                    return Attempt::Completed(record);
                }
                return Attempt::Retry { resumed };
            }
            _ => {}
        }
    }
}

/// Global band-progress counter the kill scheduler watches: a kill only
/// fires after fresh band checkpoints landed, so it reliably hits
/// mid-campaign.
static BANDS_SEEN: AtomicU64 = AtomicU64::new(0);

fn bands_seen() -> u64 {
    BANDS_SEEN.load(Ordering::Relaxed)
}

/// Attempts in flight that have reported a band checkpoint and no
/// terminal record yet. A `kill -9` only fires while this is nonzero, so
/// it hits at least one job that holds a durable checkpoint and resumes
/// on resubmission — not jobs that are all still queued or in ATPG.
static CHECKPOINTED_IN_FLIGHT: AtomicU64 = AtomicU64::new(0);

/// Counts its attempt in [`CHECKPOINTED_IN_FLIGHT`] from the attempt's
/// first band event until the attempt ends, however it ends.
struct Checkpointed(bool);

impl Checkpointed {
    fn mark(&mut self) {
        if !self.0 {
            self.0 = true;
            CHECKPOINTED_IN_FLIGHT.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Drop for Checkpointed {
    fn drop(&mut self) {
        if self.0 {
            CHECKPOINTED_IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Drives one campaign to `completed`, resubmitting across crashes.
fn run_campaign(
    root: &Path,
    line: &str,
    deadline: Instant,
    failed: &AtomicBool,
) -> Result<CampaignResult, String> {
    let mut resumed_ever = false;
    let mut attempts = 0usize;
    loop {
        if failed.load(Ordering::Relaxed) {
            return Err("soak aborted".to_string());
        }
        if Instant::now() > deadline {
            failed.store(true, Ordering::Relaxed);
            return Err(format!(
                "campaign timed out after {attempts} attempts: {line}"
            ));
        }
        attempts += 1;
        match attempt(root, line) {
            Attempt::Completed(record) => {
                if record.get("resumed").and_then(Value::as_bool) == Some(true) {
                    resumed_ever = true;
                }
                return Ok(CampaignResult {
                    name: get_str(&record, "name"),
                    fingerprint: get_str(&record, "fingerprint"),
                    result_fingerprint: get_str(&record, "result_fingerprint"),
                    resumed_ever,
                    attempts,
                });
            }
            Attempt::Retry { resumed } => {
                resumed_ever |= resumed;
                std::thread::sleep(Duration::from_millis(150));
            }
        }
    }
}

/// One `observe` snapshot from whatever daemon the `--addr-file` under
/// `root` points at. The soak uses this to assert that a drained-out
/// daemon shows zero stuck jobs and latency totals consistent with the
/// campaigns it actually ran.
///
/// # Errors
///
/// Returns a diagnostic when the daemon is unreachable or answers
/// something that is not an `observe` record.
pub fn observe(root: &Path) -> Result<Value, String> {
    let Some(stream) = connect(root) else {
        return Err("cannot connect for observe".to_string());
    };
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("observe clone: {e}"))?;
    writer
        .write_all(b"{\"op\":\"observe\"}\n")
        .and_then(|()| writer.flush())
        .map_err(|e| format!("observe send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut buf = String::new();
    match reader.read_line(&mut buf) {
        Ok(0) => return Err("daemon closed before answering observe".to_string()),
        Ok(_) => {}
        Err(e) => return Err(format!("observe recv: {e}")),
    }
    let record = json::parse(buf.trim()).map_err(|e| format!("observe parse: {e}"))?;
    if get_str(&record, "event") != "observe" {
        return Err(format!("expected an observe record, got: {}", buf.trim()));
    }
    Ok(record)
}

/// Drives one campaign to `completed` against whatever daemon the
/// `--addr-file` under `root` points at, resubmitting across crashes
/// and restarts.
///
/// # Errors
///
/// Returns a diagnostic when `budget` expires first.
pub fn drive_to_completion(
    root: &Path,
    line: &str,
    budget: Duration,
) -> Result<CampaignResult, String> {
    let failed = AtomicBool::new(false);
    run_campaign(root, line, Instant::now() + budget, &failed)
}

/// Runs the full soak: concurrent clients, scheduled `kill -9`s with
/// restarts, then a SIGTERM drain with one job still in flight.
///
/// # Errors
///
/// Returns a diagnostic when the budget expires or the daemon cannot be
/// spawned; protocol violations panic (they are test failures).
#[allow(clippy::too_many_lines)]
pub fn run_soak(bin: &Path, root: &Path, plan: &SoakPlan) -> Result<SoakReport, String> {
    let _ = std::fs::remove_dir_all(root);
    std::fs::create_dir_all(root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let deadline = Instant::now() + plan.budget;
    let failed = Arc::new(AtomicBool::new(false));

    let mut daemon = DaemonProc::spawn(bin, root, plan, plan.failpoints.as_deref())?;
    let mut starts = 1usize;

    // clients
    let campaigns = plan.campaigns();
    let mut client_threads = Vec::new();
    for client in 0..plan.clients {
        let specs: Vec<String> = campaigns
            .iter()
            .skip(client * plan.per_client)
            .take(plan.per_client)
            .map(|c| c.submit_line(plan))
            .collect();
        let root = root.to_path_buf();
        let failed = Arc::clone(&failed);
        client_threads.push(std::thread::spawn(move || {
            specs
                .iter()
                .map(|line| run_campaign(&root, line, deadline, &failed))
                .collect::<Result<Vec<_>, String>>()
        }));
    }

    // kill scheduler: each kill waits for fresh band checkpoints and for
    // an in-flight job that holds one, so it lands mid-campaign, then
    // SIGKILLs and restarts the daemon.
    let mut kills = 0usize;
    for _ in 0..plan.kills {
        let target = bands_seen() + 3;
        while bands_seen() < target || CHECKPOINTED_IN_FLIGHT.load(Ordering::Relaxed) == 0 {
            if Instant::now() > deadline {
                failed.store(true, Ordering::Relaxed);
                break;
            }
            if client_threads
                .iter()
                .all(std::thread::JoinHandle::is_finished)
            {
                break; // everything completed before we could kill again
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        if failed.load(Ordering::Relaxed)
            || client_threads
                .iter()
                .all(std::thread::JoinHandle::is_finished)
        {
            break;
        }
        daemon.kill9();
        kills += 1;
        daemon = DaemonProc::spawn(bin, root, plan, plan.failpoints.as_deref())?;
        starts += 1;
    }

    let mut results = Vec::new();
    for t in client_threads {
        let batch = t
            .join()
            .map_err(|_| "client thread panicked".to_string())??;
        results.extend(batch);
    }

    // SIGTERM drain with one job in flight: submit a fresh campaign,
    // wait until its in-flight attempt holds a band checkpoint, then
    // drain. The job must end `cancelled` (resumable) or `completed`; the
    // daemon must exit 0. An attempt that ends before the drain (an armed
    // failpoint failed the job) is resubmitted, so the drain always meets
    // the job in flight with a checkpoint to resume from.
    let drain_spec = CampaignSpec {
        tenant: "drain".to_string(),
        name: "drain-job".to_string(),
        seed: 999,
    };
    let line = drain_spec.submit_line(plan);
    let landed_results = |root: &Path| {
        std::fs::read_dir(root.join("results"))
            .map(|rd| rd.filter_map(Result::ok).count())
            .unwrap_or(0)
    };
    let results_before = landed_results(root);
    let drain_status = Arc::new(std::sync::Mutex::new(String::new()));
    let draining = Arc::new(AtomicBool::new(false));
    let watcher = {
        let root = root.to_path_buf();
        let drain_status = Arc::clone(&drain_status);
        let draining = Arc::clone(&draining);
        std::thread::spawn(move || loop {
            match attempt(&root, &line) {
                Attempt::Completed(_) => {
                    *drain_status
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) =
                        "completed".to_string();
                    return;
                }
                Attempt::Retry { .. }
                    if !draining.load(Ordering::SeqCst) && Instant::now() < deadline =>
                {
                    std::thread::sleep(Duration::from_millis(150));
                }
                Attempt::Retry { .. } => return,
            }
        })
    };
    // Every client attempt has ended, so the count is the drain job's.
    while CHECKPOINTED_IN_FLIGHT.load(Ordering::Relaxed) == 0
        && !watcher.is_finished()
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(25));
    }
    draining.store(true, Ordering::SeqCst);
    let drain_exit_zero = daemon.sigterm_and_wait();
    let _ = watcher.join();
    let drain_job_status = {
        let status = drain_status
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        if !status.is_empty() {
            status
        } else if landed_results(root) > results_before {
            // The watcher can lose the race against daemon exit: the
            // drain finishes the in-flight job and the socket closes
            // before the terminal record is read. The landed result
            // file, not the terminal record, is the ground truth.
            "completed".to_string()
        } else {
            // not completed: the drain cancelled it at a checkpoint — a
            // restarted daemon must be able to resume and finish it.
            "cancelled".to_string()
        }
    };

    let resumed_campaigns = results.iter().filter(|r| r.resumed_ever).count();
    Ok(SoakReport {
        results,
        kills,
        starts,
        resumed_campaigns,
        drain_exit_zero,
        drain_job_status,
    })
}
