//! Supervised multi-process shard execution: the one worker shell and the
//! one supervisor entry point shared by `fastmond` and the experiment
//! binaries.
//!
//! A campaign run with `shard_procs` does not run its fault shards as
//! in-process slices: [`supervise`] lands the campaign's [`JobRequest`]
//! as `shard-spec.json` and its test set as `shard-patterns.fmts` in the
//! shard directory, then re-executes a worker binary once per shard
//! (`<bin> --shard-worker i/n`), with the [`fastmon_core::shardsup`]
//! supervisor babysitting the children — newline-JSON heartbeats over
//! the stdout pipe, stall kills, crash respawns with capped exponential
//! backoff, a `/proc`-based RSS watchdog with graceful eviction, and
//! straggler re-dispatch. Each child ([`maybe_run_worker`]) rebuilds the
//! identical flow from the spec (the [`crate::proto::to_submit_line`]
//! round-trip pins the wire format), loads the landed test set instead
//! of re-running ATPG, resumes from its own `shard-i-of-n.ckpt` and lands
//! `shard-i-of-n.result`; the supervisor merges the landed results into
//! an analysis that is bit-identical to the in-process run.
//!
//! The only thing a worker reads from its environment is the shard
//! directory; everything that defines the campaign comes from the spec,
//! so a worker's campaign fingerprint can only diverge from the
//! supervisor's through a corrupt file, which is a typed worker error.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use fastmon_atpg::TestSet;
use fastmon_core::shardsup::{self, worker_fail};
use fastmon_core::{
    fnv1a, CheckpointError, DetectionAnalysis, FlowError, HdfTestFlow, ShardSpec, ShardsupError,
    SupervisorConfig, SupervisorEvent, SupervisorReport,
};
use fastmon_obs::json::Value;

use crate::job::{build_circuit, try_prepare, JobError, JobEvent};
use crate::proto::{self, JobRequest, Request};

/// The spec file a supervised worker rebuilds its campaign from: the
/// request's `submit` line followed by a line holding its FNV-1a
/// checksum in hex. Inside a daemon job it lives in the job's locked
/// checkpoint directory, so the checkpoint GC's lock check protects it
/// alongside the shard files.
pub const SPEC_FILE: &str = "shard-spec.json";
/// Directory holding the spec, the test set and the shard
/// checkpoint/result files.
const ENV_DIR: &str = "FASTMOND_SHARD_DIR";
/// Overrides `fastmond`'s worker executable (tests point it at the built
/// `fastmond`; the default — the current executable — would re-enter the
/// test harness instead).
pub const ENV_WORKER_BIN: &str = "FASTMOND_SHARD_WORKER_BIN";

/// Routes a process that was exec'd as a shard worker into the worker
/// loop. Every binary that can be a worker calls this first in `main`:
/// when `--shard-worker i/n` is on the command line the function never
/// returns — it runs the shard and exits.
pub fn maybe_run_worker() {
    let mut args = std::env::args().skip(1);
    let mut raw = None;
    while let Some(arg) = args.next() {
        if arg == "--shard-worker" {
            raw = args.next();
            break;
        }
    }
    let Some(raw) = raw else { return };
    match ShardSpec::parse(&raw) {
        Ok(spec) => worker_main(spec),
        Err(e) => {
            eprintln!("[shard-worker] {e}");
            std::process::exit(2);
        }
    }
}

/// The worker process: rebuild the flow from the landed spec, then hand
/// over to [`shardsup::run_worker`], which loads the supervisor's test
/// set and runs this shard to a durable result file. Exit codes: `0`
/// landed, [`shardsup::EXIT_EVICTED`] cooperative stop with the
/// checkpoint resumable, `1` error, `2` unusable configuration.
fn worker_main(spec: ShardSpec) -> ! {
    // Handlers go in before any expensive work: a SIGTERM that lands
    // during circuit construction or flow preparation must set the drain
    // flag, not kill the process with the default disposition (which the
    // supervisor would charge as a crash instead of an eviction).
    crate::signals::install_drain_handlers();
    let token = fastmon_obs::CancelToken::linked(crate::signals::drain_flag());
    let Some(dir) = std::env::var_os(ENV_DIR).map(PathBuf::from) else {
        worker_fail(spec, &format!("{ENV_DIR} is not set"));
    };
    let req = match read_spec(&dir) {
        Ok(req) if req.shards == spec.shards => req,
        Ok(req) => worker_fail(
            spec,
            &format!(
                "{} says {} shards, launched as {spec}",
                dir.join(SPEC_FILE).display(),
                req.shards
            ),
        ),
        Err(e) => worker_fail(spec, &e),
    };
    let circuit = match build_circuit(&req.circuit) {
        Ok(c) => c,
        Err(e) => worker_fail(spec, &e.to_string()),
    };
    match try_prepare(&circuit, &req) {
        Ok(flow) => shardsup::run_worker(flow, token, spec, &dir),
        Err(e) => worker_fail(spec, &e.to_string()),
    }
}

/// The spec file's contents for a `submit` line.
fn spec_text(line: &str) -> String {
    format!("{line}\n{:016x}\n", fnv1a(line.as_bytes()))
}

/// Lands `req` as [`SPEC_FILE`] under `dir`, atomically (tmp + rename) so
/// a worker racing a supervisor restart never reads a half-written file.
///
/// # Errors
///
/// [`FlowError::Checkpoint`] when the file cannot be written.
pub fn write_spec(dir: &Path, req: &JobRequest) -> Result<(), FlowError> {
    let path = dir.join(SPEC_FILE);
    let tmp = dir.join(format!("{SPEC_FILE}.tmp.{}", std::process::id()));
    std::fs::write(&tmp, spec_text(&proto::to_submit_line(req)))
        .and_then(|()| std::fs::rename(&tmp, &path))
        .map_err(|e| {
            FlowError::Checkpoint(CheckpointError::Io {
                op: "write shard spec",
                message: format!("{}: {e}", path.display()),
            })
        })
}

/// Reads the request [`write_spec`] landed under `dir`.
///
/// # Errors
///
/// A message naming the file when it is missing, unreadable, fails its
/// checksum or is not a valid `submit` line.
pub fn read_spec(dir: &Path) -> Result<Box<JobRequest>, String> {
    let path = dir.join(SPEC_FILE);
    let bad = |reason: &dyn std::fmt::Display| format!("{}: {reason}", path.display());
    let text = std::fs::read_to_string(&path).map_err(|e| bad(&e))?;
    let line = text
        .split_once('\n')
        .map_or(text.as_str(), |(line, _)| line);
    if text != spec_text(line) {
        return Err(bad(&"checksum mismatch, the spec is corrupt"));
    }
    match proto::parse_request(line) {
        Ok(Request::Submit(req)) => Ok(req),
        Ok(_) => Err(bad(&"not a submit line")),
        Err(e) => Err(bad(&e)),
    }
}

/// Why [`supervise`] failed.
#[derive(Debug)]
pub enum SuperviseError {
    /// The supervisor engine failed (config, launch, budget exhaustion,
    /// cancellation).
    Shardsup(ShardsupError),
    /// Landing the test set or spec failed (before any worker was
    /// spawned), or a landed result could not be loaded or merged.
    Flow(FlowError),
}

/// Runs the campaign of `req` for `flow`/`patterns` as `req.shards`
/// supervised child processes under `dir` and merges the landed results
/// (bit-identical to the in-process run). The test set and the spec are
/// landed under `dir` once, before any child starts.
///
/// `worker_bin` overrides the child executable; the default is the
/// current executable, whose `main` must call [`maybe_run_worker`] first.
/// Respawned attempts run without `FASTMON_FAILPOINTS` and
/// `FASTMON_SHARD_HANG`: chaos injections target first attempts only.
/// The supervisor inherits the flow's cancel token and records its
/// counters in the flow's registry (`robustness.shardsup.*`).
///
/// # Errors
///
/// [`SuperviseError::Shardsup`] when the supervisor fails (unusable
/// `FASTMON_SHARD_*` knobs, an unknown worker executable, a shard
/// exhausting its respawn budget, cancellation),
/// [`SuperviseError::Flow`] when the test set or spec cannot be landed
/// or a landed result cannot be loaded or merged.
pub fn supervise(
    flow: &HdfTestFlow<'_>,
    patterns: &TestSet,
    req: &JobRequest,
    dir: &Path,
    worker_bin: Option<&Path>,
    on_event: &mut dyn FnMut(SupervisorEvent),
) -> Result<(DetectionAnalysis, SupervisorReport), SuperviseError> {
    let shards = req.shards;
    let sup_config = SupervisorConfig::from_env(shards).map_err(SuperviseError::Shardsup)?;
    flow.land_shard_patterns(patterns, dir)
        .and_then(|()| write_spec(dir, req))
        .map_err(SuperviseError::Flow)?;
    let exe = match worker_bin {
        Some(p) => p.to_path_buf(),
        None => std::env::current_exe().map_err(|e| {
            SuperviseError::Shardsup(ShardsupError::Launch {
                shard: 0,
                message: format!("cannot determine the worker executable: {e}"),
            })
        })?,
    };

    let mut launch = |shard: usize, attempt: u32| -> std::io::Result<Child> {
        let mut cmd = Command::new(&exe);
        cmd.arg("--shard-worker")
            .arg(format!("{shard}/{shards}"))
            .env(ENV_DIR, dir)
            // The supervisor owns cancellation and SIGTERMs its children
            // itself; a worker must not race the parent's deadline.
            .env_remove("FASTMON_DEADLINE_SECS")
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if attempt > 0 {
            // Failpoints are chaos injections for first attempts only: a
            // respawn is the recovery path under test, not a new target.
            cmd.env_remove("FASTMON_FAILPOINTS");
            cmd.env_remove("FASTMON_SHARD_HANG");
        }
        cmd.spawn()
    };
    let mut is_complete = |shard: usize| flow.shard_result_landed(patterns, shard, shards, dir);

    let report = shardsup::run(
        &sup_config,
        &mut launch,
        &mut is_complete,
        on_event,
        flow.cancel_token(),
        Some(flow.metrics()),
    )
    .map_err(SuperviseError::Shardsup)?;
    let analysis = flow
        .merge_shard_results(patterns, shards, dir)
        .map_err(SuperviseError::Flow)?;
    Ok((analysis, report))
}

/// Runs a `"shard_procs":true` job's campaign through [`supervise`]
/// under the job's locked checkpoint directory.
///
/// Supervisor observations stream out as [`JobEvent::Shard`] rows, so
/// the server's flight recorder and the `observe` snapshot see per-shard
/// progress and respawn counts without touching the worker pipes. A
/// daemon drain SIGTERMs the children and surfaces as a resumable
/// `cancelled` job. The supervisor's counters land in the flow's
/// registry, which [`crate::job::run_job`] absorbs into the daemon
/// registry.
pub(crate) fn run_supervised(
    flow: &HdfTestFlow<'_>,
    patterns: &TestSet,
    req: &JobRequest,
    dir: &Path,
    on_event: &mut dyn FnMut(JobEvent),
) -> Result<DetectionAnalysis, JobError> {
    // Per-shard accounting the observe snapshot renders: last reported
    // progress and charged respawns, carried on every forwarded event.
    let mut respawns = vec![0u64; req.shards];
    let mut progress = vec![(0u64, 0u64); req.shards];
    let mut forward = |event: SupervisorEvent| {
        let (shard, kind) = match &event {
            SupervisorEvent::Spawned { shard, attempt, .. } => {
                respawns[*shard] = u64::from(*attempt);
                (*shard, "spawned")
            }
            SupervisorEvent::Heartbeat { shard, value, .. } => {
                let field = |key| value.get(key).and_then(Value::as_u64);
                if let (Some(next), Some(total)) = (field("next_pattern"), field("total_patterns"))
                {
                    progress[*shard] = (next, total);
                }
                let kind = match value.get("event").and_then(Value::as_str) {
                    Some("shard_resumed") => "resumed",
                    _ => "heartbeat",
                };
                (*shard, kind)
            }
            SupervisorEvent::Stalled { shard, .. } => (*shard, "stalled"),
            SupervisorEvent::Crashed { shard, .. } => (*shard, "crashed"),
            SupervisorEvent::Backoff { shard, .. } => (*shard, "backoff"),
            SupervisorEvent::RssEvicted { shard, .. } => (*shard, "rss_evicted"),
            SupervisorEvent::Readmitted { shard, .. } => (*shard, "readmitted"),
            SupervisorEvent::StragglerRedispatched { shard, .. } => (*shard, "straggler"),
            SupervisorEvent::Completed { shard, .. } => (*shard, "completed"),
            _ => return,
        };
        let (next_pattern, total_patterns) = progress[shard];
        on_event(JobEvent::Shard {
            shard,
            kind,
            respawns: respawns[shard],
            next_pattern,
            total_patterns,
        });
    };

    let worker_bin = std::env::var_os(ENV_WORKER_BIN).map(PathBuf::from);
    match supervise(
        flow,
        patterns,
        req,
        dir,
        worker_bin.as_deref(),
        &mut forward,
    ) {
        Ok((analysis, _)) => Ok(analysis),
        // An unusable FASTMON_SHARD_* knob is a configuration problem of
        // the submission environment — typed like any other bad spec.
        Err(SuperviseError::Shardsup(e @ ShardsupError::Config { .. })) => Err(JobError::Spec {
            message: e.to_string(),
        }),
        // A drain/deadline cancellation keeps the single-shard contract:
        // terminal status "cancelled", checkpoints resumable.
        Err(SuperviseError::Shardsup(ShardsupError::Cancelled { phase })) => {
            Err(JobError::Flow(FlowError::Cancelled { phase }))
        }
        Err(SuperviseError::Shardsup(e)) => Err(JobError::Shardsup(e)),
        Err(SuperviseError::Flow(e)) => Err(JobError::Flow(e)),
    }
}
