//! Supervised multi-process shard execution for daemon jobs.
//!
//! A job submitted with `"shard_procs":true` does not run its fault
//! shards as in-process slices: the daemon lands the full [`JobRequest`]
//! as `shard-spec.json` inside the job's locked checkpoint directory and
//! re-executes its own binary once per shard (`fastmond --shard-worker
//! i/n`), with the [`fastmon_core::shardsup`] supervisor babysitting the
//! children — newline-JSON heartbeats over the stdout pipe, stall kills,
//! crash respawns with capped exponential backoff, a `/proc`-based RSS
//! watchdog with graceful eviction, and straggler re-dispatch. Each
//! child rebuilds the identical flow from the spec file (the
//! [`crate::proto::to_submit_line`] round-trip pins the wire format),
//! loads the test set the supervisor landed next to it
//! (`shard-patterns.fmts`) instead of re-running ATPG, resumes from its
//! own `shard-i-of-n.ckpt` and lands
//! `shard-i-of-n.result`; the supervisor merges the landed results into
//! an analysis that is bit-identical to the in-process run.
//!
//! Supervisor observations are forwarded as [`JobEvent::Shard`] rows, so
//! the server's flight recorder and the `observe` snapshot see per-shard
//! progress and respawn counts without touching the worker pipes.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use fastmon_atpg::TestSet;
use fastmon_core::shardsup::{self, worker_fail};
use fastmon_core::{
    DetectionAnalysis, FlowConfig, FlowError, HdfTestFlow, ShardSpec, ShardsupError,
    SupervisorConfig, SupervisorEvent,
};
use fastmon_obs::json::Value;

use crate::job::{build_circuit, JobError, JobEvent};
use crate::proto::{self, JobRequest, Request};

/// The job spec file a supervised worker rebuilds its campaign from,
/// landed inside the job's locked checkpoint directory (so the
/// checkpoint GC's lock check protects it alongside the shard files).
pub const SPEC_FILE: &str = "shard-spec.json";
/// Directory holding the spec and the shard checkpoint/result files.
const ENV_DIR: &str = "FASTMOND_SHARD_DIR";
/// Overrides the worker executable (tests point it at the built
/// `fastmond`; the default — the current executable — would re-enter the
/// test harness instead).
pub const ENV_WORKER_BIN: &str = "FASTMOND_SHARD_WORKER_BIN";

/// Routes a process that was exec'd as a shard worker into the worker
/// loop. `fastmond`'s `main` calls this before argument parsing: when
/// `--shard-worker i/n` is on the command line the function never
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

fn read_spec(spec: ShardSpec, dir: &Path) -> Box<JobRequest> {
    let path = dir.join(SPEC_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => worker_fail(spec, &format!("cannot read {}: {e}", path.display())),
    };
    match proto::parse_request(text.trim()) {
        Ok(Request::Submit(req)) => req,
        Ok(_) => worker_fail(spec, &format!("{} is not a submit line", path.display())),
        Err(e) => worker_fail(spec, &format!("bad spec {}: {e}", path.display())),
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
    let req = read_spec(spec, &dir);
    if req.shards != spec.shards {
        worker_fail(
            spec,
            &format!("spec says {} shards, launched as {spec}", req.shards),
        );
    }
    let circuit = match build_circuit(&req.circuit) {
        Ok(c) => c,
        Err(e) => worker_fail(spec, &e.to_string()),
    };
    let config = FlowConfig {
        seed: req.seed,
        threads: req.threads,
        max_faults: req.max_faults,
        ..FlowConfig::default()
    };
    let prepared = match &req.sdf {
        Some(text) => fastmon_timing::sdf::parse(text, &circuit, config.sigma_rel)
            .map_err(FlowError::from)
            .and_then(|annot| HdfTestFlow::try_prepare_with_annotation(&circuit, &config, annot)),
        None => HdfTestFlow::try_prepare(&circuit, &config),
    };
    let flow = match prepared {
        Ok(f) => f,
        Err(e) => worker_fail(spec, &e.to_string()),
    };
    shardsup::run_worker(flow, token, spec, &dir, None)
}

/// Lands the job spec atomically (tmp + rename) so a worker racing a
/// supervisor restart never reads a half-written file.
fn write_spec(dir: &Path, req: &JobRequest) -> Result<(), JobError> {
    let io = |e: std::io::Error| JobError::Io {
        context: "write shard spec",
        message: e.to_string(),
    };
    let path = dir.join(SPEC_FILE);
    let tmp = dir.join(format!("{SPEC_FILE}.tmp.{}", std::process::id()));
    std::fs::write(&tmp, format!("{}\n", proto::to_submit_line(req))).map_err(io)?;
    std::fs::rename(&tmp, &path).map_err(io)
}

/// Runs a `"shard_procs":true` job's campaign as `req.shards` supervised
/// child processes under the job's locked checkpoint directory and
/// merges the landed results (bit-identical to the in-process run).
///
/// Supervisor observations stream out as [`JobEvent::Shard`]; the
/// supervisor inherits the flow's cancel token, so a daemon drain
/// SIGTERMs the children and surfaces as a resumable `cancelled` job.
/// Its counters land in the flow's registry (`robustness.shardsup.*`),
/// which [`crate::job::run_job`] absorbs into the daemon registry.
pub(crate) fn run_supervised(
    flow: &HdfTestFlow<'_>,
    patterns: &TestSet,
    req: &JobRequest,
    dir: &Path,
    on_event: &mut dyn FnMut(JobEvent),
) -> Result<DetectionAnalysis, JobError> {
    let shards = req.shards;
    let sup_config = SupervisorConfig::from_env(shards).map_err(|e| match e {
        // An unusable FASTMON_SHARD_* knob is a configuration problem of
        // the submission environment — typed like any other bad spec.
        ShardsupError::Config { .. } => JobError::Spec {
            message: e.to_string(),
        },
        other => JobError::Shardsup(other),
    })?;
    write_spec(dir, req)?;
    flow.land_shard_patterns(patterns, dir)
        .map_err(JobError::Flow)?;
    let exe = match std::env::var_os(ENV_WORKER_BIN).map(PathBuf::from) {
        Some(p) => p,
        None => std::env::current_exe().map_err(|e| {
            JobError::Shardsup(ShardsupError::Launch {
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

    // Per-shard accounting the observe snapshot renders: last reported
    // progress and charged respawns, carried on every forwarded event.
    let mut respawns = vec![0u64; shards];
    let mut progress = vec![(0u64, 0u64); shards];
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

    shardsup::run(
        &sup_config,
        &mut launch,
        &mut is_complete,
        &mut forward,
        flow.cancel_token(),
        Some(flow.metrics()),
    )
    .map_err(|e| match e {
        // A drain/deadline cancellation keeps the single-shard contract:
        // terminal status "cancelled", checkpoints resumable.
        ShardsupError::Cancelled { phase } => JobError::Flow(FlowError::Cancelled { phase }),
        other => JobError::Shardsup(other),
    })?;

    flow.merge_shard_results(patterns, shards, dir)
        .map_err(JobError::Flow)
}
