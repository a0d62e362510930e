//! One campaign job, end to end: circuit → flow → checkpointed analyze
//! → schedule → landed result.
//!
//! The runner is deliberately oblivious to sockets and threads — it
//! takes a parsed [`JobRequest`], a [`CheckpointDir`], a
//! [`CancelToken`] and an event callback, and either lands a result
//! file or returns a typed [`JobError`]. The server wraps it in
//! `catch_unwind` and owns retry/terminal-status policy.
//!
//! Crash-safety ordering: the result file is written (atomically, via
//! tmp + rename) *before* the checkpoint directory is removed, so a
//! crash between the two leaves both artifacts and a re-run is a cheap
//! resume, never a lost result.

use std::path::Path;

use fastmon_core::{
    CheckpointDir, CheckpointError, FlowConfig, FlowError, HdfTestFlow, JobStore, Solver,
};
use fastmon_netlist::{bench, generate::CircuitProfile, library, Circuit};
use fastmon_obs::{CancelToken, Record};

use crate::proto::{CircuitSpec, JobRequest};

/// Progress events a running job streams back to its client.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    /// Entered a flow phase (`prepare`, `atpg`, `analyze`, `schedule`).
    Phase {
        /// Phase name.
        phase: &'static str,
    },
    /// The campaign fingerprint is known; checkpoints and the result
    /// file are keyed by it.
    Campaign {
        /// Campaign fingerprint.
        fingerprint: u64,
    },
    /// The campaign resumed from a durable checkpoint.
    Resumed {
        /// First pattern that still needs simulation.
        next_pattern: usize,
        /// Total patterns in the campaign.
        total_patterns: usize,
        /// Trace run id of the interrupted run that wrote the
        /// checkpoint, when its sidecar survived.
        prev_run: Option<u64>,
    },
    /// A band finished and its checkpoint reached disk — this boundary
    /// is a durable resume point.
    Band {
        /// First pattern that still needs simulation.
        next_pattern: usize,
        /// Total patterns in the campaign.
        total_patterns: usize,
    },
    /// Supervised multi-process shard execution progress
    /// (`"shard_procs":true`): one event per supervisor observation,
    /// forwarded from the [`fastmon_core::shardsup`] engine.
    Shard {
        /// Shard index.
        shard: usize,
        /// What happened: `spawned`, `heartbeat`, `resumed`, `stalled`,
        /// `crashed`, `rss_evicted`, `readmitted`, `straggler` or
        /// `completed`.
        kind: &'static str,
        /// Charged respawns for this shard so far.
        respawns: u64,
        /// First pattern still unsimulated within the shard's slice
        /// (0 until the worker reports).
        next_pattern: u64,
        /// Patterns in the shard's slice (0 until known).
        total_patterns: u64,
    },
}

/// What a completed job produced (also landed as
/// `results/<fingerprint>.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Campaign fingerprint (checkpoint/result key).
    pub fingerprint: u64,
    /// Order-independent digest of the full [`DetectionAnalysis`] —
    /// bit-identity is `result_fingerprint` equality.
    ///
    /// [`DetectionAnalysis`]: fastmon_core::DetectionAnalysis
    pub result_fingerprint: u64,
    /// Whether the campaign resumed from a checkpoint.
    pub resumed: bool,
    /// Patterns simulated.
    pub num_patterns: usize,
    /// Candidate faults simulated.
    pub num_faults: usize,
    /// Size of the target set `Φ_tar`.
    pub num_targets: usize,
    /// Targets covered by the selected frequencies.
    pub covered: usize,
    /// Selected capture periods, ascending.
    pub periods: Vec<f64>,
    /// Whether the ILP proved optimality.
    pub optimal: bool,
}

/// Why a job failed. `Locked` and `Flow(Cancelled)` leave a durable
/// checkpoint behind — the job is resumable, not lost.
#[derive(Debug)]
#[non_exhaustive]
pub enum JobError {
    /// The request references an unknown circuit or cannot be built.
    Spec {
        /// What was wrong.
        message: String,
    },
    /// Another live daemon process holds this campaign's checkpoint.
    Locked {
        /// PID of the lock holder (0 = unreadable lock file).
        holder_pid: u32,
    },
    /// The flow itself failed (includes cancellation and injected
    /// faults).
    Flow(FlowError),
    /// The multi-process shard supervisor failed (a shard exhausted its
    /// respawn budget, a worker could not be launched). The per-shard
    /// checkpoints under the job directory stay valid for a resume.
    Shardsup(fastmon_core::ShardsupError),
    /// The result file could not be landed.
    Io {
        /// Operation that failed.
        context: &'static str,
        /// OS diagnostic.
        message: String,
    },
}

impl JobError {
    /// Stable machine-readable discriminant for terminal records.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::Spec { .. } => "spec",
            JobError::Locked { .. } => "locked",
            JobError::Flow(FlowError::Cancelled { .. }) => "cancelled",
            JobError::Flow(_) => "flow",
            JobError::Shardsup(_) => "shardsup",
            JobError::Io { .. } => "io",
        }
    }

    /// Whether a durable checkpoint may exist for a retry to resume
    /// from.
    #[must_use]
    pub fn resumable(&self) -> bool {
        !matches!(self, JobError::Spec { .. })
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Spec { message } => write!(f, "bad job spec: {message}"),
            JobError::Locked { holder_pid } => {
                write!(f, "campaign checkpoint is locked by pid {holder_pid}")
            }
            JobError::Flow(e) => write!(f, "{e}"),
            JobError::Shardsup(e) => write!(f, "shard supervisor: {e}"),
            JobError::Io { context, message } => write!(f, "{context}: {message}"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<FlowError> for JobError {
    fn from(e: FlowError) -> Self {
        JobError::Flow(e)
    }
}

fn spec_err(message: impl Into<String>) -> JobError {
    JobError::Spec {
        message: message.into(),
    }
}

pub(crate) fn build_circuit(spec: &CircuitSpec) -> Result<Circuit, JobError> {
    match spec {
        CircuitSpec::Library { name } => match name.as_str() {
            "s27" => Ok(library::s27()),
            "c17" => Ok(library::c17()),
            other => Err(spec_err(format!(
                "unknown library circuit '{other}' (s27|c17)"
            ))),
        },
        CircuitSpec::Profile { name, scale, seed } => CircuitProfile::named(name)
            .ok_or_else(|| spec_err(format!("unknown circuit profile '{name}'")))?
            .scaled(*scale)
            .generate(*seed)
            .map_err(|e| spec_err(format!("profile generation failed: {e}"))),
        CircuitSpec::Bench { text } => {
            bench::parse(text, "bench").map_err(|e| spec_err(format!("bad .bench text: {e}")))
        }
    }
}

/// Prepares the flow `req` describes on `circuit`: its seed, thread
/// count and fault cap, and its SDF annotation when it carries one. Jobs
/// and supervised shard workers both build their flow here, so a worker
/// rebuilds exactly the campaign its supervisor runs.
pub(crate) fn try_prepare<'c>(
    circuit: &'c Circuit,
    req: &JobRequest,
) -> Result<HdfTestFlow<'c>, FlowError> {
    let config = FlowConfig {
        seed: req.seed,
        threads: req.threads,
        max_faults: req.max_faults,
        ..FlowConfig::default()
    };
    match &req.sdf {
        Some(text) => {
            let annot = fastmon_timing::sdf::parse(text, circuit, config.sigma_rel)?;
            HdfTestFlow::try_prepare_with_annotation(circuit, &config, annot)
        }
        None => HdfTestFlow::try_prepare(circuit, &config),
    }
}

fn acquire(dirs: &CheckpointDir, fingerprint: u64) -> Result<JobStore, JobError> {
    match dirs.acquire(fingerprint) {
        Ok(store) => Ok(store),
        Err(CheckpointError::Locked { holder_pid }) => Err(JobError::Locked { holder_pid }),
        Err(e) => Err(JobError::Flow(e.into())),
    }
}

fn land_result(results_dir: &Path, req: &JobRequest, outcome: &JobOutcome) -> Result<(), JobError> {
    let io = |context: &'static str| {
        move |e: std::io::Error| JobError::Io {
            context,
            message: e.to_string(),
        }
    };
    std::fs::create_dir_all(results_dir).map_err(io("create results dir"))?;
    let mut periods = String::from("[");
    for (i, p) in outcome.periods.iter().enumerate() {
        if i > 0 {
            periods.push(',');
        }
        periods.push_str(&format!("{p}"));
    }
    periods.push(']');
    let line = Record::new()
        .str("tenant", &req.tenant)
        .str("name", &req.name)
        .fingerprint("fingerprint", outcome.fingerprint)
        .fingerprint("result_fingerprint", outcome.result_fingerprint)
        .bool("resumed", outcome.resumed)
        .u64("num_patterns", outcome.num_patterns as u64)
        .u64("num_faults", outcome.num_faults as u64)
        .u64("num_targets", outcome.num_targets as u64)
        .u64("covered", outcome.covered as u64)
        .raw("periods", &periods)
        .bool("optimal", outcome.optimal)
        .finish();
    let path = results_dir.join(format!("{:016x}.json", outcome.fingerprint));
    let tmp = results_dir.join(format!(
        "{:016x}.json.tmp.{}",
        outcome.fingerprint,
        std::process::id()
    ));
    std::fs::write(&tmp, format!("{line}\n")).map_err(io("write result"))?;
    std::fs::rename(&tmp, &path).map_err(io("land result"))?;
    Ok(())
}

/// Runs one campaign job to completion, landing its result under
/// `results_dir` and releasing the checkpoint directory on success.
///
/// When `metrics` is given, the job's own registry (counters *and*
/// latency histograms — band durations, checkpoint save/load) is
/// absorbed into it after the flow finishes, on success and failure
/// alike, so a long-lived daemon registry accumulates every job's
/// telemetry.
///
/// # Errors
///
/// See [`JobError`]; everything except `Spec` leaves the on-disk
/// checkpoint state valid for a later resume.
pub fn run_job(
    req: &JobRequest,
    dirs: &CheckpointDir,
    results_dir: &Path,
    cancel: &CancelToken,
    metrics: Option<&fastmon_obs::MetricsRegistry>,
    on_event: &mut dyn FnMut(JobEvent),
) -> Result<JobOutcome, JobError> {
    on_event(JobEvent::Phase { phase: "prepare" });
    let circuit = build_circuit(&req.circuit)?;
    let flow = try_prepare(&circuit, req)?.with_cancel(cancel.clone());

    let result = run_flow(&flow, req, dirs, results_dir, on_event);
    if let Some(sink) = metrics {
        sink.absorb(flow.metrics());
    }
    result
}

/// Everything after `prepare`: ATPG, checkpointed analyze, schedule,
/// land. Split out so [`run_job`] can absorb the flow's registry on
/// every exit path.
fn run_flow(
    flow: &HdfTestFlow<'_>,
    req: &JobRequest,
    dirs: &CheckpointDir,
    results_dir: &Path,
    on_event: &mut dyn FnMut(JobEvent),
) -> Result<JobOutcome, JobError> {
    on_event(JobEvent::Phase { phase: "atpg" });
    let patterns = flow.try_generate_patterns(req.pattern_budget)?;
    let fingerprint = flow.campaign_fingerprint(&patterns);
    on_event(JobEvent::Campaign { fingerprint });

    on_event(JobEvent::Phase { phase: "analyze" });
    let store = acquire(dirs, fingerprint)?;
    let resumed = std::cell::Cell::new(false);
    let analysis = if req.shard_procs {
        // Each shard runs as its own supervised child OS process;
        // per-shard checkpoint and result files still live inside the
        // job's own (locked) checkpoint directory, so GC and crash
        // recovery see exactly the in-process layout. Children report
        // over a pipe, so this branch streams JobEvent::Shard rows
        // instead of Band events.
        let mut wrapped = |e: JobEvent| {
            if matches!(
                e,
                JobEvent::Shard {
                    kind: "resumed",
                    ..
                }
            ) {
                resumed.set(true);
            }
            on_event(e);
        };
        crate::shard::run_supervised(flow, &patterns, req, store.dir(), &mut wrapped)?
    } else {
        let mut observe = |p: fastmon_core::CampaignProgress| match p {
            fastmon_core::CampaignProgress::Resumed {
                next_pattern,
                total_patterns,
                prev_run,
            } => {
                resumed.set(true);
                on_event(JobEvent::Resumed {
                    next_pattern,
                    total_patterns,
                    prev_run,
                });
            }
            fastmon_core::CampaignProgress::BandCheckpointed {
                next_pattern,
                total_patterns,
            } => on_event(JobEvent::Band {
                next_pattern,
                total_patterns,
            }),
        };
        if req.shards > 1 {
            // Per-shard checkpoints live inside the job's own (locked)
            // checkpoint directory, so crash recovery, GC and the
            // results landing order work exactly as in the single-shard
            // path. The merged analysis is bit-identical to an
            // unsharded run, so the landed result_fingerprint does not
            // depend on the shard count.
            let mut sharded = |_shard: usize, p: fastmon_core::CampaignProgress| observe(p);
            flow.analyze_sharded_resumable_observed(
                &patterns,
                req.shards,
                store.dir(),
                &mut sharded,
            )?
        } else {
            flow.analyze_resumable_observed(&patterns, store.store(), &mut observe)?
        }
    };

    on_event(JobEvent::Phase { phase: "schedule" });
    let schedule = flow
        .try_schedule_with_coverage(&analysis, Solver::Ilp, req.coverage)
        .map_err(FlowError::from)?;

    let outcome = JobOutcome {
        fingerprint,
        result_fingerprint: analysis.result_fingerprint(),
        resumed: resumed.get(),
        num_patterns: analysis.num_patterns,
        num_faults: analysis.faults.len(),
        num_targets: analysis.targets.len(),
        covered: schedule.selection.covered.len(),
        periods: schedule.selection.periods.clone(),
        optimal: schedule.selection.optimal,
    };
    land_result(results_dir, req, &outcome)?;
    store.complete().map_err(|e| JobError::Flow(e.into()))?;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fastmond-job-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn s27_request() -> JobRequest {
        JobRequest {
            tenant: "t".into(),
            name: "j".into(),
            circuit: CircuitSpec::Library { name: "s27".into() },
            sdf: None,
            coverage: 1.0,
            deadline_secs: None,
            pattern_budget: None,
            max_faults: None,
            seed: 1,
            threads: 1,
            shards: 1,
            shard_procs: false,
        }
    }

    #[test]
    fn runs_a_library_job_and_lands_the_result() {
        let root = tmp("run");
        let dirs = CheckpointDir::new(root.join("ckpt"));
        let results = root.join("results");
        let cancel = CancelToken::new();
        let mut events = Vec::new();
        let outcome = run_job(&s27_request(), &dirs, &results, &cancel, None, &mut |e| {
            events.push(e);
        })
        .unwrap();
        assert!(!outcome.resumed);
        assert!(outcome.num_patterns > 0);
        assert!(outcome.covered <= outcome.num_targets);
        // the result landed, keyed by fingerprint
        let path = results.join(format!("{:016x}.json", outcome.fingerprint));
        let text = std::fs::read_to_string(&path).unwrap();
        let value = fastmon_obs::json::parse(text.trim()).unwrap();
        assert_eq!(
            value.get("result_fingerprint").and_then(|v| v.as_str()),
            Some(format!("{:016x}", outcome.result_fingerprint).as_str())
        );
        // the checkpoint directory was released
        assert!(!dirs.dir_for(outcome.fingerprint).exists());
        // phases streamed in order, fingerprint announced before analyze
        let phases: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                JobEvent::Phase { phase } => Some(*phase),
                _ => None,
            })
            .collect();
        assert_eq!(phases, ["prepare", "atpg", "analyze", "schedule"]);
        assert!(events
            .iter()
            .any(|e| matches!(e, JobEvent::Campaign { fingerprint } if *fingerprint == outcome.fingerprint)));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn identical_requests_are_bit_identical() {
        let root = tmp("bitid");
        let dirs = CheckpointDir::new(root.join("ckpt"));
        let cancel = CancelToken::new();
        let a = run_job(
            &s27_request(),
            &dirs,
            &root.join("r1"),
            &cancel,
            None,
            &mut |_| {},
        )
        .unwrap();
        let b = run_job(
            &s27_request(),
            &dirs,
            &root.join("r2"),
            &cancel,
            None,
            &mut |_| {},
        )
        .unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.result_fingerprint, b.result_fingerprint);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn sharded_jobs_land_the_same_result_fingerprint() {
        let root = tmp("shards");
        let dirs = CheckpointDir::new(root.join("ckpt"));
        let cancel = CancelToken::new();
        let serial = run_job(
            &s27_request(),
            &dirs,
            &root.join("r1"),
            &cancel,
            None,
            &mut |_| {},
        )
        .unwrap();
        let mut req = s27_request();
        req.shards = 3;
        let mut bands = 0usize;
        let sharded = run_job(&req, &dirs, &root.join("r2"), &cancel, None, &mut |e| {
            if matches!(e, JobEvent::Band { .. }) {
                bands += 1;
            }
        })
        .unwrap();
        assert_eq!(sharded.fingerprint, serial.fingerprint);
        assert_eq!(sharded.result_fingerprint, serial.result_fingerprint);
        assert_eq!(sharded.num_faults, serial.num_faults);
        assert!(bands > 0, "sharded jobs must still stream band progress");
        // the job's checkpoint directory (with its per-shard files) was
        // released on success
        assert!(!dirs.dir_for(sharded.fingerprint).exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn bad_specs_are_typed_and_not_resumable() {
        let root = tmp("spec");
        let dirs = CheckpointDir::new(root.join("ckpt"));
        let cancel = CancelToken::new();
        let mut req = s27_request();
        req.circuit = CircuitSpec::Library {
            name: "nope".into(),
        };
        let err = run_job(&req, &dirs, &root.join("r"), &cancel, None, &mut |_| {}).unwrap_err();
        assert_eq!(err.kind(), "spec");
        assert!(!err.resumable());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn cancelled_jobs_report_cancelled_and_stay_resumable() {
        let root = tmp("cancel");
        let dirs = CheckpointDir::new(root.join("ckpt"));
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = run_job(
            &s27_request(),
            &dirs,
            &root.join("r"),
            &cancel,
            None,
            &mut |_| {},
        )
        .unwrap_err();
        assert_eq!(err.kind(), "cancelled");
        assert!(err.resumable());
        let _ = std::fs::remove_dir_all(&root);
    }
}
