//! Multi-process shard execution for the experiment binaries.
//!
//! With `FASTMON_SHARD_PROCS=1` a sharded campaign no longer runs its
//! fault slices in-process: the binary re-executes itself once per shard
//! (`<bin> --shard-worker i/n`) under the shard supervisor
//! ([`fastmon_core::shardsup`]), which babysits the children —
//! newline-JSON heartbeats over the stdout pipe, stall kills, crash
//! respawns with capped exponential backoff, a `/proc`-based RSS
//! watchdog with graceful eviction, and straggler re-dispatch. Each
//! child resumes from its own `shard-i-of-n.ckpt` and lands
//! `shard-i-of-n.result`; the supervisor merges the landed results into
//! a [`DetectionAnalysis`] that is bit-identical to the serial run.
//!
//! The experiment binaries speak the same protocol as `fastmond`
//! ([`fastmon_daemon::shard`]): [`supervise`] describes the campaign as
//! a daemon [`JobRequest`] and lands it as `shard-spec.json` next to the
//! test set (`shard-patterns.fmts`), and a worker rebuilds its circuit
//! and flow from that spec alone — no profile, scale or seed travels
//! through the environment.

use std::path::Path;

use fastmon_atpg::TestSet;
use fastmon_core::{
    DetectionAnalysis, FlowError, HdfTestFlow, ShardsupError, SupervisorEvent, SupervisorReport,
};
use fastmon_daemon::proto::{CircuitSpec, JobRequest};
use fastmon_daemon::shard;

use crate::ExperimentConfig;

/// Routes a process that was exec'd as a shard worker into the worker
/// loop; call it first in every experiment binary's `main`.
pub use fastmon_daemon::shard::maybe_run_worker;

/// A supervised multi-process campaign that finished.
#[derive(Debug)]
pub struct SupervisedRun {
    /// The merged analysis (bit-identical to the serial run).
    pub analysis: DetectionAnalysis,
    /// Supervisor counters (spawns, respawns, evictions, ...).
    pub report: SupervisorReport,
    /// The in-process reference fingerprint, when `FASTMON_SHARD_VERIFY=1`
    /// re-ran the campaign with [`HdfTestFlow::try_analyze_sharded`] and
    /// compared (a mismatch is [`SuperviseError::Parity`], not a value
    /// here).
    pub verified_against: Option<u64>,
}

/// Failures of a supervised campaign.
#[derive(Debug)]
pub enum SuperviseError {
    /// The supervisor engine failed (config, launch, budget exhaustion,
    /// cancellation).
    Shardsup(ShardsupError),
    /// Landing the test set or spec, or merging or verifying the landed
    /// shard results failed.
    Flow(FlowError),
    /// The merged fingerprint diverged from the in-process reference —
    /// a determinism bug, never expected.
    Parity {
        /// Fingerprint of the merged shard results.
        merged: u64,
        /// Fingerprint of the in-process `try_analyze_sharded` reference.
        reference: u64,
    },
}

impl std::fmt::Display for SuperviseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuperviseError::Shardsup(e) => write!(f, "{e}"),
            SuperviseError::Flow(e) => write!(f, "{e}"),
            SuperviseError::Parity { merged, reference } => write!(
                f,
                "merged shard fingerprint {merged:016x} diverged from the \
                 in-process reference {reference:016x}"
            ),
        }
    }
}

impl std::error::Error for SuperviseError {}

/// Runs the campaign for `flow`/`patterns` as `config.shards` supervised
/// child processes under `dir` and merges the landed results, through
/// [`fastmon_daemon::shard::supervise`]. The campaign is described as
/// profile `profile_name` at `scale`, generated from `config.seed`;
/// workers run on every core. `patterns` and that spec are landed under
/// `dir` once, before any child starts, and every worker simulates
/// exactly that set.
///
/// `worker_bin` overrides the child executable (tests point it at a
/// specific experiment binary); the default is the current executable,
/// whose `main` must call [`maybe_run_worker`] first. `on_event`
/// observes every [`SupervisorEvent`] after the built-in accounting.
///
/// The supervisor inherits the flow's cancel token (a
/// `FASTMON_DEADLINE_SECS` deadline or an explicit
/// [`HdfTestFlow::with_cancel`]) and records its counters in the flow's
/// [`fastmon_obs::MetricsRegistry`] under `robustness.shardsup.*`.
///
/// # Errors
///
/// [`SuperviseError::Shardsup`] when the supervisor fails (unusable
/// `FASTMON_SHARD_*` knobs, a shard exhausting its respawn budget,
/// cancellation, a worker that cannot load the landed spec or test set),
/// [`SuperviseError::Flow`] when the test set or spec cannot be landed
/// (before any worker is spawned) or a landed result cannot be loaded or
/// merged, [`SuperviseError::Parity`] when `FASTMON_SHARD_VERIFY=1` finds
/// a fingerprint divergence.
#[allow(clippy::too_many_arguments)]
pub fn supervise(
    flow: &HdfTestFlow<'_>,
    patterns: &TestSet,
    config: &ExperimentConfig,
    profile_name: &str,
    scale: f64,
    dir: &Path,
    worker_bin: Option<&Path>,
    on_event: &mut dyn FnMut(&SupervisorEvent),
) -> Result<SupervisedRun, SuperviseError> {
    let req = JobRequest {
        tenant: "bench".to_owned(),
        name: profile_name.to_owned(),
        circuit: CircuitSpec::Profile {
            name: profile_name.to_owned(),
            scale,
            seed: config.seed,
        },
        sdf: None,
        coverage: 1.0,
        deadline_secs: None,
        pattern_budget: None,
        max_faults: Some(config.max_faults),
        seed: config.seed,
        threads: 0,
        shards: config.shards,
        shard_procs: true,
    };
    let (analysis, report) =
        shard::supervise(flow, patterns, &req, dir, worker_bin, &mut |e| on_event(&e)).map_err(
            |e| match e {
                shard::SuperviseError::Shardsup(e) => SuperviseError::Shardsup(e),
                shard::SuperviseError::Flow(e) => SuperviseError::Flow(e),
            },
        )?;

    let verified_against = if std::env::var("FASTMON_SHARD_VERIFY").is_ok_and(|v| v == "1") {
        let reference = flow
            .try_analyze_sharded(patterns, config.shards)
            .map_err(SuperviseError::Flow)?
            .result_fingerprint();
        let merged = analysis.result_fingerprint();
        if merged != reference {
            return Err(SuperviseError::Parity { merged, reference });
        }
        Some(reference)
    } else {
        None
    };

    Ok(SupervisedRun {
        analysis,
        report,
        verified_against,
    })
}
