//! Multi-process shard execution for the experiment binaries.
//!
//! With `FASTMON_SHARD_PROCS=1` a sharded campaign no longer runs its
//! fault slices in-process: the binary re-executes itself once per shard
//! (`<bin> --shard-worker i/n`) and a supervisor
//! ([`fastmon_core::shardsup`]) babysits the children — newline-JSON
//! heartbeats over the stdout pipe, stall kills, crash respawns with
//! capped exponential backoff, a `/proc`-based RSS watchdog with
//! graceful eviction, and straggler re-dispatch. Each child resumes from
//! its own `shard-i-of-n.ckpt` and lands `shard-i-of-n.result`; the
//! supervisor merges the landed results into a [`DetectionAnalysis`]
//! that is bit-identical to the serial run.
//!
//! Worker processes are a thin protocol shell:
//!
//! * `--shard-worker i/n` (or `FASTMON_SHARD_WORKER=i/n`) routes `main`
//!   into [`maybe_run_worker`] before any experiment logic runs.
//! * The circuit is reconstructed from `FASTMON_SHARD_PROFILE` +
//!   `FASTMON_SHARD_SCALE` (f64 `Display` round-trips exactly) and the
//!   inherited `FASTMON_*` configuration, so the child's campaign
//!   fingerprint matches the supervisor's — any divergence makes the
//!   result file fail validation instead of corrupting the merge.
//! * The test set is not regenerated: the supervisor lands it once as
//!   `shard-patterns.fmts` before spawning anyone, and every worker loads
//!   it. A missing or corrupt artifact is a worker error (`shard_error`,
//!   exit `1`, a charged respawn); there is no ATPG fallback.
//! * `SIGTERM` trips a cooperative cancel token that is attached only
//!   once the patterns are loaded: an RSS eviction always lands at least
//!   one band of durable progress, which is what makes evict/readmit
//!   livelock-free.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use fastmon_atpg::TestSet;
use fastmon_core::shardsup::{self, worker_fail};
use fastmon_core::{
    DetectionAnalysis, FlowError, HdfTestFlow, ShardSpec, ShardsupError, SupervisorConfig,
    SupervisorEvent, SupervisorReport,
};
use fastmon_netlist::generate::paper_suite;

use crate::ExperimentConfig;

/// Environment variable that routes a process into the worker entry
/// point (equivalent to the `--shard-worker i/n` flag).
pub const ENV_WORKER: &str = "FASTMON_SHARD_WORKER";
/// Directory holding the shard checkpoint/result files.
pub const ENV_DIR: &str = "FASTMON_SHARD_DIR";
/// Paper-suite profile name the worker reconstructs.
pub const ENV_PROFILE: &str = "FASTMON_SHARD_PROFILE";
/// Scale factor applied to the profile (stringified f64).
pub const ENV_SCALE: &str = "FASTMON_SHARD_SCALE";

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
    /// Merging or verifying the landed shard results failed.
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

/// Routes a process that was exec'd as a shard worker into the worker
/// loop. Call this first in every experiment binary's `main`: when
/// `--shard-worker i/n` is on the command line (or [`ENV_WORKER`] is
/// set) the function never returns — it runs the shard and exits.
pub fn maybe_run_worker() {
    let mut args = std::env::args().skip(1);
    let mut raw = None;
    while let Some(arg) = args.next() {
        if arg == "--shard-worker" {
            raw = args.next();
            break;
        }
    }
    if raw.is_none() {
        raw = std::env::var(ENV_WORKER).ok();
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

fn env_or(spec: ShardSpec, key: &str) -> String {
    match std::env::var(key) {
        Ok(v) => v,
        Err(_) => worker_fail(spec, &format!("{key} is not set")),
    }
}

/// The worker process: reconstruct the circuit and flow, then hand over
/// to [`shardsup::run_worker`], which loads the supervisor's test set and
/// runs this shard to a landed result file. Exit codes: `0` landed,
/// [`shardsup::EXIT_EVICTED`] cooperative stop with the checkpoint
/// resumable, `1` error, `2` unusable configuration.
fn worker_main(spec: ShardSpec) -> ! {
    // Handlers go in before any expensive work: a SIGTERM that lands
    // during circuit generation or flow preparation must set the drain
    // flag, not kill the process with the default disposition (which the
    // supervisor would charge as a crash instead of an eviction).
    fastmon_daemon::signals::install_drain_handlers();
    let token = fastmon_obs::CancelToken::linked(fastmon_daemon::signals::drain_flag());
    let dir = PathBuf::from(env_or(spec, ENV_DIR));
    let profile_name = env_or(spec, ENV_PROFILE);
    let raw_scale = env_or(spec, ENV_SCALE);
    let Ok(scale) = raw_scale.parse::<f64>() else {
        worker_fail(spec, &format!("{ENV_SCALE}={raw_scale:?} is not a number"));
    };
    let config = match ExperimentConfig::try_from_env() {
        Ok(c) => c,
        Err(e) => worker_fail(spec, &e.to_string()),
    };
    let Some(base) = paper_suite().into_iter().find(|p| p.name == profile_name) else {
        worker_fail(spec, &format!("unknown circuit profile {profile_name:?}"));
    };
    let circuit = match base.scaled(scale).generate(config.seed) {
        Ok(c) => c,
        Err(e) => worker_fail(spec, &format!("cannot generate circuit: {e}")),
    };
    let flow = HdfTestFlow::prepare(&circuit, &config.flow_config());

    // Chaos knob: FASTMON_SHARD_HANG="<shard>:<flag-path>" silences this
    // worker forever at its first band boundary — once, arbitrated by
    // `create_new` on the flag file — so tests can prove the stall
    // watchdog kills it and the respawn resumes from the checkpoint.
    let hang_flag = std::env::var("FASTMON_SHARD_HANG").ok().and_then(|v| {
        let (who, path) = v.split_once(':')?;
        (who.parse::<usize>().ok()? == spec.shard).then(|| PathBuf::from(path))
    });
    let mut hang = hang_flag.map(|flag| {
        move || {
            let created = std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&flag)
                .is_ok();
            if created {
                loop {
                    std::thread::sleep(std::time::Duration::from_secs(3600));
                }
            }
        }
    });
    shardsup::run_worker(
        flow,
        token,
        spec,
        &dir,
        hang.as_mut().map(|h| h as &mut dyn FnMut()),
    )
}

/// Runs the campaign for `flow`/`patterns` as `config.shards` supervised
/// child processes under `dir` and merges the landed results. `patterns`
/// is landed under `dir` once, before any child starts, and every worker
/// simulates exactly that set.
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
/// cancellation, a worker that cannot load the landed test set),
/// [`SuperviseError::Flow`] when the test set cannot be landed (before
/// any worker is spawned) or a landed result cannot be loaded or merged,
/// [`SuperviseError::Parity`] when
/// `FASTMON_SHARD_VERIFY=1` finds a fingerprint divergence.
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
    let shards = config.shards;
    let sup_config = SupervisorConfig::from_env(shards).map_err(SuperviseError::Shardsup)?;
    let exe = match worker_bin {
        Some(p) => p.to_path_buf(),
        None => std::env::current_exe().map_err(|e| {
            SuperviseError::Shardsup(ShardsupError::Launch {
                shard: 0,
                message: format!("cannot determine the worker executable: {e}"),
            })
        })?,
    };

    flow.land_shard_patterns(patterns, dir)
        .map_err(SuperviseError::Flow)?;

    let mut launch = |shard: usize, attempt: u32| -> std::io::Result<Child> {
        let mut cmd = Command::new(&exe);
        cmd.arg("--shard-worker")
            .arg(format!("{shard}/{shards}"))
            .env(ENV_DIR, dir)
            .env(ENV_PROFILE, profile_name)
            .env(ENV_SCALE, scale.to_string())
            // The campaign-defining knobs are pinned explicitly so the
            // child's fingerprint matches even when the parent's config
            // did not come from the environment.
            .env("FASTMON_SEED", config.seed.to_string())
            .env("FASTMON_MAX_FAULTS", config.max_faults.to_string())
            .env("FASTMON_TARGET_GATES", config.target_gates.to_string())
            .env(
                "FASTMON_ILP_SECS",
                config.ilp_deadline.as_secs().to_string(),
            )
            .env("FASTMON_SHARDS", shards.to_string())
            // Children never recurse into supervision, never verify, and
            // never race the parent's deadline — the supervisor owns
            // cancellation and SIGTERMs them itself.
            .env_remove("FASTMON_SHARD_PROCS")
            .env_remove("FASTMON_SHARD_VERIFY")
            .env_remove("FASTMON_DEADLINE_SECS")
            .env_remove(ENV_WORKER)
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
    let mut forward = |event: SupervisorEvent| on_event(&event);

    let report = shardsup::run(
        &sup_config,
        &mut launch,
        &mut is_complete,
        &mut forward,
        flow.cancel_token(),
        Some(flow.metrics()),
    )
    .map_err(SuperviseError::Shardsup)?;

    let analysis = flow
        .merge_shard_results(patterns, shards, dir)
        .map_err(SuperviseError::Flow)?;

    let verified_against = if std::env::var("FASTMON_SHARD_VERIFY").is_ok_and(|v| v == "1") {
        let reference = flow
            .try_analyze_sharded(patterns, shards)
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
