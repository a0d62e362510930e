//! Chaos suite for the multi-process shard supervisor: real worker
//! processes (the `perf_snapshot` binary re-exec'd as `--shard-worker`)
//! simulating a real (tiny) paper-suite campaign, abused with kill -9,
//! armed failpoints, a forced stall, a forced RSS eviction and a
//! supervisor restart mid-campaign — every merged result must be
//! bit-identical to the clean serial baseline. Workers rebuild their
//! campaign from the spec and load the test set the supervisor landed; a
//! corrupt, missing or foreign artifact and an unusable shard directory
//! must fail with typed errors, never hang or merge.
//!
//! Environment knobs (`FASTMON_SHARD_*`, `FASTMON_FAILPOINTS`) are
//! process-global and inherited by the spawned workers, so all scenarios
//! run inside one test body, strictly serialized, with the variables
//! cleared between scenarios.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::time::Duration;

use fastmon_bench::shardsup::{supervise, SuperviseError};
use fastmon_bench::ExperimentConfig;
use fastmon_core::shardsup::send_signal;
use fastmon_core::{FlowError, HdfTestFlow, ShardsupError, SupervisorEvent};
use fastmon_netlist::generate::CircuitProfile;

const SIGKILL: i32 = 9;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fastmon-shardsup-chaos-{tag}-{}-{}",
        std::process::id(),
        fastmon_obs::run_id(),
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn supervised_chaos_converges_to_the_serial_fingerprint() {
    // Scenarios must not leak knobs into one another (or into a rerun
    // after a failure), so start from a known-clean slate.
    for key in [
        "FASTMON_FAILPOINTS",
        "FASTMON_SHARD_HANG",
        "FASTMON_SHARD_STALL_SECS",
        "FASTMON_SHARD_RSS_BYTES",
        "FASTMON_SHARD_RSS_POLL_MS",
        "FASTMON_SHARD_JOBS",
        "FASTMON_SHARD_VERIFY",
    ] {
        std::env::remove_var(key);
    }
    // Charged respawns back off; keep the suite fast.
    std::env::set_var("FASTMON_SHARD_BACKOFF_MS", "1");

    let config = ExperimentConfig {
        target_gates: 4000,
        max_faults: 8000,
        circuits: vec![],
        seed: 1,
        ilp_deadline: Duration::from_secs(5),
        shards: 3,
        shard_procs: true,
    };
    let scale = 0.05;
    let base = CircuitProfile::named("s9234").unwrap();
    let profile = base.scaled(scale);
    let circuit = profile.generate(config.seed).unwrap();
    let flow = HdfTestFlow::prepare(&circuit, &config.flow_config());
    let patterns = flow
        .try_generate_patterns(Some(profile.pattern_budget))
        .unwrap();
    // The clean serial baseline every chaotic run must reproduce bit for
    // bit. Computing it first also initializes the in-process failpoint
    // schedule (empty), so arming FASTMON_FAILPOINTS later reaches only
    // the spawned workers, never this process.
    let golden = flow.try_analyze(&patterns).unwrap().result_fingerprint();
    let worker = Path::new(env!("CARGO_BIN_EXE_perf_snapshot"));
    let name = &profile.name;

    // ---- scenario 1: supervisor restart mid-campaign --------------------
    // Phase A is cancelled after a few heartbeats (children SIGTERMed,
    // checkpoints left resumable); phase B restarts the supervisor over
    // the same directory and must finish from the landed state.
    {
        let dir = tmp("restart");
        let token = fastmon_obs::CancelToken::new();
        let flow_a =
            HdfTestFlow::prepare(&circuit, &config.flow_config()).with_cancel(token.clone());
        let mut heartbeats = 0u32;
        let outcome = supervise(
            &flow_a,
            &patterns,
            &config,
            name,
            scale,
            &dir,
            Some(worker),
            &mut |event| {
                if matches!(event, SupervisorEvent::Heartbeat { .. }) {
                    heartbeats += 1;
                    if heartbeats == 3 {
                        token.cancel();
                    }
                }
            },
        );
        match outcome {
            Err(SuperviseError::Shardsup(ShardsupError::Cancelled { .. })) => {}
            // A tiny campaign can legitimately finish before the third
            // heartbeat trips the token; that still exercises phase B as
            // a pure already-landed restart.
            Ok(_) => {}
            Err(e) => panic!("phase A must cancel or complete, got {e}"),
        }
        let run = supervise(
            &flow,
            &patterns,
            &config,
            name,
            scale,
            &dir,
            Some(worker),
            &mut |_| {},
        )
        .expect("restarted supervisor must finish the campaign");
        assert_eq!(
            run.analysis.result_fingerprint(),
            golden,
            "restart: merged fingerprint diverged from the serial baseline"
        );
        assert_eq!(run.report.shards_completed, config.shards as u64);
        eprintln!(
            "[chaos] restart: phase B finished from landed state, report {:?}",
            run.report
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- scenario 2: two random kill -9s, verify parity in-process ------
    {
        let dir = tmp("kill9");
        std::env::set_var("FASTMON_SHARD_VERIFY", "1");
        let mut killed: Vec<usize> = Vec::new();
        let run = supervise(
            &flow,
            &patterns,
            &config,
            name,
            scale,
            &dir,
            Some(worker),
            &mut |event| {
                if let SupervisorEvent::Spawned {
                    shard,
                    attempt: 0,
                    pid,
                } = event
                {
                    if killed.len() < 2 && !killed.contains(shard) {
                        // SIGKILL immediately after spawn: no result can
                        // have landed, so the crash is always charged.
                        assert!(send_signal(*pid, SIGKILL));
                        killed.push(*shard);
                    }
                }
            },
        )
        .expect("campaign must survive two kill -9s");
        std::env::remove_var("FASTMON_SHARD_VERIFY");
        assert_eq!(killed.len(), 2);
        assert!(
            run.report.respawns >= 2,
            "both murdered workers must be respawned: {:?}",
            run.report
        );
        assert_eq!(run.analysis.result_fingerprint(), golden);
        assert_eq!(
            run.verified_against,
            Some(golden),
            "FASTMON_SHARD_VERIFY must compare against the in-process reference"
        );
        eprintln!(
            "[chaos] kill9: shards {killed:?} murdered, report {:?}",
            run.report
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- scenario 3: armed failpoint in every first-attempt child -------
    // `campaign_band=err@2` makes each worker's first attempt die with a
    // typed injected error after durably checkpointing band 1; respawns
    // run clean (the supervisor strips FASTMON_FAILPOINTS) and must
    // resume, not restart.
    {
        let dir = tmp("failpoints");
        std::env::set_var("FASTMON_FAILPOINTS", "campaign_band=err@2");
        let mut resumed = 0u32;
        let run = supervise(
            &flow,
            &patterns,
            &config,
            name,
            scale,
            &dir,
            Some(worker),
            &mut |event| {
                if let SupervisorEvent::Heartbeat { value, .. } = event {
                    if value
                        .get("event")
                        .and_then(fastmon_obs::json::Value::as_str)
                        == Some("shard_resumed")
                    {
                        resumed += 1;
                    }
                }
            },
        )
        .expect("campaign must survive the armed failpoints");
        std::env::remove_var("FASTMON_FAILPOINTS");
        assert!(
            run.report.respawns >= 1,
            "injected first attempts must be respawned: {:?}",
            run.report
        );
        assert!(
            resumed >= 1,
            "at least one respawn must resume from its shard checkpoint"
        );
        assert_eq!(run.analysis.result_fingerprint(), golden);
        eprintln!(
            "[chaos] failpoints: {resumed} checkpoint resumes, report {:?}",
            run.report
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- scenario 4: hung child is stall-killed, respawn resumes --------
    // The FASTMON_SHARD_HANG knob silences shard 0's first worker at its
    // first band boundary (after the checkpoint landed). The stall
    // watchdog must SIGKILL it; the charged respawn resumes and the
    // merged result is unchanged — the respawn counter proves the path.
    {
        let dir = tmp("stall");
        let flag = dir.join("hang-once");
        std::env::set_var("FASTMON_SHARD_HANG", format!("0:{}", flag.display()));
        std::env::set_var("FASTMON_SHARD_STALL_SECS", "1");
        let stall_flow = HdfTestFlow::prepare(&circuit, &config.flow_config());
        let run = supervise(
            &stall_flow,
            &patterns,
            &config,
            name,
            scale,
            &dir,
            Some(worker),
            &mut |_| {},
        )
        .expect("campaign must survive a hung worker");
        std::env::remove_var("FASTMON_SHARD_HANG");
        std::env::remove_var("FASTMON_SHARD_STALL_SECS");
        assert!(flag.exists(), "the hang injection never fired");
        assert!(
            run.report.stalls_detected >= 1,
            "the silent worker must be detected: {:?}",
            run.report
        );
        assert!(run.report.respawns >= 1, "a stall kill charges the budget");
        // the supervisor records its counters in the flow's registry
        let shardsup = &stall_flow.metrics().shardsup;
        assert_eq!(shardsup.respawns.get(), run.report.respawns);
        assert_eq!(shardsup.stalls_detected.get(), run.report.stalls_detected);
        assert_eq!(run.analysis.result_fingerprint(), golden);
        eprintln!("[chaos] stall: report {:?}", run.report);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- scenario 5: forced RSS eviction is graceful and uncharged ------
    // A 1-byte ceiling evicts every worker at every probe; each
    // evict/readmit cycle still banks at least one band (the worker
    // observes the cancel only after a band checkpoint), so the campaign
    // converges without spending any respawn budget. Workers load the
    // landed test set and finish this tiny slice in tens of milliseconds,
    // so the probe cadence is 1 ms: a worker is then probed as soon as
    // its first heartbeat wakes the supervisor, not after a fixed delay
    // it may never live to see.
    {
        let dir = tmp("rss");
        std::env::set_var("FASTMON_SHARD_RSS_BYTES", "1");
        std::env::set_var("FASTMON_SHARD_RSS_POLL_MS", "1");
        std::env::set_var("FASTMON_SHARD_JOBS", "1");
        let run = supervise(
            &flow,
            &patterns,
            &config,
            name,
            scale,
            &dir,
            Some(worker),
            &mut |_| {},
        )
        .expect("campaign must survive constant RSS eviction");
        std::env::remove_var("FASTMON_SHARD_RSS_BYTES");
        std::env::remove_var("FASTMON_SHARD_RSS_POLL_MS");
        std::env::remove_var("FASTMON_SHARD_JOBS");
        assert!(
            run.report.rss_evictions >= 1,
            "the 1-byte ceiling must evict at least once: {:?}",
            run.report
        );
        assert!(run.report.readmissions >= 1);
        assert_eq!(
            run.report.respawns, 0,
            "evictions must not charge the respawn budget: {:?}",
            run.report
        );
        assert_eq!(run.analysis.result_fingerprint(), golden);
        eprintln!("[chaos] rss: report {:?}", run.report);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- scenario 6: workers never run ATPG ------------------------------
    // Every first-attempt worker has both ATPG failpoints armed: a worker
    // that generated its own patterns would die on its first PODEM target
    // or grading pass and be respawned. Loading the supervisor's test set
    // never reaches either site, so no respawn is charged.
    {
        let dir = tmp("no-atpg");
        std::env::set_var("FASTMON_FAILPOINTS", "atpg_podem=err@1;atpg_grade=err@1");
        let run = supervise(
            &flow,
            &patterns,
            &config,
            name,
            scale,
            &dir,
            Some(worker),
            &mut |_| {},
        )
        .expect("workers that load the landed test set never reach ATPG");
        std::env::remove_var("FASTMON_FAILPOINTS");
        assert_eq!(
            run.report.respawns, 0,
            "a worker hit an ATPG failpoint: {:?}",
            run.report
        );
        assert_eq!(run.analysis.result_fingerprint(), golden);
        eprintln!("[chaos] no-atpg: report {:?}", run.report);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- scenario 7: corrupt, deleted or foreign landed artifact ---------
    // Right after shard 0's first worker is spawned, one landed artifact
    // — the test set or the spec — is bit-flipped, deleted or (the spec)
    // replaced by a valid spec of another partition, and that worker is
    // SIGKILLed before it can land anything, so every later attempt of
    // shard 0 finds the damaged artifact (as does any other shard's worker
    // spawned after it). Each such attempt must report a `shard_error`
    // naming the file and exit 1; once a shard's respawn budget is spent
    // the supervisor returns a typed error without merging. The `seed`
    // case flips the low bit of the spec's flow-seed digit: the line still
    // parses, as a different campaign, so only the spec's checksum can
    // reject it.
    let spec_file = fastmon_daemon::shard::SPEC_FILE;
    for (target, damage) in [
        ("patterns", "flip"),
        ("patterns", "delete"),
        ("spec", "flip"),
        ("spec", "seed"),
        ("spec", "delete"),
        ("spec", "shards"),
    ] {
        let case = format!("{target}-{damage}");
        let dir = tmp(&format!("artifact-{case}"));
        let artifact = match target {
            "patterns" => HdfTestFlow::shard_patterns_path(&dir),
            _ => dir.join(spec_file),
        };
        let file_name = artifact.file_name().unwrap().to_string_lossy().into_owned();
        let mut errors_naming_file = 0u32;
        let outcome = supervise(
            &flow,
            &patterns,
            &config,
            name,
            scale,
            &dir,
            Some(worker),
            &mut |event| match event {
                SupervisorEvent::Spawned {
                    shard: 0,
                    attempt: 0,
                    pid,
                } => {
                    match damage {
                        "flip" | "seed" => {
                            let mut bytes = std::fs::read(&artifact).unwrap();
                            let (at, bit) = match damage {
                                "flip" => (bytes.len() / 2, 0x20),
                                _ => {
                                    let text = String::from_utf8_lossy(&bytes);
                                    (text.rfind("\"seed\":").unwrap() + 7, 0x01)
                                }
                            };
                            bytes[at] ^= bit;
                            std::fs::write(&artifact, bytes).unwrap();
                        }
                        "delete" => std::fs::remove_file(&artifact).unwrap(),
                        _ => {
                            let mut req = fastmon_daemon::shard::read_spec(&dir).unwrap();
                            req.shards = config.shards - 1;
                            fastmon_daemon::shard::write_spec(&dir, &req).unwrap();
                        }
                    }
                    assert!(send_signal(*pid, SIGKILL));
                }
                SupervisorEvent::Heartbeat {
                    shard: 0, value, ..
                } => {
                    let field = |key| value.get(key).and_then(fastmon_obs::json::Value::as_str);
                    if field("event") == Some("shard_error")
                        && field("message").is_some_and(|m| m.contains(&file_name))
                    {
                        errors_naming_file += 1;
                    }
                }
                _ => {}
            },
        );
        match outcome {
            Err(SuperviseError::Shardsup(ShardsupError::ShardFailed { attempts, .. })) => {
                assert_eq!(attempts, 4, "{case}: the default budget is 3 respawns");
            }
            Err(e) => panic!("{case}: expected a shard to exhaust its budget, got {e}"),
            Ok(run) => panic!("{case}: a damaged artifact was merged: {:?}", run.report),
        }
        assert!(
            errors_naming_file >= 1,
            "{case}: no shard_error named {file_name}"
        );
        eprintln!("[chaos] artifact-{case}: {errors_naming_file} shard_error(s) naming the file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- scenario 8: unwritable shard directory -------------------------
    // The test set cannot be landed, so the supervisor must fail with a
    // typed error before spawning a single worker. A regular file where
    // the directory's parent should be blocks every user, root included.
    {
        let blocker = tmp("blocker").join("not-a-dir");
        std::fs::write(&blocker, b"file").unwrap();
        let dir = blocker.join("shards");
        let mut spawned = 0u32;
        let outcome = supervise(
            &flow,
            &patterns,
            &config,
            name,
            scale,
            &dir,
            Some(worker),
            &mut |event| {
                if matches!(event, SupervisorEvent::Spawned { .. }) {
                    spawned += 1;
                }
            },
        );
        match outcome {
            Err(SuperviseError::Flow(FlowError::ShardPatterns { path, .. })) => {
                assert!(path.starts_with(&dir), "{}", path.display());
            }
            Err(e) => panic!("unwritable dir: expected a ShardPatterns error, got {e}"),
            Ok(_) => panic!("unwritable dir: supervise succeeded"),
        }
        assert_eq!(spawned, 0, "workers were spawned without a landed test set");
        let _ = std::fs::remove_dir_all(blocker.parent().unwrap());
    }

    std::env::remove_var("FASTMON_SHARD_BACKOFF_MS");
}
