//! Shard-merge determinism: a campaign partitioned into N contiguous
//! fault shards and merged must be bit-identical (same
//! `result_fingerprint`) to the single-process serial run, for any shard
//! count, any thread count, and through the crash-safe per-shard
//! checkpoint path.

use fastmon_core::{DetectionAnalysis, FlowConfig, FlowError, HdfTestFlow};
use fastmon_netlist::generate::GeneratorConfig;
use fastmon_netlist::Circuit;

fn random_circuit(seed: u64) -> Circuit {
    GeneratorConfig::new("shards")
        .gates(100 + (seed as usize % 3) * 40)
        .flip_flops(8)
        .inputs(7)
        .outputs(3)
        .depth(6)
        .generate(seed)
        .expect("valid generator config")
}

fn tmp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "fastmon-shard-{tag}-{}-{}",
        std::process::id(),
        fastmon_obs::run_id(),
    ))
}

#[test]
fn sharded_runs_match_serial_for_any_shard_and_thread_count() {
    for seed in 1..=3u64 {
        let circuit = random_circuit(seed);
        let flow = HdfTestFlow::prepare(
            &circuit,
            &FlowConfig {
                seed,
                ..FlowConfig::default()
            },
        );
        let patterns = flow.generate_patterns(Some(10));
        let serial = flow.try_analyze(&patterns).unwrap();
        let golden = serial.result_fingerprint();
        for shards in [1usize, 2, 4, 7] {
            let merged = flow.try_analyze_sharded(&patterns, shards).unwrap();
            assert_eq!(merged.num_faults(), serial.num_faults());
            assert_eq!(merged.num_patterns, serial.num_patterns);
            assert_eq!(
                merged.result_fingerprint(),
                golden,
                "seed={seed} shards={shards}: sharded merge diverged from serial run"
            );
        }
        // a different thread count on the sharded side must not matter
        let threaded = HdfTestFlow::prepare(
            &circuit,
            &FlowConfig {
                seed,
                threads: 8,
                ..FlowConfig::default()
            },
        );
        let merged = threaded.try_analyze_sharded(&patterns, 4).unwrap();
        assert_eq!(merged.result_fingerprint(), golden, "seed={seed} threads=8");
    }
}

/// Files of shard `shard`'s checkpoint (snapshot and band-delta
/// segments) left in `dir`.
fn shard_checkpoint_files(dir: &std::path::Path, shard: usize) -> Vec<String> {
    let name = format!("shard-{shard}-of-3.ckpt");
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|f| *f == name || f.starts_with(&format!("{name}.seg")))
        .collect()
}

#[test]
fn resumable_sharded_campaign_matches_and_cleans_up() {
    let circuit = random_circuit(9);
    let flow = HdfTestFlow::prepare(&circuit, &FlowConfig::default());
    let patterns = flow.generate_patterns(Some(8));
    let golden = flow.try_analyze(&patterns).unwrap().result_fingerprint();

    let dir = tmp("resume");
    std::fs::create_dir_all(&dir).unwrap();
    let mut events_per_shard = vec![0usize; 3];
    let merged = flow
        .analyze_sharded_resumable_observed(&patterns, 3, &dir, &mut |shard, _| {
            events_per_shard[shard] += 1;
        })
        .unwrap();
    assert_eq!(merged.result_fingerprint(), golden);
    assert!(
        events_per_shard.iter().all(|&n| n > 0),
        "every shard must surface progress events: {events_per_shard:?}"
    );
    // finished shard checkpoints are removed, segments included
    for shard in 0..3 {
        let left = shard_checkpoint_files(&dir, shard);
        assert!(
            left.is_empty(),
            "shard {shard} left its checkpoint behind: {left:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_rejects_mismatched_pattern_counts() {
    let circuit = random_circuit(11);
    let flow = HdfTestFlow::prepare(&circuit, &FlowConfig::default());
    let p8 = flow.generate_patterns(Some(8));
    let p5 = flow.generate_patterns(Some(5));
    let a = flow.try_analyze_shard(&p8, 0, 2).unwrap();
    let b = flow.try_analyze_shard(&p5, 1, 2).unwrap();
    match DetectionAnalysis::merge([a, b]) {
        Err(FlowError::ShardMerge {
            shard,
            got,
            expected,
        }) => {
            assert_eq!(shard, 1);
            assert_eq!(got, p5.len());
            assert_eq!(expected, p8.len());
        }
        other => panic!("expected ShardMerge error, got {other:?}"),
    }
}

#[test]
fn merging_nothing_yields_the_empty_analysis() {
    let merged = DetectionAnalysis::merge([]).unwrap();
    assert_eq!(merged.num_faults(), 0);
    assert_eq!(merged.num_patterns, 0);
    assert!(merged.targets.is_empty());
}

#[test]
fn landed_shard_results_merge_bit_identical_and_are_idempotent() {
    let circuit = random_circuit(13);
    let flow = HdfTestFlow::prepare(&circuit, &FlowConfig::default());
    let patterns = flow.generate_patterns(Some(8));
    let golden = flow.try_analyze(&patterns).unwrap().result_fingerprint();
    let dir = tmp("results");
    std::fs::create_dir_all(&dir).unwrap();
    for shard in 0..3 {
        let fp = flow
            .run_shard_to_result(&patterns, shard, 3, &dir, &mut |_| {})
            .unwrap();
        assert_eq!(fp, flow.shard_fingerprint(&patterns, shard, 3));
        assert!(flow.shard_result_landed(&patterns, shard, 3, &dir));
        // the finished checkpoint is cleared, segments included; the
        // result file remains
        assert!(!HdfTestFlow::shard_checkpoint_path(&dir, shard, 3).exists());
        assert_eq!(shard_checkpoint_files(&dir, shard), Vec::<String>::new());
        // re-dispatch after landing is free: nothing is re-simulated
        let again = flow
            .run_shard_to_result(&patterns, shard, 3, &dir, &mut |_| {})
            .unwrap();
        assert_eq!(again, fp);
    }
    let merged = flow.merge_shard_results(&patterns, 3, &dir).unwrap();
    assert_eq!(
        merged.result_fingerprint(),
        golden,
        "merge of landed shard results diverged from the serial run"
    );
    // a missing shard result is a typed, shard-attributed error
    std::fs::remove_file(HdfTestFlow::shard_result_path(&dir, 1, 3)).unwrap();
    match flow.merge_shard_results(&patterns, 3, &dir) {
        Err(FlowError::ShardResult { shard: 1, .. }) => {}
        other => panic!("expected ShardResult error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merging_a_single_part_is_identity() {
    let circuit = random_circuit(5);
    let flow = HdfTestFlow::prepare(&circuit, &FlowConfig::default());
    let patterns = flow.generate_patterns(Some(6));
    let serial = flow.try_analyze(&patterns).unwrap();
    let golden = serial.result_fingerprint();
    let num_faults = serial.num_faults();
    let merged = DetectionAnalysis::merge([serial]).unwrap();
    assert_eq!(merged.num_faults(), num_faults);
    assert_eq!(merged.result_fingerprint(), golden);
}

/// Serial golden fingerprint plus the 8 per-shard analyses, computed
/// once — the property below exercises merge *groupings*, which are
/// pure data-plumbing, so 128 cases stay cheap.
fn split_fixture() -> &'static (u64, Vec<DetectionAnalysis>) {
    static FIX: std::sync::OnceLock<(u64, Vec<DetectionAnalysis>)> = std::sync::OnceLock::new();
    FIX.get_or_init(|| {
        let circuit = random_circuit(7);
        let flow = HdfTestFlow::prepare(&circuit, &FlowConfig::default());
        let patterns = flow.generate_patterns(Some(6));
        let golden = flow.try_analyze(&patterns).unwrap().result_fingerprint();
        let parts = (0..8)
            .map(|shard| flow.try_analyze_shard(&patterns, shard, 8).unwrap())
            .collect();
        (golden, parts)
    })
}

use proptest::prelude::*;

proptest! {
    // Merge is associative: any contiguous grouping of the shard parts,
    // merged group-by-group and then merged again, is bit-identical to
    // the flat merge (and to the serial run). `mask` bit `i` cuts the
    // partition between shard `i` and `i+1`.
    #[test]
    fn merge_of_merges_over_random_splits_matches_serial(mask in any::<u8>()) {
        let (golden, parts) = split_fixture();
        let mut groups: Vec<Vec<DetectionAnalysis>> = vec![Vec::new()];
        for (i, part) in parts.iter().cloned().enumerate() {
            groups.last_mut().unwrap().push(part);
            if i + 1 < parts.len() && mask & (1 << i) != 0 {
                groups.push(Vec::new());
            }
        }
        let merged_groups: Vec<DetectionAnalysis> = groups
            .into_iter()
            .map(|g| DetectionAnalysis::merge(g).unwrap())
            .collect();
        let merged = DetectionAnalysis::merge(merged_groups).unwrap();
        prop_assert_eq!(merged.result_fingerprint(), *golden);
    }
}
