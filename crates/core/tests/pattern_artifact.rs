//! The test-set artifact a shard supervisor lands for its workers
//! (`FMTS` codec, `HdfTestFlow::{land,load}_shard_patterns`): generated
//! sets round-trip bit for bit, every corruption is a typed error, an
//! artifact landed for another circuit is refused, and the decoder never
//! panics on arbitrary input.

use fastmon_atpg::{TestPattern, TestSet};
use fastmon_core::{
    decode_test_set, encode_test_set, CheckpointError, FlowConfig, FlowError, HdfTestFlow,
    TEST_SET_VERSION,
};
use fastmon_netlist::generate::GeneratorConfig;
use fastmon_netlist::{library, Circuit};

fn tmp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "fastmon-pattern-artifact-{tag}-{}-{}",
        std::process::id(),
        fastmon_obs::run_id(),
    ))
}

fn generated_circuit() -> Circuit {
    GeneratorConfig::new("artifact")
        .gates(140)
        .flip_flops(9)
        .inputs(6)
        .outputs(3)
        .depth(6)
        .generate(5)
        .expect("valid generator config")
}

fn s27_patterns() -> (Circuit, TestSet) {
    let circuit = library::s27();
    let patterns = HdfTestFlow::prepare(&circuit, &FlowConfig::default()).generate_patterns(None);
    (circuit, patterns)
}

#[test]
fn generated_test_sets_round_trip_through_land_and_load() {
    for circuit in [library::s27(), generated_circuit()] {
        let flow = HdfTestFlow::prepare(&circuit, &FlowConfig::default());
        let patterns = flow.generate_patterns(None);
        assert!(!patterns.is_empty());
        assert_eq!(
            decode_test_set(&encode_test_set(&patterns)).unwrap(),
            patterns
        );

        let dir = tmp("round-trip");
        flow.land_shard_patterns(&patterns, &dir).unwrap();
        let loaded = flow.load_shard_patterns(&dir).unwrap();
        assert_eq!(loaded, patterns);
        // the worker's campaign is keyed exactly like the supervisor's
        assert_eq!(
            flow.campaign_fingerprint(&loaded),
            flow.campaign_fingerprint(&patterns)
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn empty_test_set_round_trips() {
    let circuit = library::s27();
    let empty = TestSet::new(&circuit);
    assert_eq!(decode_test_set(&encode_test_set(&empty)).unwrap(), empty);
    let flow = HdfTestFlow::prepare(&circuit, &FlowConfig::default());
    let dir = tmp("empty");
    flow.land_shard_patterns(&empty, &dir).unwrap();
    assert_eq!(flow.load_shard_patterns(&dir).unwrap(), empty);
    let _ = std::fs::remove_dir_all(dir);

    // a set without sources still keeps its (empty) patterns
    let mut sourceless = TestSet::from_sources(Vec::new());
    sourceless.push(TestPattern::new(Vec::new(), Vec::new()));
    sourceless.push(TestPattern::new(Vec::new(), Vec::new()));
    assert_eq!(
        decode_test_set(&encode_test_set(&sourceless)).unwrap(),
        sourceless
    );
}

#[test]
fn truncation_is_a_typed_error() {
    let (_, patterns) = s27_patterns();
    let bytes = encode_test_set(&patterns);
    assert_eq!(
        decode_test_set(&[]).unwrap_err(),
        CheckpointError::Truncated
    );
    assert_eq!(
        decode_test_set(&bytes[..3]).unwrap_err(),
        CheckpointError::Truncated
    );
    for len in 0..bytes.len() {
        let err = decode_test_set(&bytes[..len]).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::Truncated | CheckpointError::ChecksumMismatch
            ),
            "prefix of {len} bytes: {err:?}"
        );
    }
}

#[test]
fn every_single_byte_flip_is_a_typed_error() {
    let (_, patterns) = s27_patterns();
    let bytes = encode_test_set(&patterns);
    for pos in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x01;
        let err = decode_test_set(&corrupt).unwrap_err();
        let expected = match pos {
            0..=3 => matches!(err, CheckpointError::BadMagic),
            4..=7 => matches!(err, CheckpointError::UnsupportedVersion { .. }),
            _ => matches!(err, CheckpointError::ChecksumMismatch),
        };
        assert!(expected, "flip at byte {pos}: {err:?}");
    }
}

#[test]
fn wrong_magic_and_bumped_version_are_typed_errors() {
    let (_, patterns) = s27_patterns();
    let bytes = encode_test_set(&patterns);

    // a campaign checkpoint is not a test-set artifact
    let dir = tmp("magic");
    let ckpt = fastmon_core::CheckpointStore::new(dir.join("c.ckpt"));
    ckpt.save(&fastmon_core::CampaignCheckpoint {
        fingerprint: 1,
        next_pattern: 0,
        per_pattern: Vec::new(),
        raw_union: Vec::new(),
    })
    .unwrap();
    let foreign = std::fs::read(ckpt.path()).unwrap();
    assert_eq!(
        decode_test_set(&foreign).unwrap_err(),
        CheckpointError::BadMagic
    );
    let _ = std::fs::remove_dir_all(dir);

    let mut bumped = bytes.clone();
    bumped[4..8].copy_from_slice(&(TEST_SET_VERSION + 1).to_le_bytes());
    assert_eq!(
        decode_test_set(&bumped).unwrap_err(),
        CheckpointError::UnsupportedVersion {
            got: TEST_SET_VERSION + 1,
            supported: TEST_SET_VERSION,
        }
    );
}

#[test]
fn missing_or_corrupt_artifact_fails_the_load_and_names_the_file() {
    let (circuit, patterns) = s27_patterns();
    let flow = HdfTestFlow::prepare(&circuit, &FlowConfig::default());
    let dir = tmp("corrupt");
    let path = HdfTestFlow::shard_patterns_path(&dir);

    let err = flow.load_shard_patterns(&dir).unwrap_err();
    assert!(matches!(&err, FlowError::ShardPatterns { path: p, .. } if *p == path));
    assert!(
        err.to_string().contains(&path.display().to_string()),
        "{err}"
    );

    flow.land_shard_patterns(&patterns, &dir).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    let err = flow.load_shard_patterns(&dir).unwrap_err();
    assert!(matches!(&err, FlowError::ShardPatterns { path: p, .. } if *p == path));
    assert!(err.to_string().contains("checksum"), "{err}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn landing_into_an_unusable_directory_is_a_typed_error() {
    let (circuit, patterns) = s27_patterns();
    let flow = HdfTestFlow::prepare(&circuit, &FlowConfig::default());
    // a regular file where the shard directory's parent should be: no
    // process, privileged or not, can create the directory below it
    let blocker = tmp("blocker");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let dir = blocker.join("shards");
    let err = flow.land_shard_patterns(&patterns, &dir).unwrap_err();
    assert!(
        matches!(&err, FlowError::ShardPatterns { path, .. } if path.starts_with(&dir)),
        "{err:?}"
    );
    let _ = std::fs::remove_file(blocker);
}

#[test]
fn artifact_landed_for_a_different_circuit_is_rejected() {
    let (s27, patterns) = s27_patterns();
    let c17 = library::c17();
    let dir = tmp("foreign");

    // width: s27 has 7 sources, c17 has 5
    HdfTestFlow::prepare(&s27, &FlowConfig::default())
        .land_shard_patterns(&patterns, &dir)
        .unwrap();
    let c17_flow = HdfTestFlow::prepare(&c17, &FlowConfig::default());
    let err = c17_flow.load_shard_patterns(&dir).unwrap_err();
    assert!(
        matches!(&err, FlowError::ShardPatterns { reason, .. } if reason.contains("width")),
        "{err:?}"
    );
    // landing a foreign set is refused up front, too
    assert!(matches!(
        c17_flow.land_shard_patterns(&patterns, &dir),
        Err(FlowError::ShardPatterns { .. })
    ));

    // same width, different source order
    let s27_flow = HdfTestFlow::prepare(&s27, &FlowConfig::default());
    let mut reversed = patterns.sources().to_vec();
    reversed.reverse();
    let mut permuted = TestSet::from_sources(reversed);
    for p in patterns.iter() {
        permuted.push(p.clone());
    }
    std::fs::write(
        HdfTestFlow::shard_patterns_path(&dir),
        encode_test_set(&permuted),
    )
    .unwrap();
    let err = s27_flow.load_shard_patterns(&dir).unwrap_err();
    assert!(
        matches!(&err, FlowError::ShardPatterns { reason, .. } if reason.contains("source order")),
        "{err:?}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

// Decoding is exposed to whatever bytes happen to be on disk; it must map
// *any* input to a typed error or a valid test set, never panic.
use proptest::prelude::*;

fn sample_bytes() -> Vec<u8> {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES
        .get_or_init(|| encode_test_set(&s27_patterns().1))
        .clone()
}

proptest! {
    #[test]
    fn decoding_arbitrary_bytes_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..512)
    ) {
        match decode_test_set(&bytes) {
            Ok(set) => prop_assert!(set.iter().all(|p| p.width() == set.sources().len())),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    #[test]
    fn decoding_mutated_valid_artifacts_never_panics(
        pos in 0usize..4096,
        mask in 0u8..255,
    ) {
        let mut bytes = sample_bytes();
        let len = bytes.len();
        // mask + 1 keeps the XOR non-trivial (1..=255)
        bytes[pos % len] ^= mask + 1;
        if let Err(e) = decode_test_set(&bytes) {
            prop_assert!(!e.to_string().is_empty());
        }
    }
}
