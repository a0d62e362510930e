//! Checkpoint/resume determinism: a fault-simulation campaign that is
//! interrupted between pattern bands and later resumed must produce
//! results bit-identical to an uninterrupted run — also when a band-delta
//! segment of its checkpoint is damaged — and the checkpoint bytes a
//! campaign writes must stay proportional to its final state.

use std::path::Path;

use fastmon_core::{
    CheckpointError, CheckpointStore, DetectionAnalysis, FlowConfig, FlowError, HdfTestFlow,
};
use fastmon_netlist::generate::paper_suite;
use fastmon_netlist::{library, Circuit};

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fastmon-resume-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Band-delta segment `k` of the checkpoint at `path`.
fn segment(path: &Path, k: usize) -> std::path::PathBuf {
    let mut p = path.as_os_str().to_owned();
    p.push(format!(".seg{k}"));
    p.into()
}

/// Checks that neither the checkpoint at `path` nor any of its segments
/// is left on disk.
fn assert_no_checkpoint_left(path: &Path) {
    let name = path.file_name().unwrap().to_string_lossy().into_owned();
    let left: Vec<String> = std::fs::read_dir(path.parent().unwrap())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|f| *f == name || f.starts_with(&format!("{name}.seg")))
        .collect();
    assert!(left.is_empty(), "checkpoint files left behind: {left:?}");
}

/// A named way to damage a segment file.
type Damage = (&'static str, fn(&Path));

/// The s9234 stand-in at 5 % scale, 150 sampled faults, 2 threads.
fn stand_in() -> (Circuit, FlowConfig) {
    let profile = paper_suite()
        .into_iter()
        .find(|p| p.name == "s9234")
        .expect("s9234 profile exists")
        .scaled(0.05);
    let circuit = profile.generate(7).expect("profile generates");
    let config = FlowConfig {
        threads: 2,
        max_faults: Some(150),
        ..FlowConfig::default()
    };
    (circuit, config)
}

fn assert_identical(a: &DetectionAnalysis, b: &DetectionAnalysis) {
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.per_pattern, b.per_pattern);
    assert_eq!(a.raw_union, b.raw_union);
    assert_eq!(a.conv_range, b.conv_range);
    assert_eq!(a.fast_range, b.fast_range);
    assert_eq!(a.verdicts, b.verdicts);
    assert_eq!(a.targets, b.targets);
    assert_eq!(a.num_patterns, b.num_patterns);
}

/// Interrupts the campaign after `bands` checkpoint saves, then resumes it
/// and checks the result against the uninterrupted baseline.
fn interrupt_and_resume(circuit: &Circuit, config: &FlowConfig, tag: &str, bands: usize) {
    let flow = HdfTestFlow::prepare(circuit, config);
    let patterns = flow.generate_patterns(None);
    let baseline = flow.analyze(&patterns);

    let dir = scratch(tag);
    let path = dir.join(format!("{}-{bands}.fmck", circuit.name()));

    let interrupting = CheckpointStore::new(&path).with_interrupt_after(bands);
    let err = flow
        .analyze_resumable(&patterns, &interrupting)
        .expect_err("interruption hook must abort the campaign");
    assert!(
        matches!(
            err,
            FlowError::Checkpoint(CheckpointError::Interrupted { .. })
        ),
        "got {err:?}"
    );
    assert!(path.exists(), "a valid checkpoint must remain on disk");

    let store = CheckpointStore::new(&path);
    let resumed = flow
        .analyze_resumable(&patterns, &store)
        .expect("resume completes");
    assert_identical(&resumed, &baseline);
    assert_no_checkpoint_left(&path);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn s27_resumes_bit_identically_from_two_interruption_points() {
    let circuit = library::s27();
    let config = FlowConfig {
        threads: 1,
        ..FlowConfig::default()
    };
    for bands in [1, 2] {
        interrupt_and_resume(&circuit, &config, "s27", bands);
    }
}

#[test]
fn scaled_stand_in_resumes_bit_identically_from_two_interruption_points() {
    let (circuit, config) = stand_in();
    for bands in [1, 3] {
        interrupt_and_resume(&circuit, &config, "stand-in", bands);
    }
}

#[test]
fn scaled_stand_in_resumes_bit_identically_past_a_damaged_segment() {
    let (circuit, config) = stand_in();
    let flow = HdfTestFlow::prepare(&circuit, &config);
    let patterns = flow.generate_patterns(None);
    let baseline = flow.analyze(&patterns);
    let dir = scratch("damaged-segment");
    let damages: [Damage; 3] = [
        ("flipped", |p| {
            let mut bytes = std::fs::read(p).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x20;
            std::fs::write(p, bytes).unwrap();
        }),
        ("truncated", |p| {
            let bytes = std::fs::read(p).unwrap();
            std::fs::write(p, &bytes[..bytes.len() / 3]).unwrap();
        }),
        ("deleted", |p| std::fs::remove_file(p).unwrap()),
    ];
    for (tag, damage) in damages {
        let path = dir.join(format!("{tag}.fmck"));
        // snapshot, seg1, seg2: three bands on disk
        flow.analyze_resumable(
            &patterns,
            &CheckpointStore::new(&path).with_interrupt_after(3),
        )
        .expect_err("interruption hook fires");
        let intact = CheckpointStore::new(&path).load().unwrap();
        damage(&segment(&path, 2));
        let rolled_back = CheckpointStore::new(&path).load().unwrap();
        assert!(
            rolled_back.next_pattern < intact.next_pattern,
            "{tag}: seg2's band was not dropped"
        );
        let resumes = flow.metrics().checkpoint.resumes.get();
        let resumed = flow
            .analyze_resumable(&patterns, &CheckpointStore::new(&path))
            .expect("resume completes");
        assert_eq!(
            flow.metrics().checkpoint.resumes.get(),
            resumes + 1,
            "{tag}"
        );
        assert_identical(&resumed, &baseline);
        assert_no_checkpoint_left(&path);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_bytes_stay_under_twice_one_final_snapshot() {
    // Deterministic and host-speed independent: a campaign's checkpoint
    // bytes against one full snapshot of its final state. Rewriting the
    // whole state every band costs about (bands + 1) / 2 snapshots.
    let (circuit, config) = stand_in();
    let flow = HdfTestFlow::prepare(&circuit, &config);
    let patterns = flow.generate_patterns(None);
    let dir = scratch("bytes");
    let ckpt = &flow.metrics().checkpoint;
    flow.analyze_resumable(&patterns, &CheckpointStore::new(dir.join("run.fmck")))
        .expect("campaign completes");
    let (saves, written) = (ckpt.saves.get(), ckpt.save_bytes.get());
    assert!(
        saves >= 4,
        "only {saves} band(s): the gate would be vacuous"
    );

    // the final state: interrupt at the last save, then snapshot it afresh
    let last = dir.join("last.fmck");
    flow.analyze_resumable(
        &patterns,
        &CheckpointStore::new(&last).with_interrupt_after(saves as usize),
    )
    .expect_err("interruption hook fires at the last band");
    let final_state = CheckpointStore::new(&last).load().unwrap();
    assert_eq!(final_state.next_pattern, patterns.len());
    let snapshot = CheckpointStore::new(dir.join("snapshot.fmck"))
        .save(&final_state)
        .unwrap();
    assert!(
        written < 2 * snapshot,
        "{saves} saves wrote {written} bytes, {:.2}× one {snapshot}-byte snapshot",
        written as f64 / snapshot as f64
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_is_thread_count_invariant() {
    // Interrupt a single-threaded campaign, resume it with four workers:
    // merge order is fixed, so the result must still be bit-identical.
    let circuit = library::s27();
    let base_cfg = FlowConfig {
        threads: 1,
        ..FlowConfig::default()
    };
    let flow = HdfTestFlow::prepare(&circuit, &base_cfg);
    let patterns = flow.generate_patterns(None);
    let baseline = flow.analyze(&patterns);

    let dir = scratch("threads");
    let path = dir.join("s27.fmck");
    let interrupting = CheckpointStore::new(&path).with_interrupt_after(1);
    flow.analyze_resumable(&patterns, &interrupting)
        .expect_err("interrupted");

    let wide_cfg = FlowConfig {
        threads: 4,
        ..FlowConfig::default()
    };
    let wide_flow = HdfTestFlow::prepare(&circuit, &wide_cfg);
    let resumed = wide_flow
        .analyze_resumable(&patterns, &CheckpointStore::new(&path))
        .expect("resume completes");
    assert_identical(&resumed, &baseline);
    std::fs::remove_dir_all(&dir).ok();
}
