//! Fault-parallel PODEM determinism: the deterministic phase searches
//! windows of upcoming faults speculatively on the worker pool and commits
//! them in worklist order, so every thread count must produce the same
//! test set, the same fault tallies and the same PODEM counters — and
//! speculation must be visible only in `podem_speculative_discarded`.

use fastmon_atpg::{try_generate_with_metrics, AtpgConfig, AtpgResult};
use fastmon_netlist::generate::GeneratorConfig;
use fastmon_netlist::Circuit;
use fastmon_obs::AtpgMetrics;

/// Large enough that the PODEM phase (no random patterns) emits several
/// 64-pattern flushes, so windows straddle flush boundaries.
fn circuit() -> Circuit {
    GeneratorConfig::new("podem-par")
        .gates(700)
        .flip_flops(40)
        .inputs(24)
        .outputs(24)
        .depth(12)
        .generate(11)
        .expect("valid generator config")
}

fn run(circuit: &Circuit, threads: usize) -> (AtpgResult, AtpgMetrics) {
    let config = AtpgConfig {
        random_patterns: 0,
        compact: false,
        // small enough to keep the unoptimized test build quick; searches
        // still abort, so the abort path is committed too
        max_backtracks: 32,
        threads,
        ..AtpgConfig::default()
    };
    let metrics = AtpgMetrics::new();
    let result = try_generate_with_metrics(circuit, &config, Some(&metrics), None)
        .expect("no failpoint or cancel is armed");
    (result, metrics)
}

#[test]
fn podem_phase_is_bit_identical_at_1_2_3_8_threads() {
    let circuit = circuit();
    let (reference, ref_metrics) = run(&circuit, 1);
    // without random patterns or compaction every pattern is a PODEM
    // test, so this counts the flushes inside the PODEM phase
    assert!(
        reference.test_set.len() > 3 * 64,
        "only {} PODEM patterns: too few flushes to exercise speculation",
        reference.test_set.len()
    );
    assert_eq!(
        ref_metrics.podem_speculative_discarded.get(),
        0,
        "one thread searches only the fault it commits next"
    );
    assert!(ref_metrics.podem_aborts.get() > 0);

    for threads in [2usize, 3, 8] {
        let (r, m) = run(&circuit, threads);
        assert_eq!(r.test_set, reference.test_set, "threads={threads}");
        assert_eq!(r.detected, reference.detected, "threads={threads}");
        assert_eq!(r.untestable, reference.untestable, "threads={threads}");
        assert_eq!(r.aborted, reference.aborted, "threads={threads}");
        assert_eq!(
            m.podem_calls.get(),
            ref_metrics.podem_calls.get(),
            "threads={threads}"
        );
        assert_eq!(
            m.podem_backtracks.get(),
            ref_metrics.podem_backtracks.get(),
            "threads={threads}"
        );
        assert_eq!(
            m.podem_aborts.get(),
            ref_metrics.podem_aborts.get(),
            "threads={threads}"
        );
        assert!(
            m.podem_speculative_discarded.get() > 0,
            "threads={threads}: no speculative search was ever discarded, \
             so the discard path never ran"
        );
    }
}
