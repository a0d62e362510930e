use fastmon_atpg::{try_generate_with_metrics, AtpgConfig, AtpgError, TestSet};
use fastmon_faults::{classify, DetectionRange, FaultClass, FaultList, Polarity};
use fastmon_monitor::{ConfigSet, MonitorPlacement};
use fastmon_netlist::{Circuit, NetlistError, PinRef};
use fastmon_obs::MetricsRegistry;
use fastmon_timing::{ClockSpec, DelayAnnotation, DelayModel, Sta};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use crate::checkpoint::{
    fnv1a, load_test_set, save_test_set, CampaignCheckpoint, CheckpointError, CheckpointStore,
};
use crate::schedule::{select_frequencies, select_patterns, ScheduleContext};
use crate::{
    DetectionAnalysis, FlowConfig, FlowError, FrequencySelection, ScheduleError, Solver,
    TestSchedule,
};

/// Fault-population counters of the structural analysis (step ① of the
/// flow).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowCounts {
    /// Full `δ = 6σ` fault population (two per gate pin).
    pub initial: usize,
    /// Removed: a plain at-speed test already fails.
    pub at_speed_detectable: usize,
    /// Removed: no FAST frequency (even monitor-assisted) can see the
    /// effect.
    pub timing_redundant: usize,
    /// FAST-relevant candidates handed to fault simulation.
    pub candidates: usize,
    /// Candidates actually simulated (after optional sampling).
    pub sampled: usize,
}

/// A campaign progress event surfaced by
/// [`HdfTestFlow::analyze_resumable_observed`]. Every event corresponds
/// to a durable on-disk state, so observers may treat each one as a
/// crash-safe resume point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignProgress {
    /// A valid same-fingerprint checkpoint was found; the campaign skips
    /// every pattern before `next_pattern`.
    Resumed {
        /// First pattern that will actually be simulated.
        next_pattern: usize,
        /// Total patterns in the campaign.
        total_patterns: usize,
        /// Trace run id of the process that wrote the checkpoint (from
        /// its `.run` sidecar), when one survived — lets observers link
        /// this run's event trail to its predecessor's.
        prev_run: Option<u64>,
    },
    /// A pattern band finished and its checkpoint reached disk.
    BandCheckpointed {
        /// First pattern not yet simulated.
        next_pattern: usize,
        /// Total patterns in the campaign.
        total_patterns: usize,
    },
}

/// The prepared HDF test flow of the paper (Fig. 4): circuit, delays,
/// clocks, monitors — everything except patterns and the simulation
/// campaign.
///
/// Typical use:
///
/// 1. [`HdfTestFlow::prepare`] — synthesize timing, place monitors.
/// 2. [`HdfTestFlow::generate_patterns`] — transition-fault ATPG
///    (or bring your own [`TestSet`]).
/// 3. [`HdfTestFlow::analyze`] — structural filtering + timing-accurate
///    fault simulation → [`DetectionAnalysis`].
/// 4. [`HdfTestFlow::schedule`] / [`HdfTestFlow::schedule_with_coverage`]
///    — two-step optimization → [`TestSchedule`].
#[derive(Debug)]
pub struct HdfTestFlow<'c> {
    circuit: &'c Circuit,
    config: FlowConfig,
    annot: DelayAnnotation,
    sta: Sta,
    clock: ClockSpec,
    configs: ConfigSet,
    placement: MonitorPlacement,
    counts: FlowCounts,
    candidate_faults: FaultList,
    metrics: MetricsRegistry,
    cancel: Option<fastmon_obs::CancelToken>,
}

impl<'c> HdfTestFlow<'c> {
    /// Prepares the flow: annotates delays (process variation σ), runs
    /// STA, derives the clock (`t_nom = 1.05·cpl`, `t_min = t_nom/3`),
    /// builds the monitor configuration set and places monitors at long
    /// path ends, then structurally classifies the full fault population.
    ///
    /// # Panics
    ///
    /// Panics on degenerate inputs (e.g. an empty circuit). Use
    /// [`HdfTestFlow::try_prepare`] to handle untrusted inputs without
    /// panicking.
    #[must_use]
    pub fn prepare(circuit: &'c Circuit, config: &FlowConfig) -> Self {
        match Self::try_prepare(circuit, config) {
            Ok(flow) => flow,
            Err(e) => panic!("cannot prepare HDF test flow: {e}"),
        }
    }

    /// Fallible variant of [`HdfTestFlow::prepare`].
    ///
    /// # Errors
    ///
    /// * [`FlowError::Netlist`] with [`NetlistError::EmptyCircuit`] when
    ///   the circuit holds no gates — no clock can be derived from it.
    /// * [`FlowError::Timing`] when the derived delay annotation is
    ///   invalid (NaN/negative delays, non-positive gate sigma).
    pub fn try_prepare(circuit: &'c Circuit, config: &FlowConfig) -> Result<Self, FlowError> {
        if circuit.is_empty() {
            return Err(NetlistError::EmptyCircuit {
                circuit: circuit.name().to_owned(),
            }
            .into());
        }
        let model = DelayModel::nangate45_like();
        let annot = DelayAnnotation::with_variation(circuit, &model, config.sigma_rel, config.seed);
        Self::try_prepare_with_annotation(circuit, config, annot)
    }

    /// Like [`HdfTestFlow::try_prepare`], but with caller-supplied delays
    /// (e.g. parsed from an SDF file via `fastmon_timing::sdf::parse`)
    /// instead of the synthesized NanGate45-like model + process
    /// variation.
    ///
    /// # Errors
    ///
    /// Same as [`HdfTestFlow::try_prepare`]; additionally any invalid
    /// annotation (wrong circuit, NaN/negative delays) is
    /// [`FlowError::Timing`].
    pub fn try_prepare_with_annotation(
        circuit: &'c Circuit,
        config: &FlowConfig,
        annot: DelayAnnotation,
    ) -> Result<Self, FlowError> {
        if circuit.is_empty() {
            return Err(NetlistError::EmptyCircuit {
                circuit: circuit.name().to_owned(),
            }
            .into());
        }
        let metrics = MetricsRegistry::new();
        annot.validate_for(circuit)?;
        let sta = Sta::analyze_with_metrics(circuit, &annot, Some(&metrics.sta));
        let clock = ClockSpec::new(
            (1.0 + config.clock_margin) * sta.critical_path_length(),
            config.fmax_factor,
        );
        let configs = ConfigSet::new(
            config
                .monitor_delays_rel
                .iter()
                .map(|r| r * clock.t_nom)
                .collect(),
        );
        let placement = MonitorPlacement::at_long_path_ends(circuit, &sta, config.monitor_fraction);

        // which fault sites reach a monitored observation point (reverse
        // reachability from monitored capture signals)
        let mut reaches_monitor = vec![false; circuit.len()];
        for op_index in placement.monitored_indices() {
            reaches_monitor[circuit.observe_points()[op_index].driver.index()] = true;
        }
        for &id in circuit.topo_order().iter().rev() {
            if reaches_monitor[id.index()] {
                for &fi in circuit.node(id).fanins() {
                    reaches_monitor[fi.index()] = true;
                }
            }
        }

        // step ①: structural classification
        let all = FaultList::sized(circuit, |id| config.delta_sigma * annot.sigma(id));
        let at_speed = std::cell::Cell::new(0usize);
        let redundant = std::cell::Cell::new(0usize);
        let (candidates, _) = all.filtered(|fid| {
            let fault = all.fault(fid);
            let shift = if reaches_monitor[fault.site.node().index()] {
                configs.max_shift()
            } else {
                0.0
            };
            match classify(circuit, &sta, &clock, fault, shift) {
                FaultClass::AtSpeedDetectable => {
                    at_speed.set(at_speed.get() + 1);
                    false
                }
                FaultClass::TimingRedundant => {
                    redundant.set(redundant.get() + 1);
                    false
                }
                FaultClass::FastTestable => true,
            }
        });
        let (at_speed, redundant) = (at_speed.get(), redundant.get());
        let initial = all.len();
        let num_candidates = candidates.len();

        // optional deterministic sampling for scaled experiments
        let candidate_faults = match config.max_faults {
            Some(cap) if num_candidates > cap => {
                let mut idx: Vec<usize> = (0..num_candidates).collect();
                let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x5a5a_1234);
                idx.shuffle(&mut rng);
                idx.truncate(cap);
                idx.sort_unstable();
                let keep: std::collections::HashSet<usize> = idx.into_iter().collect();
                candidates.filtered(|fid| keep.contains(&fid.index())).0
            }
            _ => candidates,
        };

        let counts = FlowCounts {
            initial,
            at_speed_detectable: at_speed,
            timing_redundant: redundant,
            candidates: num_candidates,
            sampled: candidate_faults.len(),
        };

        Ok(HdfTestFlow {
            circuit,
            config: config.clone(),
            annot,
            sta,
            clock,
            configs,
            placement,
            counts,
            candidate_faults,
            metrics,
            // A `FASTMON_DEADLINE_SECS` deadline token is armed from the
            // environment; `with_cancel` replaces it for in-process control.
            cancel: fastmon_obs::cancel::from_env(),
        })
    }

    /// Installs a cooperative-cancellation token: the cancellable flow
    /// steps ([`HdfTestFlow::try_generate_patterns`],
    /// [`HdfTestFlow::try_analyze`], [`HdfTestFlow::analyze_resumable`],
    /// the ILP scheduler) observe it at safe boundaries and return
    /// [`FlowError::Cancelled`]. Replaces any token armed from
    /// `FASTMON_DEADLINE_SECS`.
    #[must_use]
    pub fn with_cancel(mut self, token: fastmon_obs::CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The active cancellation token, if any (installed via
    /// [`HdfTestFlow::with_cancel`] or armed from
    /// `FASTMON_DEADLINE_SECS`).
    #[must_use]
    pub fn cancel_token(&self) -> Option<&fastmon_obs::CancelToken> {
        self.cancel.as_ref()
    }

    /// Stamps the request→stop latency into
    /// `robustness.cancel_latency_ms` the first time a phase surfaces a
    /// [`FlowError::Cancelled`].
    fn record_cancel_latency(&self) {
        if let Some(latency) = self
            .cancel
            .as_ref()
            .and_then(fastmon_obs::CancelToken::latency_since_request)
        {
            let ms = u64::try_from(latency.as_millis()).unwrap_or(u64::MAX);
            self.metrics.robustness.cancel_latency_ms.add(ms);
        }
    }

    /// The circuit under test.
    #[must_use]
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// The flow configuration.
    #[must_use]
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// The annotated (process-varied) delays.
    #[must_use]
    pub fn annotation(&self) -> &DelayAnnotation {
        &self.annot
    }

    /// The static timing analysis.
    #[must_use]
    pub fn sta(&self) -> &Sta {
        &self.sta
    }

    /// The derived clock specification.
    #[must_use]
    pub fn clock(&self) -> &ClockSpec {
        &self.clock
    }

    /// The monitor delay-element set.
    #[must_use]
    pub fn configs(&self) -> &ConfigSet {
        &self.configs
    }

    /// The monitor placement (`|M|` = [`MonitorPlacement::count`]).
    #[must_use]
    pub fn placement(&self) -> &MonitorPlacement {
        &self.placement
    }

    /// The structural fault counters.
    #[must_use]
    pub fn counts(&self) -> FlowCounts {
        self.counts
    }

    /// The FAST-relevant candidate faults (after sampling).
    #[must_use]
    pub fn candidate_faults(&self) -> &FaultList {
        &self.candidate_faults
    }

    /// The campaign-scoped telemetry registry. Every phase of this flow —
    /// STA, ATPG, fault simulation, checkpoint I/O and schedule
    /// optimization — records its counters here, so two concurrent
    /// campaigns in one process never mix numbers. Read it after
    /// [`HdfTestFlow::analyze`] / [`HdfTestFlow::schedule`] for the full
    /// picture.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Runs the transition-fault ATPG, optionally capped at
    /// `pattern_budget` patterns (the paper's `|P|` per circuit).
    ///
    /// # Panics
    ///
    /// Panics if generation fails, which is only reachable with an armed
    /// failpoint schedule or an already-cancelled token; use
    /// [`HdfTestFlow::try_generate_patterns`] in those settings.
    #[must_use]
    pub fn generate_patterns(&self, pattern_budget: Option<usize>) -> TestSet {
        match self.try_generate_patterns(pattern_budget) {
            Ok(set) => set,
            Err(e) => panic!("cannot generate patterns: {e}"),
        }
    }

    /// Fallible, cancellable variant of
    /// [`HdfTestFlow::generate_patterns`]: observes the flow's
    /// cancellation token between PODEM targets and the `atpg_grade` /
    /// `atpg_podem` failpoints.
    ///
    /// # Errors
    ///
    /// * [`FlowError::Cancelled`] when the token trips mid-generation,
    /// * [`FlowError::Atpg`] for injected or contained-panic ATPG
    ///   failures.
    pub fn try_generate_patterns(
        &self,
        pattern_budget: Option<usize>,
    ) -> Result<TestSet, FlowError> {
        let atpg = AtpgConfig {
            seed: self.config.seed,
            max_patterns: pattern_budget,
            threads: self.config.threads,
            ..AtpgConfig::default()
        };
        let result = try_generate_with_metrics(
            self.circuit,
            &atpg,
            Some(&self.metrics.atpg),
            self.cancel.as_ref(),
        )
        .map_err(|e| match e {
            AtpgError::Cancelled { phase } => {
                self.record_cancel_latency();
                FlowError::Cancelled { phase }
            }
            other => {
                if matches!(other, AtpgError::WorkerPanicked { .. }) {
                    self.metrics.robustness.worker_panics_contained.incr();
                }
                FlowError::Atpg(other)
            }
        })?;
        Ok(result.test_set)
    }

    /// Like [`HdfTestFlow::generate_patterns`], but under the
    /// launch-on-capture (broadside) constraint: every pattern's capture
    /// vector is the functional next state of its launch vector. More
    /// realistic for standard scan chains, at the cost of some coverage.
    #[must_use]
    pub fn generate_patterns_broadside(&self, pattern_budget: Option<usize>) -> TestSet {
        let atpg = AtpgConfig {
            seed: self.config.seed,
            max_patterns: pattern_budget,
            threads: self.config.threads,
            ..AtpgConfig::default()
        };
        fastmon_atpg::broadside::generate_broadside(self.circuit, &atpg).test_set
    }

    /// Steps ②–⑤: timing-accurate fault simulation of the candidates,
    /// detection-range construction, monitor analysis and target-set
    /// extraction.
    ///
    /// Ignores the flow's cancellation token and failpoint injections
    /// cause a panic; use [`HdfTestFlow::try_analyze`] or
    /// [`HdfTestFlow::analyze_resumable`] under injection or deadlines.
    #[must_use]
    pub fn analyze(&self, patterns: &TestSet) -> DetectionAnalysis {
        DetectionAnalysis::compute_scoped(
            self.circuit,
            &self.annot,
            &self.clock,
            &self.configs,
            &self.placement,
            self.candidate_faults.clone(),
            patterns,
            self.config.glitch_threshold,
            self.config.effective_threads(),
            Some(&self.metrics),
        )
    }

    /// Fallible, cancellable variant of [`HdfTestFlow::analyze`] without
    /// checkpoint persistence: the campaign observes the flow's
    /// cancellation token at every pattern-band boundary and the
    /// `campaign_band` / `sim_worker` failpoints, and worker panics are
    /// contained into typed errors.
    ///
    /// # Errors
    ///
    /// * [`FlowError::Cancelled`] when the token trips between bands,
    /// * [`FlowError::Injected`] when the `campaign_band` failpoint fires,
    /// * [`FlowError::WorkerPanic`] when a simulation worker panics.
    pub fn try_analyze(&self, patterns: &TestSet) -> Result<DetectionAnalysis, FlowError> {
        let progress = CampaignCheckpoint {
            fingerprint: 0,
            next_pattern: 0,
            per_pattern: vec![Vec::new(); self.candidate_faults.len()],
            raw_union: vec![DetectionRange::new(); self.candidate_faults.len()],
        };
        DetectionAnalysis::compute_with_progress(
            self.circuit,
            &self.annot,
            &self.clock,
            &self.configs,
            &self.placement,
            self.candidate_faults.clone(),
            patterns,
            self.config.glitch_threshold,
            self.config.effective_threads(),
            Some(&self.metrics),
            self.cancel.as_ref(),
            progress,
            &mut |_| Ok(()),
        )
        .inspect_err(|e| {
            if matches!(e, FlowError::Cancelled { .. }) {
                self.record_cancel_latency();
            }
        })
    }

    /// Crash-safe variant of [`HdfTestFlow::analyze`]: the campaign
    /// persists a checkpoint into `store` after every pattern band, and a
    /// valid checkpoint of the *same* campaign (matched by fingerprint)
    /// resumes from the first unsimulated band instead of restarting.
    ///
    /// Corrupt, truncated, version-mismatched or foreign checkpoints are
    /// never fatal: a warning is logged to stderr and the campaign
    /// restarts cleanly. The checkpoint file is removed after a successful
    /// run. Resumed results are bit-identical to an uninterrupted run for
    /// any thread count on either side of the interruption.
    ///
    /// # Errors
    ///
    /// [`FlowError::Checkpoint`] when a checkpoint cannot be *written*
    /// (progress cannot be made durable) or when the store's test-only
    /// interruption hook fires.
    pub fn analyze_resumable(
        &self,
        patterns: &TestSet,
        store: &CheckpointStore,
    ) -> Result<DetectionAnalysis, FlowError> {
        self.analyze_resumable_observed(patterns, store, &mut |_| {})
    }

    /// [`HdfTestFlow::analyze_resumable`] with a progress observer: the
    /// daemon streams each [`CampaignProgress`] event to its client as a
    /// JSONL record. The observer runs *after* the corresponding
    /// checkpoint reached disk, so every reported band boundary is also a
    /// durable resume point.
    ///
    /// # Errors
    ///
    /// Same as [`HdfTestFlow::analyze_resumable`].
    pub fn analyze_resumable_observed(
        &self,
        patterns: &TestSet,
        store: &CheckpointStore,
        observe: &mut dyn FnMut(CampaignProgress),
    ) -> Result<DetectionAnalysis, FlowError> {
        self.analyze_list_resumable_observed(
            self.candidate_faults.clone(),
            self.campaign_fingerprint(patterns),
            patterns,
            store,
            observe,
        )
    }

    /// The checkpointed campaign driver shared by the whole-list and
    /// per-shard resumable entry points: `faults` is the (sub-)population
    /// to simulate and `fingerprint` keys the checkpoint's validity. The
    /// finished checkpoint is removed on success.
    fn analyze_list_resumable_observed(
        &self,
        faults: FaultList,
        fingerprint: u64,
        patterns: &TestSet,
        store: &CheckpointStore,
        observe: &mut dyn FnMut(CampaignProgress),
    ) -> Result<DetectionAnalysis, FlowError> {
        let analysis =
            self.analyze_list_resumable_keep(faults, fingerprint, patterns, store, observe)?;
        if let Err(e) = store.clear() {
            eprintln!(
                "warning: could not remove finished checkpoint {}: {e}",
                store.path().display(),
            );
        }
        Ok(analysis)
    }

    /// [`HdfTestFlow::analyze_list_resumable_observed`] minus the final
    /// checkpoint removal — the shard-worker path lands its result file
    /// *before* clearing the checkpoint, so a crash between the two never
    /// loses the completed campaign.
    fn analyze_list_resumable_keep(
        &self,
        faults: FaultList,
        fingerprint: u64,
        patterns: &TestSet,
        store: &CheckpointStore,
        observe: &mut dyn FnMut(CampaignProgress),
    ) -> Result<DetectionAnalysis, FlowError> {
        let fresh = || CampaignCheckpoint {
            fingerprint,
            next_pattern: 0,
            per_pattern: vec![Vec::new(); faults.len()],
            raw_union: vec![DetectionRange::new(); faults.len()],
        };
        let ckpt = &self.metrics.checkpoint;
        let t_load = std::time::Instant::now();
        let loaded = {
            let _span = fastmon_obs::span!("checkpoint_load");
            store.load()
        };
        if !matches!(loaded, Err(CheckpointError::Missing)) {
            let load_ns = elapsed_ns(t_load);
            ckpt.loads.incr();
            ckpt.load_ns.add(load_ns);
            self.metrics.latency.checkpoint_load.record(load_ns);
        }
        let progress = match loaded {
            Ok(cp)
                if cp.fingerprint == fingerprint
                    && cp.per_pattern.len() == faults.len()
                    && cp.next_pattern <= patterns.len() =>
            {
                ckpt.resumes.incr();
                let prev_run = store.predecessor_run();
                if let Some(prev) = prev_run {
                    fastmon_obs::emit_chain(prev);
                }
                observe(CampaignProgress::Resumed {
                    next_pattern: cp.next_pattern,
                    total_patterns: patterns.len(),
                    prev_run,
                });
                cp
            }
            Ok(cp) => {
                eprintln!(
                    "warning: ignoring checkpoint {}: {} (restarting from scratch)",
                    store.path().display(),
                    CheckpointError::FingerprintMismatch {
                        got: cp.fingerprint,
                        expected: fingerprint,
                    },
                );
                fresh()
            }
            Err(CheckpointError::Missing) => fresh(),
            Err(e) => {
                eprintln!(
                    "warning: ignoring unreadable checkpoint {}: {e} (restarting from scratch)",
                    store.path().display(),
                );
                fresh()
            }
        };
        let retry = RetryPolicy::from_env();
        let analysis = DetectionAnalysis::compute_with_progress(
            self.circuit,
            &self.annot,
            &self.clock,
            &self.configs,
            &self.placement,
            faults,
            patterns,
            self.config.glitch_threshold,
            self.config.effective_threads(),
            Some(&self.metrics),
            self.cancel.as_ref(),
            progress,
            &mut |cp| {
                let t_save = std::time::Instant::now();
                let bytes = {
                    let _span = fastmon_obs::span!("checkpoint_save");
                    save_with_retry(store, cp, &retry, &self.metrics)?
                };
                let save_ns = elapsed_ns(t_save);
                ckpt.saves.incr();
                ckpt.save_ns.add(save_ns);
                ckpt.save_bytes.add(bytes);
                self.metrics.latency.checkpoint_save.record(save_ns);
                observe(CampaignProgress::BandCheckpointed {
                    next_pattern: cp.next_pattern,
                    total_patterns: patterns.len(),
                });
                Ok(())
            },
        )
        .inspect_err(|e| {
            if matches!(e, FlowError::Cancelled { .. }) {
                self.record_cancel_latency();
            }
        })?;
        Ok(analysis)
    }

    /// The contiguous candidate ranges of an `n`-way shard partition:
    /// shard `s` owns `[s·|Φ|/n, (s+1)·|Φ|/n)`. A shard count of 0 is
    /// treated as 1; counts above the candidate population yield trailing
    /// empty shards (harmless to run and to merge).
    #[must_use]
    pub fn shard_ranges(&self, shards: usize) -> Vec<std::ops::Range<usize>> {
        let n = self.candidate_faults.len();
        let shards = shards.max(1);
        (0..shards)
            .map(|s| (s * n / shards)..((s + 1) * n / shards))
            .collect()
    }

    /// Fallible, cancellable campaign over shard `shard` of a `shards`-way
    /// partition of the candidates (see [`HdfTestFlow::shard_ranges`]).
    /// The per-fault results are bit-identical to the corresponding slice
    /// of a whole-population run; [`DetectionAnalysis::merge`] reassembles
    /// the full analysis.
    ///
    /// # Errors
    ///
    /// Same as [`HdfTestFlow::try_analyze`].
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shards`.
    pub fn try_analyze_shard(
        &self,
        patterns: &TestSet,
        shard: usize,
        shards: usize,
    ) -> Result<DetectionAnalysis, FlowError> {
        let range = self.shard_ranges(shards)[shard].clone();
        let faults = self.candidate_faults.slice(range);
        let progress = CampaignCheckpoint {
            fingerprint: 0,
            next_pattern: 0,
            per_pattern: vec![Vec::new(); faults.len()],
            raw_union: vec![DetectionRange::new(); faults.len()],
        };
        DetectionAnalysis::compute_with_progress(
            self.circuit,
            &self.annot,
            &self.clock,
            &self.configs,
            &self.placement,
            faults,
            patterns,
            self.config.glitch_threshold,
            self.config.effective_threads(),
            Some(&self.metrics),
            self.cancel.as_ref(),
            progress,
            &mut |_| Ok(()),
        )
        .inspect_err(|e| {
            if matches!(e, FlowError::Cancelled { .. }) {
                self.record_cancel_latency();
            }
        })
    }

    /// In-process sharded campaign: runs every shard of a `shards`-way
    /// partition in order and merges the results. Bit-identical to
    /// [`HdfTestFlow::try_analyze`] for any shard count — this is the
    /// reference against which distributed shard execution is validated.
    ///
    /// # Errors
    ///
    /// Same as [`HdfTestFlow::try_analyze`]; [`FlowError::ShardMerge`] is
    /// unreachable here because every shard runs against the same
    /// `patterns`.
    pub fn try_analyze_sharded(
        &self,
        patterns: &TestSet,
        shards: usize,
    ) -> Result<DetectionAnalysis, FlowError> {
        let shards = shards.max(1);
        let mut parts = Vec::with_capacity(shards);
        for shard in 0..shards {
            parts.push(self.try_analyze_shard(patterns, shard, shards)?);
        }
        DetectionAnalysis::merge(parts)
    }

    /// Crash-safe sharded campaign: shard `i` persists its own checkpoint
    /// `shard-<i>-of-<n>.ckpt` under `dir` and resumes independently, so a
    /// crash only loses progress inside the interrupted shard's current
    /// band. `observe` receives each shard's progress events tagged with
    /// the shard index. Finished shard checkpoints are removed; the merged
    /// result is bit-identical to [`HdfTestFlow::analyze`] for any shard
    /// or thread count.
    ///
    /// # Errors
    ///
    /// Same as [`HdfTestFlow::analyze_resumable`].
    pub fn analyze_sharded_resumable_observed(
        &self,
        patterns: &TestSet,
        shards: usize,
        dir: &std::path::Path,
        observe: &mut dyn FnMut(usize, CampaignProgress),
    ) -> Result<DetectionAnalysis, FlowError> {
        let shards = shards.max(1);
        let mut parts = Vec::with_capacity(shards);
        for (shard, range) in self.shard_ranges(shards).into_iter().enumerate() {
            let store = CheckpointStore::new(Self::shard_checkpoint_path(dir, shard, shards));
            parts.push(self.analyze_list_resumable_observed(
                self.candidate_faults.slice(range),
                self.shard_fingerprint(patterns, shard, shards),
                patterns,
                &store,
                &mut |progress| observe(shard, progress),
            )?);
        }
        DetectionAnalysis::merge(parts)
    }

    /// Fingerprint keying shard `shard` of a `shards`-way partition of
    /// this campaign: the campaign fingerprint combined with the shard
    /// coordinates, so a repartitioned rerun never resumes from (or
    /// merges) a foreign slice.
    #[must_use]
    pub fn shard_fingerprint(&self, patterns: &TestSet, shard: usize, shards: usize) -> u64 {
        let mut bytes = Vec::with_capacity(24);
        bytes.extend_from_slice(&self.campaign_fingerprint(patterns).to_le_bytes());
        bytes.extend_from_slice(&(shard as u64).to_le_bytes());
        bytes.extend_from_slice(&(shards as u64).to_le_bytes());
        fnv1a(&bytes)
    }

    /// Where shard `shard` of a `shards`-way campaign under `dir` keeps
    /// its resumable checkpoint.
    #[must_use]
    pub fn shard_checkpoint_path(
        dir: &std::path::Path,
        shard: usize,
        shards: usize,
    ) -> std::path::PathBuf {
        dir.join(format!("shard-{shard}-of-{shards}.ckpt"))
    }

    /// Where shard `shard` of a `shards`-way campaign under `dir` lands
    /// its completed result file (same `FMCK` codec as the checkpoint:
    /// atomic tmp+rename, FNV-checksummed).
    #[must_use]
    pub fn shard_result_path(
        dir: &std::path::Path,
        shard: usize,
        shards: usize,
    ) -> std::path::PathBuf {
        dir.join(format!("shard-{shard}-of-{shards}.result"))
    }

    /// Where a supervised campaign under `dir` keeps the test set its
    /// shard workers simulate (see [`HdfTestFlow::land_shard_patterns`]).
    #[must_use]
    pub fn shard_patterns_path(dir: &std::path::Path) -> std::path::PathBuf {
        dir.join("shard-patterns.fmts")
    }

    /// Checks that `patterns` is a test set of this flow's circuit: same
    /// source count (vector width) and same source order.
    fn check_pattern_sources(&self, patterns: &TestSet) -> Result<(), String> {
        let expected = TestSet::source_order(self.circuit);
        if patterns.sources().len() != expected.len() {
            return Err(format!(
                "width {} does not match the circuit's {} source(s)",
                patterns.sources().len(),
                expected.len()
            ));
        }
        if patterns.sources() != expected.as_slice() {
            return Err("source order does not match the circuit's".to_string());
        }
        Ok(())
    }

    /// Lands `patterns` under `dir` as the campaign's test-set artifact
    /// (atomic, FNV-checksummed, magic `FMTS`). A supervisor calls this
    /// once, before it spawns any worker; every worker then loads the set
    /// with [`HdfTestFlow::load_shard_patterns`] instead of re-running
    /// ATPG.
    ///
    /// # Errors
    ///
    /// [`FlowError::ShardPatterns`] when `patterns` does not belong to
    /// this flow's circuit or the file cannot be written.
    pub fn land_shard_patterns(
        &self,
        patterns: &TestSet,
        dir: &std::path::Path,
    ) -> Result<(), FlowError> {
        let path = Self::shard_patterns_path(dir);
        let bad = |reason: String| FlowError::ShardPatterns {
            path: path.clone(),
            reason,
        };
        self.check_pattern_sources(patterns).map_err(bad)?;
        save_test_set(&path, patterns).map_err(|e| bad(e.to_string()))
    }

    /// Loads the test set a supervisor landed under `dir` (see
    /// [`HdfTestFlow::land_shard_patterns`]).
    ///
    /// # Errors
    ///
    /// [`FlowError::ShardPatterns`], naming the file, when the artifact is
    /// missing, unreadable or corrupt, or when its source order or width
    /// does not match this flow's circuit.
    pub fn load_shard_patterns(&self, dir: &std::path::Path) -> Result<TestSet, FlowError> {
        let path = Self::shard_patterns_path(dir);
        let bad = |reason: String| FlowError::ShardPatterns {
            path: path.clone(),
            reason,
        };
        let patterns = load_test_set(&path).map_err(|e| {
            bad(match e {
                CheckpointError::Missing => "the file does not exist".to_string(),
                other => other.to_string(),
            })
        })?;
        self.check_pattern_sources(&patterns).map_err(bad)?;
        Ok(patterns)
    }

    /// Whether shard `shard`'s result file under `dir` exists and
    /// validates for this exact campaign and partition (the supervisor's
    /// `is_complete` probe — cheap: no finalization).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shards`.
    #[must_use]
    pub fn shard_result_landed(
        &self,
        patterns: &TestSet,
        shard: usize,
        shards: usize,
        dir: &std::path::Path,
    ) -> bool {
        let fingerprint = self.shard_fingerprint(patterns, shard, shards);
        let range = self.shard_ranges(shards)[shard].clone();
        match CheckpointStore::new(Self::shard_result_path(dir, shard, shards)).load() {
            Ok(cp) => {
                cp.fingerprint == fingerprint
                    && cp.next_pattern == patterns.len()
                    && cp.per_pattern.len() == range.len()
            }
            Err(_) => false,
        }
    }

    /// The shard-worker entry point of the multi-process supervisor: runs
    /// shard `shard` (resuming from its checkpoint if one exists) and
    /// lands the completed raw results as `shard-<i>-of-<n>.result` under
    /// `dir`, returning the shard fingerprint the file is keyed by.
    ///
    /// Idempotent: if a valid result file for this exact shard already
    /// exists, nothing is simulated and the fingerprint is returned
    /// immediately — a supervisor can blindly re-dispatch a shard whose
    /// worker died after landing. The result is landed *before* the
    /// checkpoint is cleared, so a crash between the two steps costs
    /// nothing on the next attempt.
    ///
    /// # Errors
    ///
    /// Same as [`HdfTestFlow::analyze_resumable`].
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shards`.
    pub fn run_shard_to_result(
        &self,
        patterns: &TestSet,
        shard: usize,
        shards: usize,
        dir: &std::path::Path,
        observe: &mut dyn FnMut(CampaignProgress),
    ) -> Result<u64, FlowError> {
        let fingerprint = self.shard_fingerprint(patterns, shard, shards);
        let range = self.shard_ranges(shards)[shard].clone();
        let result_store = CheckpointStore::new(Self::shard_result_path(dir, shard, shards));
        if let Ok(cp) = result_store.load() {
            if cp.fingerprint == fingerprint
                && cp.next_pattern == patterns.len()
                && cp.per_pattern.len() == range.len()
            {
                return Ok(fingerprint);
            }
        }
        let ckpt_store = CheckpointStore::new(Self::shard_checkpoint_path(dir, shard, shards));
        let analysis = self.analyze_list_resumable_keep(
            self.candidate_faults.slice(range),
            fingerprint,
            patterns,
            &ckpt_store,
            observe,
        )?;
        let result = CampaignCheckpoint {
            fingerprint,
            next_pattern: patterns.len(),
            per_pattern: analysis.per_pattern,
            raw_union: analysis.raw_union,
        };
        result_store.save(&result).map_err(FlowError::Checkpoint)?;
        if let Err(e) = ckpt_store.clear() {
            eprintln!(
                "warning: could not remove finished shard checkpoint {}: {e}",
                ckpt_store.path().display(),
            );
        }
        Ok(fingerprint)
    }

    /// Loads and finalizes the landed result of one shard (see
    /// [`HdfTestFlow::run_shard_to_result`]): the derived ranges and
    /// verdicts are reconstructed from the raw results, bit-identical to
    /// the analysis the worker computed.
    ///
    /// # Errors
    ///
    /// [`FlowError::ShardResult`] when the file is missing, unreadable,
    /// keyed by a different campaign/partition, or incomplete.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shards`.
    fn load_shard_result(
        &self,
        patterns: &TestSet,
        shard: usize,
        shards: usize,
        dir: &std::path::Path,
    ) -> Result<DetectionAnalysis, FlowError> {
        let bad = |reason: String| FlowError::ShardResult {
            shard,
            shards,
            reason,
        };
        let fingerprint = self.shard_fingerprint(patterns, shard, shards);
        let range = self.shard_ranges(shards)[shard].clone();
        let store = CheckpointStore::new(Self::shard_result_path(dir, shard, shards));
        let cp = store.load().map_err(|e| bad(e.to_string()))?;
        if cp.fingerprint != fingerprint {
            return Err(bad(format!(
                "fingerprint {:016x} does not match expected {fingerprint:016x}",
                cp.fingerprint
            )));
        }
        if cp.next_pattern != patterns.len() {
            return Err(bad(format!(
                "incomplete: simulated {} of {} pattern(s)",
                cp.next_pattern,
                patterns.len()
            )));
        }
        if cp.per_pattern.len() != range.len() {
            return Err(bad(format!(
                "fault count {} does not match the shard's {} candidate(s)",
                cp.per_pattern.len(),
                range.len()
            )));
        }
        Ok(DetectionAnalysis::finalize(
            self.candidate_faults.slice(range),
            patterns.len(),
            cp.per_pattern,
            cp.raw_union,
            &self.placement,
            &self.configs,
            &self.clock,
        ))
    }

    /// Deterministic merge of all landed shard results under `dir` (see
    /// [`HdfTestFlow::run_shard_to_result`]): loads every
    /// `shard-<i>-of-<n>.result`, finalizes each, and merges — the result
    /// fingerprint is bit-identical to [`HdfTestFlow::try_analyze`] and
    /// [`HdfTestFlow::try_analyze_sharded`].
    ///
    /// # Errors
    ///
    /// [`FlowError::ShardResult`] when any shard's file is missing or
    /// invalid; [`FlowError::ShardMerge`] is unreachable for files this
    /// method accepts (completeness is validated per shard).
    pub fn merge_shard_results(
        &self,
        patterns: &TestSet,
        shards: usize,
        dir: &std::path::Path,
    ) -> Result<DetectionAnalysis, FlowError> {
        let shards = shards.max(1);
        let mut parts = Vec::with_capacity(shards);
        for shard in 0..shards {
            parts.push(self.load_shard_result(patterns, shard, shards, dir)?);
        }
        DetectionAnalysis::merge(parts)
    }

    /// Fingerprint of everything the raw campaign results depend on:
    /// circuit, annotated delays, candidate faults, patterns, nominal
    /// clock and glitch threshold. Thread count and band size are
    /// deliberately excluded — the campaign merges per-pattern results in
    /// a fixed pattern order, so they cannot change the outcome.
    ///
    /// The daemon keys per-job checkpoint directories
    /// ([`crate::CheckpointDir`]) and landed results by this value: a
    /// resubmitted identical job resumes instead of restarting.
    #[must_use]
    pub fn campaign_fingerprint(&self, patterns: &TestSet) -> u64 {
        let mut bytes = Vec::new();
        let push_u64 = |bytes: &mut Vec<u8>, v: u64| bytes.extend_from_slice(&v.to_le_bytes());
        let push_f64 = |bytes: &mut Vec<u8>, v: f64| {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        };
        bytes.extend_from_slice(self.circuit.name().as_bytes());
        push_u64(&mut bytes, self.circuit.len() as u64);
        for (id, _) in self.circuit.iter() {
            push_f64(&mut bytes, self.annot.rise(id));
            push_f64(&mut bytes, self.annot.fall(id));
            push_f64(&mut bytes, self.annot.sigma(id));
        }
        push_u64(&mut bytes, self.candidate_faults.len() as u64);
        for (_, fault) in self.candidate_faults.iter() {
            let (tag, node, pin) = match fault.site {
                PinRef::Output(n) => (0u8, n.index() as u64, 0u64),
                PinRef::Input(n, k) => (1u8, n.index() as u64, u64::from(k)),
            };
            bytes.push(tag);
            push_u64(&mut bytes, node);
            push_u64(&mut bytes, pin);
            bytes.push(match fault.polarity {
                Polarity::SlowToRise => 0,
                Polarity::SlowToFall => 1,
            });
            push_f64(&mut bytes, fault.delta);
        }
        push_u64(&mut bytes, patterns.len() as u64);
        for pattern in patterns.iter() {
            for &b in pattern.launch.iter().chain(pattern.capture.iter()) {
                bytes.push(u8::from(b));
            }
        }
        push_f64(&mut bytes, self.clock.t_nom);
        push_f64(&mut bytes, self.config.glitch_threshold);
        fnv1a(&bytes)
    }

    /// Step ⑥ (full coverage): two-step schedule optimization with the
    /// chosen solver.
    ///
    /// # Panics
    ///
    /// Panics if the covering instance is infeasible (cannot happen for
    /// analyses produced by this flow). Use [`HdfTestFlow::try_schedule`]
    /// for a non-panicking variant.
    #[must_use]
    pub fn schedule(&self, analysis: &DetectionAnalysis, solver: Solver) -> TestSchedule {
        match self.try_schedule(analysis, solver) {
            Ok(schedule) => schedule,
            Err(e) => panic!("cannot build schedule: {e}"),
        }
    }

    /// Fallible variant of [`HdfTestFlow::schedule`].
    ///
    /// # Errors
    ///
    /// [`ScheduleError::InfeasibleCover`] when some target fault is
    /// covered by no candidate frequency.
    pub fn try_schedule(
        &self,
        analysis: &DetectionAnalysis,
        solver: Solver,
    ) -> Result<TestSchedule, ScheduleError> {
        self.schedule_with_waivers(analysis, solver, 0)
    }

    /// Step ⑥ with a coverage target `cov ∈ (0, 1]` of the target faults
    /// (Table III): the frequency selection may leave
    /// `⌊(1 − cov)·|Φ_tar|⌋` faults uncovered.
    ///
    /// # Panics
    ///
    /// Panics if `cov` is outside `(0, 1]`. Use
    /// [`HdfTestFlow::try_schedule_with_coverage`] to handle untrusted
    /// coverage targets without panicking.
    #[must_use]
    pub fn schedule_with_coverage(
        &self,
        analysis: &DetectionAnalysis,
        solver: Solver,
        cov: f64,
    ) -> TestSchedule {
        match self.try_schedule_with_coverage(analysis, solver, cov) {
            Ok(schedule) => schedule,
            Err(e) => panic!("cannot build schedule: {e}"),
        }
    }

    /// Fallible variant of [`HdfTestFlow::schedule_with_coverage`].
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::InvalidCoverage`] when `cov` lies outside
    ///   `(0, 1]` (including NaN).
    /// * [`ScheduleError::InfeasibleCover`] when the covering instance is
    ///   infeasible.
    pub fn try_schedule_with_coverage(
        &self,
        analysis: &DetectionAnalysis,
        solver: Solver,
        cov: f64,
    ) -> Result<TestSchedule, ScheduleError> {
        if !(cov > 0.0 && cov <= 1.0) {
            return Err(ScheduleError::InvalidCoverage { cov });
        }
        let waivers = ((1.0 - cov) * analysis.targets.len() as f64).floor() as usize;
        self.schedule_with_waivers(analysis, solver, waivers)
    }

    fn schedule_with_waivers(
        &self,
        analysis: &DetectionAnalysis,
        solver: Solver,
        waivers: usize,
    ) -> Result<TestSchedule, ScheduleError> {
        let ctx = ScheduleContext {
            analysis,
            placement: &self.placement,
            configs: &self.configs,
            clock: &self.clock,
            deadline: self.config.ilp_deadline,
            metrics: Some(&self.metrics.ilp),
            cancel: self.cancel.as_ref(),
        };
        let selection = select_frequencies(&ctx, solver, waivers)?;
        Ok(select_patterns(&ctx, solver, selection))
    }

    /// Only step-1 frequency selection (used by the Table II/III
    /// comparisons).
    ///
    /// # Panics
    ///
    /// Panics if the covering instance is infeasible (cannot happen for
    /// analyses produced by this flow).
    #[must_use]
    pub fn select_frequencies_only(
        &self,
        analysis: &DetectionAnalysis,
        solver: Solver,
        waivers: usize,
    ) -> FrequencySelection {
        let ctx = ScheduleContext {
            analysis,
            placement: &self.placement,
            configs: &self.configs,
            clock: &self.clock,
            deadline: self.config.ilp_deadline,
            metrics: Some(&self.metrics.ilp),
            cancel: self.cancel.as_ref(),
        };
        match select_frequencies(&ctx, solver, waivers) {
            Ok(selection) => selection,
            Err(e) => panic!("cannot select frequencies: {e}"),
        }
    }

    /// Fig. 3: HDF coverage of conventional FAST vs monitor-assisted FAST
    /// as a function of the `f_max/f_nom` ratio.
    ///
    /// The denominator is the *hidden* fault set: simulated candidates not
    /// detectable at nominal speed. The monitor curve uses the largest
    /// delay element (`t_nom/3`), as in the paper's figure.
    #[must_use]
    pub fn coverage_vs_fmax(
        &self,
        analysis: &DetectionAnalysis,
        factors: &[f64],
    ) -> Vec<crate::report::Fig3Point> {
        crate::report::fig3_series(self, analysis, factors)
    }
}

/// Saturating nanosecond conversion for latency counters.
fn elapsed_ns(since: std::time::Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Capped-exponential-backoff policy for transient checkpoint I/O.
///
/// Tuned via `FASTMON_CHECKPOINT_RETRIES` (extra attempts after the first,
/// default 3) and `FASTMON_CHECKPOINT_BACKOFF_MS` (initial sleep, default
/// 5 ms, doubling per retry, capped at 250 ms). Invalid values fall back
/// to the defaults with a warning — a bad knob must not take down a
/// campaign.
#[derive(Debug, Clone, Copy)]
struct RetryPolicy {
    retries: u32,
    backoff: std::time::Duration,
}

impl RetryPolicy {
    const BACKOFF_CAP: std::time::Duration = std::time::Duration::from_millis(250);

    fn from_env() -> Self {
        fn parse_env(key: &str, default: u64) -> u64 {
            match std::env::var(key) {
                Ok(raw) => raw.trim().parse().unwrap_or_else(|_| {
                    eprintln!("warning: ignoring invalid {key}={raw:?}");
                    default
                }),
                Err(_) => default,
            }
        }
        RetryPolicy {
            retries: u32::try_from(parse_env("FASTMON_CHECKPOINT_RETRIES", 3)).unwrap_or(u32::MAX),
            backoff: std::time::Duration::from_millis(
                parse_env("FASTMON_CHECKPOINT_BACKOFF_MS", 5).min(250),
            ),
        }
    }
}

/// Saves `cp`, retrying transient I/O failures (`CheckpointError::Io` —
/// which injected `checkpoint_write`/`checkpoint_rename` failures mimic)
/// with capped exponential backoff. Non-I/O errors (e.g. the test-only
/// interruption hook) are never retried. Every retry increments
/// `robustness.checkpoint_retries`.
fn save_with_retry(
    store: &CheckpointStore,
    cp: &CampaignCheckpoint,
    policy: &RetryPolicy,
    metrics: &MetricsRegistry,
) -> Result<u64, CheckpointError> {
    let mut delay = policy.backoff;
    let mut attempt = 0u32;
    loop {
        match store.save(cp) {
            Ok(bytes) => return Ok(bytes),
            Err(e @ CheckpointError::Io { .. }) if attempt < policy.retries => {
                attempt += 1;
                metrics.robustness.checkpoint_retries.incr();
                eprintln!(
                    "warning: checkpoint save attempt {attempt}/{} failed ({e}); retrying in {delay:?}",
                    policy.retries.saturating_add(1),
                );
                std::thread::sleep(delay);
                delay = (delay * 2).min(RetryPolicy::BACKOFF_CAP);
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastmon_netlist::library;

    #[test]
    fn prepare_s27() {
        let c = library::s27();
        let flow = HdfTestFlow::prepare(&c, &FlowConfig::default());
        let counts = flow.counts();
        assert_eq!(counts.initial, 56);
        assert_eq!(
            counts.initial,
            counts.at_speed_detectable + counts.timing_redundant + counts.candidates
        );
        assert_eq!(counts.sampled, counts.candidates);
        assert_eq!(flow.placement().count(), 1);
        assert!(flow.clock().t_nom > flow.clock().t_min);
    }

    #[test]
    fn fault_sampling_caps_population() {
        let c = library::s27();
        let config = FlowConfig {
            max_faults: Some(5),
            ..FlowConfig::default()
        };
        let flow = HdfTestFlow::prepare(&c, &config);
        assert!(flow.counts().sampled <= 5);
        assert!(flow.counts().candidates >= flow.counts().sampled);
    }

    #[test]
    fn analyze_and_schedule_s27() {
        let c = library::s27();
        let flow = HdfTestFlow::prepare(&c, &FlowConfig::default());
        let patterns = flow.generate_patterns(None);
        assert!(!patterns.is_empty());
        let analysis = flow.analyze(&patterns);
        assert_eq!(analysis.num_faults(), flow.counts().sampled);
        // monitors never hurt
        assert!(analysis.detected_prop() >= analysis.detected_conv());
        for solver in [Solver::Conventional, Solver::Greedy, Solver::Ilp] {
            let schedule = flow.schedule(&analysis, solver);
            if solver != Solver::Conventional {
                assert!(
                    schedule.covers_all_targets(&analysis),
                    "{solver:?} must cover all targets"
                );
            }
            // every entry application list is non-empty
            for e in &schedule.entries {
                assert!(!e.applications.is_empty());
                assert!(!e.faults.is_empty());
            }
        }
    }

    #[test]
    fn scoped_metrics_cover_every_phase() {
        let c = library::s27();
        let flow = HdfTestFlow::prepare(&c, &FlowConfig::default());
        let m = flow.metrics();
        assert_eq!(m.sta.analyses.get(), 1);
        assert_eq!(m.sta.nodes_levelized.get(), c.len() as u64);
        let patterns = flow.generate_patterns(None);
        assert!(m.atpg.patterns_emitted.get() >= patterns.len() as u64);
        assert!(m.atpg.faults_detected.get() > 0);
        let analysis = flow.analyze(&patterns);
        assert!(m.sim.cones_simulated.get() + m.sim.cones_masked.get() > 0);
        let _ = flow.schedule(&analysis, Solver::Ilp);
        // stage a + one stage-b solve per scheduled frequency; tiny
        // instances may be fully solved by preprocessing (zero B&B nodes),
        // so only the solve count is guaranteed
        assert!(m.ilp.solves.get() >= 2);
        // a second flow starts from a clean slate
        let other = HdfTestFlow::prepare(&c, &FlowConfig::default());
        assert_eq!(other.metrics().sim.cones_simulated.get(), 0);
        assert_eq!(other.metrics().ilp.solves.get(), 0);
    }

    #[test]
    fn resumable_analyze_records_checkpoint_io() {
        let c = library::s27();
        let flow = HdfTestFlow::prepare(&c, &FlowConfig::default());
        let patterns = flow.generate_patterns(Some(6));
        let dir = std::env::temp_dir().join(format!(
            "fastmon-ckpt-metrics-{}-{}",
            std::process::id(),
            fastmon_obs::run_id(),
        ));
        let store = CheckpointStore::new(dir.join("s27.ckpt"));
        let analysis = flow.analyze_resumable(&patterns, &store).unwrap();
        assert_eq!(analysis.num_patterns, patterns.len());
        let m = &flow.metrics().checkpoint;
        assert!(m.saves.get() > 0, "every band persists a checkpoint");
        assert!(m.save_bytes.get() > 0);
        assert_eq!(m.resumes.get(), 0, "fresh run resumes nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ilp_never_needs_more_frequencies_than_greedy() {
        let c = library::s27();
        let flow = HdfTestFlow::prepare(&c, &FlowConfig::default());
        let patterns = flow.generate_patterns(None);
        let analysis = flow.analyze(&patterns);
        let greedy_sel = flow.select_frequencies_only(&analysis, Solver::Greedy, 0);
        let ilp_sel = flow.select_frequencies_only(&analysis, Solver::Ilp, 0);
        assert!(ilp_sel.periods.len() <= greedy_sel.periods.len());
        assert!(ilp_sel.optimal);
    }

    #[test]
    fn coverage_targets_monotone() {
        let c = library::s27();
        let flow = HdfTestFlow::prepare(&c, &FlowConfig::default());
        let patterns = flow.generate_patterns(None);
        let analysis = flow.analyze(&patterns);
        let mut last = usize::MAX;
        for cov in [1.0, 0.99, 0.9, 0.7] {
            let s = flow.schedule_with_coverage(&analysis, Solver::Ilp, cov);
            assert!(s.num_frequencies() <= last);
            last = s.num_frequencies();
        }
    }
}
