//! One benchmark run of one workload, in its own process.
//!
//! ```text
//! fastmon-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                   --work-dir <dir> [--trace-out <file>] [--oracle] [--tiny]
//!                   [--plant-mismatch]
//! ```
//!
//! A run covers the workload's [`Workload::instances`] instances, each a
//! circuit and flow seed derived from `--seed` (or, for `schedule-ilp`,
//! fixed; see [`SCHEDULE_INSTANCE`]). One job is one instance's
//! set-up followed by its timed part; the run makes passes over all
//! instances until `--seconds` have passed (at least one pass). Every job's
//! invariants are checked, and the last line of stdout is one JSON object:
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`), job/failure counts and the instances' outputs, which
//! `run.py` compares against the recorded goldens. `perfbench/README.md`
//! documents the workloads and metrics.

mod trace;
mod usage;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use fastmon_atpg::TestSet;
use fastmon_bench::shardsup::{maybe_run_worker, supervise};
use fastmon_bench::ExperimentConfig;
use fastmon_core::{
    CheckpointStore, DetectionAnalysis, FlowConfig, HdfTestFlow, Solver, TestSchedule,
};
use fastmon_netlist::generate::CircuitProfile;
use fastmon_netlist::Circuit;
use trace::{SpanId, Tracer};

/// Simulation/ATPG worker threads (`FlowConfig::threads`) of every workload.
const THREADS: usize = 2;
/// Per-solve ILP deadline, the flow's default. Only `schedule-ilp`
/// schedules; shard workers receive it with the rest of the config.
const ILP_DEADLINE: Duration = Duration::from_secs(20);
/// Full-coverage ILP schedules of the same analysis in one `schedule-ilp`
/// job's timed part. One schedule takes about 2.3 s and its time varies by
/// about 13 % from one schedule to the next on a shared host, so a job
/// times several.
const SCHEDULE_REPEATS: usize = 4;
/// Fault shards of `campaign-procs`, one supervised worker process each.
const SHARDS: usize = 2;
/// Extra untraced set-ups of each `flow-podem` job: its set-up takes about
/// 5 ms, so one sample per job would leave `setup_s` at the mercy of noise.
const CHEAP_SETUP_REPEATS: usize = 16;
/// Instance `j` of a run with seed `s` uses seed `s * SEED_STRIDE + j`, the
/// same in every workload, so `campaign-procs` runs `campaign`'s instances.
const SEED_STRIDE: u64 = 8;
/// Scale factor `--tiny` applies to every circuit (self-test only).
const TINY_SCALE: f64 = 0.05;

/// What one job runs on: a paper-suite circuit at a scale, the seed its
/// netlist is generated from, and the seed of the flow (process variation,
/// fault sample, ATPG fill).
#[derive(Clone, Copy, Default)]
struct Instance {
    profile: &'static str,
    scale: f64,
    netlist_seed: u64,
    flow_seed: u64,
}

/// A workload: how many instances one run covers, how each is derived
/// from `--seed`, and the job run on each.
struct Workload {
    name: &'static str,
    max_faults: usize,
    /// Instances per run (at most [`SEED_STRIDE`]); a run reports the mean
    /// over them, because work varies from one instance to the next.
    instances: u64,
    /// Instance `j` of a run with seed `s`.
    instance: fn(u64, u64) -> Instance,
    job: fn(&mut Ctx<'_>, &mut Job) -> Option<()>,
}

/// Seed of instance `j` of a run with seed `s`, the same in every seeded
/// workload.
fn instance_seed(s: u64, j: u64) -> u64 {
    s.wrapping_mul(SEED_STRIDE).wrapping_add(j)
}

/// PODEM time swings by up to 1.6x between generated netlists; one fixed
/// netlist, like the paper's fixed s9234, keeps `flow-podem` about the flow
/// rather than about which netlist a seed drew.
fn flow_podem_instance(s: u64, j: u64) -> Instance {
    Instance {
        profile: "s9234",
        scale: 1.0,
        netlist_seed: 1,
        flow_seed: instance_seed(s, j),
    }
}

/// Shard workers regenerate the circuit from the flow seed, so both
/// campaign workloads generate it from there.
fn campaign_instance(s: u64, j: u64) -> Instance {
    let seed = instance_seed(s, j);
    Instance {
        profile: "p89k",
        scale: 0.0625,
        netlist_seed: seed,
        flow_seed: seed,
    }
}

/// The `schedule-ilp` instance, the same for every `--seed`:
/// branch-and-bound effort is heavy-tailed across seeds (one flow seed
/// proves optimality in a second, the next runs into the 20 s deadline),
/// so the workload schedules an instance checked to prove optimality well
/// inside it: s13207 at full scale with all ≈ 16 800 candidate faults,
/// ≈ 380 000 B&B nodes over 19 solves per schedule.
const SCHEDULE_INSTANCE: Instance = Instance {
    profile: "s13207",
    scale: 1.0,
    netlist_seed: 1,
    flow_seed: 1,
};

fn schedule_instance(_s: u64, _j: u64) -> Instance {
    SCHEDULE_INSTANCE
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "flow-podem",
        max_faults: 8_000,
        instances: 3,
        instance: flow_podem_instance,
        job: job_flow_podem,
    },
    Workload {
        name: "campaign",
        max_faults: 30_000,
        instances: 5,
        instance: campaign_instance,
        job: job_campaign,
    },
    Workload {
        name: "campaign-procs",
        max_faults: 30_000,
        instances: 4,
        instance: campaign_instance,
        job: job_campaign_procs,
    },
    Workload {
        name: "schedule-ilp",
        max_faults: 30_000,
        instances: 1,
        instance: schedule_instance,
        job: job_schedule_ilp,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    trace_out: Option<PathBuf>,
    oracle: bool,
    tiny: bool,
    plant_mismatch: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut get = BTreeMap::new();
    let mut flags = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--oracle" | "--tiny" | "--plant-mismatch" => flags.push(a),
            "--workload" | "--seed" | "--seconds" | "--trace" | "--work-dir" | "--trace-out" => {
                let v = args.next().ok_or(format!("{a} needs a value"))?;
                get.insert(a, v);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let need = |k: &str| get.get(k).cloned().ok_or(format!("{k} is required"));
    let name = need("--workload")?;
    Ok(Args {
        workload: WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .ok_or(format!("unknown workload {name:?}"))?,
        seed: need("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: need("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match need("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        work_dir: PathBuf::from(need("--work-dir")?),
        trace_out: get.get("--trace-out").map(PathBuf::from),
        oracle: flags.iter().any(|f| f == "--oracle"),
        tiny: flags.iter().any(|f| f == "--tiny"),
        plant_mismatch: flags.iter().any(|f| f == "--plant-mismatch"),
    })
}

/// One job: what it ran on, what it measured and what it produced.
#[derive(Default)]
struct Job {
    /// Job id, shared by all of the job's spans.
    id: usize,
    instance: u64,
    /// What instance `instance` runs on.
    inst: Instance,
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    /// Peak RSS of this process over the job's set-up and timed part.
    peak_rss_mb: f64,
    /// Simulated (sampled fault × pattern) pairs in the timed part.
    pairs: f64,
    failed: bool,
    errors: Vec<String>,
    /// Result fingerprint of a supervised campaign.
    fingerprint: Option<u64>,
    /// Canonical JSON of the instance's outputs (fingerprint, sizes).
    output: String,
    /// Layer counters read from the flow's registry and the supervisor.
    counters: BTreeMap<&'static str, f64>,
    /// Self time per layer over set-up and the timed part (traced runs).
    self_s: BTreeMap<&'static str, f64>,
    /// Self time of the timed part's root span: time no layer span covers.
    unattributed_s: f64,
}

impl Job {
    fn fail(&mut self, what: impl Into<String>) {
        self.failed = true;
        self.errors.push(what.into());
    }

    fn counter(&mut self, key: &'static str, value: f64) {
        *self.counters.entry(key).or_insert(0.0) += value;
    }

    fn merge_times(&mut self, times: BTreeMap<&'static str, f64>) {
        for (layer, s) in times {
            *self.self_s.entry(layer).or_insert(0.0) += s;
        }
    }
}

struct Ctx<'a> {
    args: &'a Args,
    tracer: Tracer,
}

impl Ctx<'_> {
    /// The instance's circuit profile and the scale it runs at.
    fn profile(&self, inst: &Instance) -> (CircuitProfile, f64) {
        let base =
            CircuitProfile::named(inst.profile).expect("workloads name paper-suite profiles");
        let scale = if self.args.tiny {
            inst.scale * TINY_SCALE
        } else {
            inst.scale
        };
        (base.scaled(scale), scale)
    }

    fn flow_config(&self, seed: u64) -> FlowConfig {
        FlowConfig {
            seed,
            threads: THREADS,
            ilp_deadline: ILP_DEADLINE,
            max_faults: Some(self.args.workload.max_faults),
            ..FlowConfig::default()
        }
    }

    /// A fresh directory for the job's checkpoint and shard files.
    fn job_dir(&self, job: &mut Job) -> Option<PathBuf> {
        let dir = self.args.work_dir.join(format!("job-{}", job.id));
        std::fs::create_dir_all(&dir)
            .map_err(|e| job.fail(format!("create {}: {e}", dir.display())))
            .ok()
            .map(|()| dir)
    }

    /// Starts the job's set-up: generates the instance's circuit inside a
    /// `netlist` span under a `setup` root span.
    fn begin_setup(&mut self, job: &mut Job) -> Option<(Setup, Circuit)> {
        let setup = Setup {
            t0: Instant::now(),
            root: self.tracer.begin("setup", job.id, None),
        };
        let (p, _) = self.profile(&job.inst);
        let seed = job.inst.netlist_seed;
        self.tracer
            .span("netlist", job.id, Some(setup.root), || p.generate(seed))
            .map_err(|e| job.fail(format!("generate: {e}")))
            .ok()
            .map(|c| (setup, c))
    }

    /// Ends the set-up: its wall clock is the job's `setup_s`.
    fn end_setup(&mut self, job: &mut Job, setup: Setup) {
        self.tracer.end(setup.root);
        job.setup_s = setup.t0.elapsed().as_secs_f64();
        job.merge_times(self.tracer.self_times(setup.root));
    }

    fn prepare<'c>(
        &mut self,
        job: &mut Job,
        parent: SpanId,
        circuit: &'c Circuit,
    ) -> Option<HdfTestFlow<'c>> {
        let cfg = self.flow_config(job.inst.flow_seed);
        self.tracer
            .span("core.prepare", job.id, Some(parent), || {
                HdfTestFlow::try_prepare(circuit, &cfg)
            })
            .map_err(|e| job.fail(format!("prepare: {e}")))
            .ok()
    }

    fn atpg(&mut self, job: &mut Job, parent: SpanId, flow: &HdfTestFlow<'_>) -> Option<TestSet> {
        let budget = self.profile(&job.inst).0.pattern_budget;
        self.tracer
            .span("atpg", job.id, Some(parent), || {
                flow.try_generate_patterns(Some(budget))
            })
            .map_err(|e| job.fail(format!("atpg: {e}")))
            .ok()
    }

    /// The job's timed part: wall and CPU clocks (this process and its
    /// reaped children) around `f`, inside a `timed` root span; then the
    /// job's peak RSS.
    fn timed<T>(
        &mut self,
        job: &mut Job,
        f: impl FnOnce(&mut Self, SpanId) -> Result<T, String>,
    ) -> Option<T> {
        let cpu0 = cpu_now();
        let t0 = Instant::now();
        let root = self.tracer.begin("timed", job.id, None);
        let out = f(self, root);
        self.tracer.end(root);
        job.wall_s = t0.elapsed().as_secs_f64();
        job.cpu_s = cpu_now() - cpu0;
        // Since the reset at the job's start: set-up and timed part, not
        // the checks that follow.
        job.peak_rss_mb = usage::self_peak_rss_mb();
        let times = self.tracer.self_times(root);
        job.unattributed_s = times.get("timed").copied().unwrap_or(0.0);
        job.merge_times(times);
        out.map_err(|e| job.fail(e)).ok()
    }
}

/// A running set-up: its clock and root span.
struct Setup {
    t0: Instant,
    root: SpanId,
}

/// CPU seconds of this process and its reaped children.
fn cpu_now() -> f64 {
    usage::self_cpu_s() + usage::children_cpu_s()
}

fn read_counters(job: &mut Job, flow: &HdfTestFlow<'_>) {
    let m = flow.metrics();
    job.counter("faults.sampled", flow.counts().sampled as f64);
    for (key, c) in [
        ("atpg.podem_calls", &m.atpg.podem_calls),
        ("atpg.podem_backtracks", &m.atpg.podem_backtracks),
        ("atpg.podem_aborts", &m.atpg.podem_aborts),
        ("atpg.cone_nodes_evaluated", &m.atpg.cone_nodes_evaluated),
        ("atpg.patterns", &m.atpg.patterns_emitted),
        ("sim.cones_simulated", &m.sim.cones_simulated),
        ("sim.cones_masked", &m.sim.cones_masked),
        ("sim.nodes_evaluated", &m.sim.nodes_evaluated),
        ("sim.screen_nodes_visited", &m.sim.screen_nodes_visited),
        ("sim.faults_screened_out", &m.sim.faults_screened_out),
        ("sim.waveform_allocs", &m.sim.waveform_allocs),
        ("checkpoint.saves", &m.checkpoint.saves),
        ("checkpoint.resumes", &m.checkpoint.resumes),
        ("ilp.solves", &m.ilp.solves),
        ("ilp.bb_nodes", &m.ilp.bb_nodes),
        ("ilp.bb_bounds_pruned", &m.ilp.bb_bounds_pruned),
        ("ilp.deadline_hits", &m.ilp.deadline_hits),
        ("ilp.greedy_fallbacks", &m.ilp.greedy_fallbacks),
    ] {
        job.counter(key, c.get() as f64);
    }
    job.counter(
        "checkpoint.save_mb",
        m.checkpoint.save_bytes.get() as f64 / (1024.0 * 1024.0),
    );
    // Every job starts from a fresh checkpoint directory.
    let resumes = m.checkpoint.resumes.get();
    if resumes > 0 {
        job.fail(format!("checkpoint.resumes = {resumes}, must be 0"));
    }
    // A deadline hit means a schedule is the greedy-quality incumbent.
    let deadline_hits = m.ilp.deadline_hits.get();
    if deadline_hits > 0 {
        job.fail(format!("ilp.deadline_hits = {deadline_hits}, must be 0"));
    }
}

/// `flow-podem`: set-up generates and prepares s9234; the timed part is
/// ATPG followed by `try_analyze` (no checkpoints).
fn job_flow_podem(ctx: &mut Ctx<'_>, job: &mut Job) -> Option<()> {
    let (setup, circuit) = ctx.begin_setup(job)?;
    let flow = ctx.prepare(job, setup.root, &circuit)?;
    ctx.end_setup(job, setup);
    let (p, _) = ctx.profile(&job.inst);
    let cfg = ctx.flow_config(job.inst.flow_seed);
    let mut samples = vec![job.setup_s];
    for _ in 0..CHEAP_SETUP_REPEATS {
        let t0 = Instant::now();
        let again = p
            .generate(job.inst.netlist_seed)
            .map_err(|e| e.to_string())
            .and_then(|c| match HdfTestFlow::try_prepare(&c, &cfg) {
                Ok(flow) => Ok(std::hint::black_box(flow.counts().sampled)),
                Err(e) => Err(e.to_string()),
            });
        samples.push(t0.elapsed().as_secs_f64());
        if let Err(e) = again {
            job.fail(format!("repeated set-up: {e}"));
            return None;
        }
    }
    job.setup_s = median(samples);
    let (id, budget) = (job.id, p.pattern_budget);
    let out = ctx.timed(job, |ctx, root| {
        let patterns = ctx
            .tracer
            .span("atpg", id, Some(root), || {
                flow.try_generate_patterns(Some(budget))
            })
            .map_err(|e| format!("atpg: {e}"))?;
        let analysis = ctx
            .tracer
            .span("sim", id, Some(root), || flow.try_analyze(&patterns))
            .map_err(|e| format!("analyze: {e}"))?;
        Ok((patterns, analysis))
    });
    read_counters(job, &flow);
    let (patterns, analysis) = out?;
    job.pairs = (analysis.num_faults() * patterns.len()) as f64;
    job.output = campaign_output(analysis.result_fingerprint(), &patterns);
    Some(())
}

fn campaign_output(fingerprint: u64, patterns: &TestSet) -> String {
    format!(
        "{{\"fingerprint\":\"{fingerprint:016x}\",\"patterns\":{}}}",
        patterns.len()
    )
}

/// `campaign`: set-up generates p89k, prepares it and makes the patterns;
/// the timed part is the checkpointed campaign (`analyze_resumable`) into
/// a fresh checkpoint store.
fn job_campaign(ctx: &mut Ctx<'_>, job: &mut Job) -> Option<()> {
    let store = CheckpointStore::new(ctx.job_dir(job)?.join("campaign.fmck"));
    let (setup, circuit) = ctx.begin_setup(job)?;
    let flow = ctx.prepare(job, setup.root, &circuit)?;
    let patterns = ctx.atpg(job, setup.root, &flow)?;
    ctx.end_setup(job, setup);
    let id = job.id;
    let analysis = ctx.timed(job, |ctx, root| {
        let span = ctx.tracer.begin("sim", id, Some(root));
        let r = flow.analyze_resumable(&patterns, &store);
        ctx.tracer.end(span);
        let saved = flow.metrics().checkpoint.save_ns.get() as f64 * 1e-9;
        ctx.tracer.derived("checkpoint", span, saved);
        r.map_err(|e| format!("analyze_resumable: {e}"))
    });
    read_counters(job, &flow);
    let analysis = analysis?;
    job.pairs = (analysis.num_faults() * patterns.len()) as f64;
    job.output = campaign_output(analysis.result_fingerprint(), &patterns);
    Some(())
}

/// `campaign-procs`: the same campaign as [`SHARDS`] supervised worker
/// processes (`fastmon_bench::shardsup::supervise`) under a fresh
/// shard-job directory.
fn job_campaign_procs(ctx: &mut Ctx<'_>, job: &mut Job) -> Option<()> {
    let dir = ctx.job_dir(job)?;
    let (setup, circuit) = ctx.begin_setup(job)?;
    let flow = ctx.prepare(job, setup.root, &circuit)?;
    let patterns = ctx.atpg(job, setup.root, &flow)?;
    ctx.end_setup(job, setup);
    let config = ExperimentConfig {
        target_gates: 0,
        max_faults: ctx.args.workload.max_faults,
        circuits: Vec::new(),
        seed: job.inst.flow_seed,
        ilp_deadline: ILP_DEADLINE,
        shards: SHARDS,
        shard_procs: true,
    };
    let (profile, scale) = (job.inst.profile, ctx.profile(&job.inst).1);
    let child_cpu0 = usage::children_cpu_s();
    let id = job.id;
    let run = ctx.timed(job, |ctx, root| {
        ctx.tracer
            .span("shardsup", id, Some(root), || {
                supervise(
                    &flow,
                    &patterns,
                    &config,
                    profile,
                    scale,
                    &dir,
                    None,
                    &mut |_| {},
                )
            })
            .map_err(|e| format!("supervise: {e}"))
    });
    job.counter(
        "shardsup.children_cpu_s",
        usage::children_cpu_s() - child_cpu0,
    );
    job.counter(
        "shardsup.children_peak_rss_mb",
        usage::children_peak_rss_mb(),
    );
    read_counters(job, &flow);
    let run = run?;
    let r = &run.report;
    job.counter("shardsup.workers_spawned", r.workers_spawned as f64);
    job.counter("shardsup.respawns", r.respawns as f64);
    job.counter(
        "shardsup.stragglers_redispatched",
        r.stragglers_redispatched as f64,
    );
    job.counter("shardsup.heartbeats_received", r.heartbeats_received as f64);
    if r.respawns > 0 {
        job.fail(format!("{} supervisor respawns, must be 0", r.respawns));
    }
    if r.shards_completed != SHARDS as u64 {
        job.fail(format!("{} of {SHARDS} shards landed", r.shards_completed));
    }
    let fp = run.analysis.result_fingerprint();
    job.fingerprint = Some(fp);
    job.pairs = (run.analysis.num_faults() * patterns.len()) as f64;
    job.output = campaign_output(fp, &patterns);
    Some(())
}

/// `schedule-ilp`: set-up generates the instance's circuit, prepares it,
/// makes the patterns and analyses them (`try_analyze`); the timed part is
/// [`SCHEDULE_REPEATS`] full-coverage two-step ILP schedules
/// (`try_schedule`, `Solver::Ilp`) of that analysis. Every schedule must
/// prove optimality, cover every target fault and match the first.
fn job_schedule_ilp(ctx: &mut Ctx<'_>, job: &mut Job) -> Option<()> {
    let (setup, circuit) = ctx.begin_setup(job)?;
    let flow = ctx.prepare(job, setup.root, &circuit)?;
    let patterns = ctx.atpg(job, setup.root, &flow)?;
    let analysis = ctx
        .tracer
        .span("sim", job.id, Some(setup.root), || {
            flow.try_analyze(&patterns)
        })
        .map_err(|e| job.fail(format!("analyze: {e}")))
        .ok()?;
    ctx.end_setup(job, setup);
    let id = job.id;
    let schedules = ctx.timed(job, |ctx, root| {
        let mut schedules = Vec::new();
        for _ in 0..SCHEDULE_REPEATS {
            let schedule = ctx
                .tracer
                .span("ilp", id, Some(root), || {
                    flow.try_schedule(&analysis, Solver::Ilp)
                })
                .map_err(|e| format!("schedule: {e}"))?;
            // The remaining schedules would each wait out the deadline too.
            if schedule.selection.deadline_hit {
                return Err("ilp deadline hit".to_owned());
            }
            schedules.push(schedule);
        }
        Ok(schedules)
    });
    read_counters(job, &flow);
    let outputs = schedules?
        .iter()
        .map(|s| schedule_output(&analysis, &patterns, s))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| job.fail(e))
        .ok()?;
    if let Some(other) = outputs.iter().find(|o| **o != outputs[0]) {
        job.fail(format!("schedule {other} differs from {}", outputs[0]));
    }
    job.output = outputs[0].clone();
    Some(())
}

/// Canonical JSON of a full-coverage schedule and the analysis it covers,
/// or why the schedule is not acceptable.
fn schedule_output(
    analysis: &DetectionAnalysis,
    patterns: &TestSet,
    schedule: &TestSchedule,
) -> Result<String, String> {
    if schedule.selection.deadline_hit || !schedule.notes.is_empty() {
        return Err(format!("schedule degraded: {}", schedule.notes.join("; ")));
    }
    if !schedule.selection.optimal {
        return Err("frequency selection not proven optimal".to_owned());
    }
    if !schedule.covers_all_targets(analysis) {
        return Err("schedule leaves a target fault uncovered".to_owned());
    }
    Ok(format!(
        "{{\"fingerprint\":\"{:016x}\",\"patterns\":{},\"frequencies\":{},\
         \"applications\":{}}}",
        analysis.result_fingerprint(),
        patterns.len(),
        schedule.num_frequencies(),
        schedule.num_applications()
    ))
}

/// With `--oracle` (an unrecorded seed, so no golden to compare with) the
/// supervised result of the run's first job must equal the in-process
/// campaign of the same instance; jobs without a supervised result skip it. It runs once, after every job, because
/// it costs as much as a job and would inflate the next job's peak RSS.
fn check_against_in_process(ctx: &mut Ctx<'_>, job: &mut Job) {
    let Some(fp) = job.fingerprint else { return };
    let (p, _) = ctx.profile(&job.inst);
    let cfg = ctx.flow_config(job.inst.flow_seed);
    let reference = p
        .generate(job.inst.netlist_seed)
        .map_err(|e| e.to_string())
        .and_then(|c| {
            let flow = HdfTestFlow::try_prepare(&c, &cfg).map_err(|e| e.to_string())?;
            let patterns = flow
                .try_generate_patterns(Some(p.pattern_budget))
                .map_err(|e| e.to_string())?;
            let analysis = flow.try_analyze(&patterns).map_err(|e| e.to_string())?;
            Ok(analysis.result_fingerprint())
        });
    match reference {
        Ok(mut want) => {
            if ctx.args.plant_mismatch {
                want ^= 1;
            }
            if fp != want {
                job.fail(format!(
                    "supervised fingerprint {fp:016x} != in-process {want:016x}"
                ));
            }
        }
        Err(e) => job.fail(format!("in-process oracle: {e}")),
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean over instances of each instance's median over its jobs.
fn per_instance(jobs: &[Job], instances: u64, f: impl Fn(&Job) -> f64) -> f64 {
    let sum: f64 = (0..instances)
        .map(|i| median(jobs.iter().filter(|j| j.instance == i).map(&f).collect()))
        .sum();
    sum / instances as f64
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    let value = if value.is_finite() { value } else { 0.0 };
    let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    maybe_run_worker();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("[perfbench] {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let mut ctx = Ctx {
        tracer: Tracer::new(args.trace),
        args: &args,
    };
    let start = Instant::now();
    let mut jobs: Vec<Job> = Vec::new();
    while jobs.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        for instance in 0..w.instances {
            let mut job = Job {
                id: jobs.len(),
                instance,
                inst: (w.instance)(args.seed, instance),
                ..Job::default()
            };
            usage::reset_self_peak();
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| {
                (w.job)(&mut ctx, &mut job);
            })) {
                let msg = p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                    .unwrap_or_default();
                job.fail(format!("panic: {msg}"));
            }
            let _ = std::fs::remove_dir_all(args.work_dir.join(format!("job-{}", job.id)));
            eprintln!(
                "[perfbench] {} job {} (seed {}): setup {:.3} s, timed {:.3} s, cpu {:.3} s, \
                 peak {:.1} MiB (children so far {:.1} MiB){}",
                w.name,
                job.id,
                job.inst.flow_seed,
                job.setup_s,
                job.wall_s,
                job.cpu_s,
                job.peak_rss_mb,
                usage::children_peak_rss_mb(),
                if job.errors.is_empty() {
                    String::new()
                } else {
                    format!(", errors: {}", job.errors.join("; "))
                }
            );
            jobs.push(job);
        }
    }
    if args.oracle {
        check_against_in_process(&mut ctx, &mut jobs[0]);
    }
    report(&mut ctx, &mut jobs);
}

fn report(ctx: &mut Ctx<'_>, jobs: &mut [Job]) {
    let args = ctx.args;
    let n = args.workload.instances;
    // Every pass must reproduce each instance's outputs.
    let mut outputs = Vec::new();
    for i in 0..n {
        let first = jobs
            .iter()
            .find(|j| j.instance == i && !j.output.is_empty())
            .map(|j| j.output.clone());
        for job in jobs.iter_mut().filter(|j| j.instance == i) {
            if let Some(want) = &first {
                if !job.output.is_empty() && &job.output != want {
                    let got = job.output.clone();
                    job.fail(format!(
                        "output {got} differs from an earlier pass's {want}"
                    ));
                }
            }
        }
        outputs.push(first.unwrap_or_else(|| "null".to_owned()));
    }
    let failed = jobs.iter().filter(|j| j.failed).count();
    let errors: Vec<String> = jobs
        .iter()
        .flat_map(|j| j.errors.iter())
        .map(|e| json_str(e))
        .collect();
    let agg = |f: &dyn Fn(&Job) -> f64| per_instance(jobs, n, f);
    let wall_s = agg(&|j| j.wall_s);

    let mut m = String::from("{");
    if args.trace {
        let layer = |name: &'static str| agg(&|j: &Job| j.self_s.get(name).copied().unwrap_or(0.0));
        let counter =
            |key: &'static str| agg(&|j: &Job| j.counters.get(key).copied().unwrap_or(0.0));
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        metric(&mut m, "netlist.generate_s", layer("netlist"), "s");
        metric(&mut m, "core.prepare_s", layer("core.prepare"), "s");
        metric(&mut m, "faults.sampled", counter("faults.sampled"), "count");
        metric(&mut m, "atpg.generate_s", layer("atpg"), "s");
        for key in [
            "atpg.podem_calls",
            "atpg.podem_backtracks",
            "atpg.podem_aborts",
        ] {
            metric(&mut m, key, counter(key), "count");
        }
        let abort_ratio = ratio(counter("atpg.podem_aborts"), counter("atpg.podem_calls"));
        metric(&mut m, "atpg.abort_ratio", abort_ratio, "share");
        for key in ["atpg.cone_nodes_evaluated", "atpg.patterns"] {
            metric(&mut m, key, counter(key), "count");
        }
        metric(&mut m, "sim.analyze_s", layer("sim"), "s");
        metric(
            &mut m,
            "sim.pairs_per_s",
            ratio(agg(&|j| j.pairs), wall_s),
            "1/s",
        );
        for key in ["sim.cones_simulated", "sim.cones_masked"] {
            metric(&mut m, key, counter(key), "count");
        }
        let (simulated, masked) = (counter("sim.cones_simulated"), counter("sim.cones_masked"));
        let useful = ratio(simulated, simulated + masked);
        metric(&mut m, "sim.useful_cone_ratio", useful, "share");
        for key in [
            "sim.nodes_evaluated",
            "sim.screen_nodes_visited",
            "sim.faults_screened_out",
            "sim.waveform_allocs",
            "checkpoint.saves",
        ] {
            metric(&mut m, key, counter(key), "count");
        }
        metric(&mut m, "checkpoint.save_s", layer("checkpoint"), "s");
        metric(
            &mut m,
            "checkpoint.save_mb",
            counter("checkpoint.save_mb"),
            "MiB",
        );
        metric(
            &mut m,
            "checkpoint.resumes",
            counter("checkpoint.resumes"),
            "count",
        );
        metric(&mut m, "ilp.schedule_s", layer("ilp"), "s");
        for key in [
            "ilp.solves",
            "ilp.bb_nodes",
            "ilp.bb_bounds_pruned",
            "ilp.deadline_hits",
            "ilp.greedy_fallbacks",
        ] {
            metric(&mut m, key, counter(key), "count");
        }
        metric(&mut m, "shardsup.supervise_s", layer("shardsup"), "s");
        for key in [
            "shardsup.workers_spawned",
            "shardsup.respawns",
            "shardsup.stragglers_redispatched",
            "shardsup.heartbeats_received",
        ] {
            metric(&mut m, key, counter(key), "count");
        }
        let children_cpu = counter("shardsup.children_cpu_s");
        metric(&mut m, "shardsup.children_cpu_s", children_cpu, "s");
        let children_rss = counter("shardsup.children_peak_rss_mb");
        metric(&mut m, "shardsup.children_peak_rss_mb", children_rss, "MiB");
        metric(&mut m, "trace.wall_s", wall_s, "s");
        metric(
            &mut m,
            "trace.unattributed_s",
            agg(&|j| j.unattributed_s),
            "s",
        );
        if let Some(path) = &args.trace_out {
            if let Err(e) = std::fs::write(path, ctx.tracer.to_jsonl()) {
                eprintln!("[perfbench] cannot write {}: {e}", path.display());
            }
        }
    } else {
        // The jobs' own peaks, or the largest shard worker's if higher.
        let peak_rss_mb = agg(&|j| j.peak_rss_mb).max(usage::children_peak_rss_mb());
        metric(&mut m, "wall_s", wall_s, "s");
        metric(&mut m, "cpu_s", agg(&|j| j.cpu_s), "s");
        metric(&mut m, "peak_rss_mb", peak_rss_mb, "MiB");
        metric(&mut m, "setup_s", agg(&|j| j.setup_s), "s");
    }
    m.push('}');
    println!(
        "{{\"jobs\":{},\"attempted\":{},\"failed\":{failed},\"errors\":[{}],\
         \"output\":[{}],\"metrics\":{m}}}",
        jobs.len(),
        jobs.len(),
        errors.join(","),
        outputs.join(","),
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
