//! The two run modes: untraced end-to-end timing and the traced
//! per-layer pass.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fl_sim::checkpoint::{load_latest, CheckpointConfig};
use fl_sim::client::ClientTrainer;
use fl_sim::history::TrainingHistory;
use fl_sim::parallel::worker_threads;
use fl_sim::runner::{run_federated_traced, FederatedSetup, TrainingConfig};
use fl_sim::separated::{run_separated, SeparatedConfig};
use helcfl_bench::Scheme;
use helcfl_telemetry::{JsonlSink, Telemetry};
use tinynn::model::Mlp;

use crate::digest::{golden, history_digest};
use crate::replay::{replay, Layers, Ring};
use crate::seams::{TimedPolicy, TimedSelector, TimedSink};
use crate::stats::{mean_tail_percentile, median, round_profile, tail_percentile, Summary};
use crate::workloads::{scheme_parts, Spec, Workload, DEFAULT_SEED};

type BoxResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Smallest share of the traced wall time the layer spans must cover.
const MIN_COVERAGE_PCT: f64 = 90.0;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

/// What a run of the benchmark found.
#[derive(Default)]
pub struct Outcome {
    /// Scheme runs attempted and failed (errored or failed a check).
    pub attempted: u64,
    pub failed: u64,
    /// Why runs failed.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable context printed ahead of the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        match Summary::of(samples) {
            Some(summary) => self.metrics.push(Metric {
                name,
                unit,
                summary,
            }),
            None => {
                self.problems.push(format!("{name}: no samples"));
                self.metrics.push(Metric {
                    name,
                    unit,
                    summary: Summary {
                        median: 0.0,
                        q1: 0.0,
                        q3: 0.0,
                        n: 0,
                    },
                });
            }
        }
    }
}

/// Per-run checks, tallied into the outcome's attempted/failed counts.
struct Ledger<'a> {
    out: &'a mut Outcome,
    spec: &'a Spec,
    seed: u64,
    /// First digest seen for each scheme in this process.
    digests: BTreeMap<&'static str, String>,
}

impl<'a> Ledger<'a> {
    fn new(out: &'a mut Outcome, spec: &'a Spec, seed: u64) -> Self {
        Self {
            out,
            spec,
            seed,
            digests: BTreeMap::new(),
        }
    }

    /// Records one attempted run; `problems` empty means it passed.
    fn tally(&mut self, label: &str, problems: Vec<String>) {
        self.out.attempted += 1;
        if !problems.is_empty() {
            self.out.failed += 1;
            self.out
                .problems
                .extend(problems.into_iter().map(|p| format!("{label}: {p}")));
        }
    }

    /// Checks a finished history: digest stable across repeats and, at
    /// the default seed, equal to the recorded one.
    fn history_checks(&mut self, scheme: &Scheme, history: &TrainingHistory) -> Vec<String> {
        let mut problems = Vec::new();
        let label = scheme.label();
        let digest = history_digest(history);
        match self.digests.get(label) {
            Some(first) if *first != digest => problems.push(format!(
                "history digest {digest} differs from first run {first}"
            )),
            Some(_) => {}
            None => {
                self.out.notes.push(format!("digest {label} {digest}"));
                self.digests.insert(label, digest.clone());
            }
        }
        if self.seed == DEFAULT_SEED {
            match golden(self.spec.workload.name(), label) {
                Some(want) if want == digest => {}
                Some(want) => problems.push(format!("digest {digest} != recorded {want}")),
                None => problems.push("no recorded digest for the default seed".into()),
            }
        }
        if history.is_empty() {
            problems.push("empty history".into());
        }
        if self.spec.config.faults.is_active() {
            let faults: usize = history.records().iter().map(|r| r.faults).sum();
            if faults == 0 {
                problems.push("no fault fired".into());
            }
        }
        problems
    }
}

/// Paper invariants that hold for every seed of `paper-iid`; returns
/// the labels of the runs that broke one, with the reason.
fn paper_invariants(
    histories: &BTreeMap<&'static str, TrainingHistory>,
) -> Vec<(&'static str, String)> {
    let mut broken = Vec::new();
    let (Some(classic), Some(fedl), Some(helcfl), Some(nodvfs)) = (
        histories.get("classic"),
        histories.get("fedl"),
        histories.get("helcfl"),
        histories.get("helcfl-nodvfs"),
    ) else {
        return vec![("lineup", "a paper-iid scheme is missing".into())];
    };
    if classic.accuracy_curve() != fedl.accuracy_curve() {
        broken.push(("fedl", "accuracy curve differs from classic".into()));
    }
    // Slack reclamation moves frequencies, not the makespan; the
    // recomputed makespan may differ in the last bits, as in the
    // library's own DVFS test (1 µs of simulated time).
    let same_schedule = helcfl.len() == nodvfs.len()
        && helcfl.records().iter().zip(nodvfs.records()).all(|(a, b)| {
            a.selected == b.selected && (a.round_time.get() - b.round_time.get()).abs() < 1e-6
        });
    if !same_schedule {
        broken.push((
            "helcfl",
            "selections or makespans differ from helcfl-nodvfs".into(),
        ));
    }
    let energy =
        |h: &TrainingHistory| -> f64 { h.records().iter().map(|r| r.compute_energy.get()).sum() };
    if energy(helcfl) > energy(nodvfs) {
        broken.push(("helcfl", "compute energy above helcfl-nodvfs".into()));
    }
    broken
}

/// Scratch directory for checkpoint rings and traces, inside the
/// working directory; removed when the benchmark ends.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(workload: Workload) -> std::io::Result<Self> {
        let dir = PathBuf::from(".perfbench_work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        ));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// A fresh, empty checkpoint-ring directory named `name`, when the
    /// workload writes checkpoints. A leftover ring would make the next
    /// run resume instead of train.
    fn ring(&self, spec: &Spec, name: &str) -> std::io::Result<Option<PathBuf>> {
        if spec.checkpoint_every.is_none() {
            return Ok(None);
        }
        let dir = self.0.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Some(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other benchmark process uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The config a run actually uses: the workload's, plus a checkpoint
/// ring in `ckpt_dir` when the workload writes one.
fn run_config(spec: &Spec, ckpt_dir: Option<&Path>) -> TrainingConfig {
    let mut config = spec.config.clone();
    if let (Some(interval), Some(dir)) = (spec.checkpoint_every, ckpt_dir) {
        config.checkpoint = Some(CheckpointConfig {
            dir: dir.to_path_buf(),
            interval,
            halt_after: None,
        });
    }
    config
}

/// One untraced scheme run as users run it: the scheme's own selector
/// and policy behind a boundary-stamping selector wrapper. Returns the
/// history, the run's wall time and its per-round host times.
fn run_untraced(
    spec: &Spec,
    scheme: &Scheme,
    setup: &mut FederatedSetup,
    work: &WorkDir,
) -> BoxResult<(TrainingHistory, Duration, Vec<Duration>)> {
    let ckpt = work.ring(spec, "ckpt")?;
    let config = run_config(spec, ckpt.as_deref());
    let Some((selector, policy)) = scheme_parts(scheme, &config)? else {
        let t0 = Instant::now();
        let history = run_separated(setup, &config, &SeparatedConfig::default())?;
        return Ok((history, t0.elapsed(), Vec::new()));
    };
    let mut selector = TimedSelector::new(selector);
    let trace = work.0.join("trace.jsonl");
    let t0 = Instant::now();
    let tele = match &ckpt {
        Some(_) => Telemetry::with_sink(JsonlSink::create(&trace)?),
        None => Telemetry::disabled(),
    };
    let history = run_federated_traced(setup, &config, &mut selector, policy.as_ref(), &tele)?;
    tele.finish();
    drop(tele);
    let end = Instant::now();
    if let Some(dir) = &ckpt {
        let last = history.records().last().map_or(0, |r| r.round);
        match load_latest(dir)? {
            Some(loaded) if loaded.checkpoint.round == last => {}
            other => {
                return Err(format!(
                    "load_latest returned round {:?}, want {last}",
                    other.map(|l| l.checkpoint.round)
                )
                .into())
            }
        }
    }
    Ok((history, end - t0, selector.round_durations(end)))
}

/// Short runs of every scheme so pools, allocator and lazy set-up are
/// warm before anything is timed.
fn warm_up(spec: &Spec, work: &WorkDir) -> BoxResult<()> {
    let mut short = spec.clone();
    short.config.max_rounds = 3;
    for scheme in &short.schemes {
        let (mut setup, _) = short.build_setup()?;
        run_untraced(&short, scheme, &mut setup, work)?;
    }
    Ok(())
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// End-to-end mode: repeats the workload's scheme sequence until
/// `seconds` have been measured.
pub fn end_to_end(spec: &Spec, seed: u64, seconds: u64, work: &WorkDir) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = warm_up(spec, work) {
        out.attempted += 1;
        out.failed += 1;
        out.problems.push(format!("warm-up: {e}"));
    }
    let mut setup_s = Vec::new();
    let mut run_s = Vec::new();
    let mut peak_rss_mb = f64::NAN;
    // Per scheme: run seconds, and round milliseconds per repetition.
    let mut per_scheme: BTreeMap<&'static str, (Vec<f64>, Vec<Vec<f64>>)> = BTreeMap::new();
    let mut ledger = Ledger::new(&mut out, spec, seed);
    let budget = Duration::from_secs(seconds);
    let measuring = Instant::now();
    loop {
        let mut rep_run = Duration::ZERO;
        let mut histories = BTreeMap::new();
        let mut problems: BTreeMap<&'static str, Vec<String>> = BTreeMap::new();
        for scheme in &spec.schemes {
            let label = scheme.label();
            let t0 = Instant::now();
            let built = spec.build_setup();
            setup_s.push(secs(t0.elapsed()));
            let result = built
                .map_err(Into::into)
                .and_then(|(mut setup, _)| run_untraced(spec, scheme, &mut setup, work));
            match result {
                Ok((history, wall, rounds)) => {
                    rep_run += wall;
                    let ms: Vec<f64> = rounds.iter().map(|d| d.as_secs_f64() * 1e3).collect();
                    let entry = per_scheme.entry(label).or_default();
                    entry.0.push(secs(wall));
                    if !ms.is_empty() {
                        entry.1.push(ms);
                    }
                    problems.insert(label, ledger.history_checks(scheme, &history));
                    histories.insert(label, history);
                }
                Err(e) => {
                    problems.insert(label, vec![format!("run failed: {e}")]);
                }
            }
        }
        if spec.workload == Workload::PaperIid && histories.len() == spec.schemes.len() {
            for (label, why) in paper_invariants(&histories) {
                problems.entry(label).or_default().push(why);
            }
        }
        for (label, p) in problems {
            ledger.tally(label, p);
        }
        run_s.push(secs(rep_run));
        if peak_rss_mb.is_nan() {
            // After one full repetition: the footprint of one run of the
            // workload, independent of how many repetitions fit.
            peak_rss_mb =
                helcfl_telemetry::resource::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / 1e6);
        }
        if measuring.elapsed() >= budget {
            break;
        }
    }
    // Round percentiles come from each scheme's round profile (every
    // round's fastest time across repetitions), averaged over the
    // schemes. Host slow phases last from a fraction of a second to
    // seconds and fall on different rounds in each repetition, so the
    // profile keeps what the rounds cost (checkpoint rounds, say) and
    // drops the phases.
    let profiles: Vec<Vec<f64>> = per_scheme
        .values()
        .filter_map(|(_, reps)| round_profile(reps))
        .collect();
    let with_rounds = per_scheme.values().filter(|s| !s.1.is_empty()).count();
    let rounds = match (
        mean_tail_percentile(&profiles, 50.0),
        mean_tail_percentile(&profiles, 95.0),
    ) {
        (Some(p50), Some(p95)) if profiles.len() == with_rounds => Some((p50, p95)),
        _ => None,
    };
    if rounds.is_none() {
        ledger.tally(
            "rounds",
            vec!["round profiles too short for a p95, or ragged".into()],
        );
    }
    drop(ledger);
    let (p50, p95) = rounds.unwrap_or((f64::NAN, f64::NAN));
    out.metric("setup_s", "s", &setup_s);
    out.metric("run_s", "s", &run_s);
    out.metric("round_ms_p50", "ms", &[p50]);
    out.metric("round_ms_p95", "ms", &[p95]);
    out.metric("peak_rss_mb", "MB", &[peak_rss_mb]);
    for (label, (runs, reps)) in &per_scheme {
        let profile = round_profile(reps).unwrap_or_default();
        out.notes.push(format!(
            "scheme {label}: run_s median {:.4} n {} | round profile p50 {:.3} p95 {:.3} ms, {} rounds x {} reps",
            median(runs).unwrap_or(0.0),
            runs.len(),
            tail_percentile(&profile, 50.0).unwrap_or(0.0),
            tail_percentile(&profile, 95.0).unwrap_or(0.0),
            profile.len(),
            reps.len(),
        ));
    }
    out
}

/// Per-pass accumulator of the traced mode.
#[derive(Default)]
struct Pass {
    setup: [Vec<f64>; 4],
    layers: Layers,
    selection_calls: Vec<f64>,
    frequency: Duration,
    separated: Duration,
    separated_updates: u64,
    checkpoint_load: Duration,
    sink: Duration,
    sink_lines: u64,
    sink_bytes: u64,
    untraced_wall: Duration,
    traced_wall: Duration,
}

impl Pass {
    /// Every per-layer metric of this pass with its unit, in report
    /// order; the last entry is the layer-span coverage.
    fn metrics(
        &self,
        workers: f64,
        flops: f64,
        ceiling: f64,
    ) -> [(&'static str, &'static str, f64); 35] {
        let l = &self.layers;
        let selection: f64 = self.selection_calls.iter().sum();
        let spans = selection
            + secs(self.frequency)
            + secs(l.timeline)
            + secs(l.broadcast)
            + secs(l.train)
            + secs(l.aggregate)
            + secs(l.evaluate)
            + secs(l.checkpoint_save)
            + secs(self.separated);
        let traced_wall = secs(self.traced_wall);
        let covered = if traced_wall > 0.0 {
            100.0 * spans / traced_wall
        } else {
            0.0
        };
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        [
            (
                "dataset.generate_s",
                "s",
                median(&self.setup[0]).unwrap_or(0.0),
            ),
            (
                "mec-sim.population_build_s",
                "s",
                median(&self.setup[1]).unwrap_or(0.0),
            ),
            (
                "partition.build_s",
                "s",
                median(&self.setup[2]).unwrap_or(0.0),
            ),
            (
                "fl-sim.setup_wire_s",
                "s",
                median(&self.setup[3]).unwrap_or(0.0),
            ),
            ("selection.s", "s", selection),
            (
                "selection.calls",
                "count",
                self.selection_calls.len() as f64,
            ),
            (
                "selection.us_p50",
                "us",
                median(&self.selection_calls).unwrap_or(0.0) * 1e6,
            ),
            ("frequency.s", "s", secs(self.frequency)),
            ("timeline.s", "s", secs(l.timeline)),
            ("parallel.train_s", "s", secs(l.train)),
            ("parallel.train_items", "count", l.train_items as f64),
            ("client.update_s", "s", secs(l.client_update)),
            ("client.samples", "count", l.client_samples as f64),
            (
                "parallel.train_efficiency",
                "ratio",
                ratio(secs(l.client_update), workers * secs(l.train)),
            ),
            (
                "tinynn.train_gflops",
                "GFLOP/s",
                ratio(3.0 * flops * l.client_samples as f64, secs(l.client_update)) / 1e9,
            ),
            ("parallel.eval_s", "s", secs(l.evaluate)),
            ("parallel.evals", "count", l.evals as f64),
            (
                "tinynn.eval_gflops",
                "GFLOP/s",
                ratio(flops * l.eval_rows as f64, workers * secs(l.evaluate)) / 1e9,
            ),
            ("tinynn.ceiling_gflops", "GFLOP/s", ceiling),
            ("server.aggregate_s", "s", secs(l.aggregate)),
            ("server.broadcast_s", "s", secs(l.broadcast)),
            ("separated.s", "s", secs(self.separated)),
            ("separated.updates", "count", self.separated_updates as f64),
            ("checkpoint.save_s", "s", secs(l.checkpoint_save)),
            ("checkpoint.saves", "count", l.checkpoint_saves as f64),
            ("checkpoint.bytes", "bytes", l.checkpoint_bytes as f64),
            ("checkpoint.load_s", "s", secs(self.checkpoint_load)),
            ("telemetry.sink_s", "s", secs(self.sink)),
            ("telemetry.events", "count", self.sink_lines as f64),
            ("telemetry.bytes", "bytes", self.sink_bytes as f64),
            ("faults.fired", "count", l.faults_fired as f64),
            (
                "round.delivered_ratio",
                "ratio",
                ratio(l.delivered as f64, l.selected as f64),
            ),
            (
                "trace.overhead_pct",
                "%",
                100.0
                    * ratio(
                        traced_wall - secs(self.untraced_wall),
                        secs(self.untraced_wall),
                    ),
            ),
            ("replay.unattributed_s", "s", traced_wall - spans),
            ("replay.coverage_pct", "%", covered),
        ]
    }
}

/// Times `ClientTrainer::eval_chunk` on one evaluation-sized block in
/// isolation — the kernel ceiling the pool's evaluation is held to.
fn ceiling_gflops(dims: &[usize], setup: &FederatedSetup) -> BoxResult<f64> {
    let model = Mlp::new(dims, 1)?;
    let mut trainer = ClientTrainer::new(dims)?;
    let set = setup.eval_set();
    let rows = set.len().min(fl_sim::client::EVAL_CHUNK_ROWS);
    for _ in 0..20 {
        trainer.eval_chunk(&model, set, 0, rows)?;
    }
    let mut reps = 0u64;
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(200) {
        std::hint::black_box(trainer.eval_chunk(&model, set, 0, rows)?);
        reps += 1;
    }
    Ok((reps * rows as u64 * model.flops_per_sample()) as f64 / secs(t0.elapsed()) / 1e9)
}

/// One traced scheme run: the untraced reference through the public
/// `Scheme` API, then the replay, then the checks binding them.
fn traced_scheme(
    spec: &Spec,
    scheme: &Scheme,
    pass: &mut Pass,
    work: &WorkDir,
) -> BoxResult<(TrainingHistory, Vec<String>)> {
    let mut problems = Vec::new();
    let (setup, times) = spec.build_setup()?;
    for (slot, d) in pass.setup.iter_mut().zip([
        times.dataset,
        times.population_build,
        times.partition_build,
        times.wire,
    ]) {
        slot.push(secs(d));
    }

    // Reference: the program's own run, as `Scheme::run` drives it.
    let ref_ckpt = work.ring(spec, "ckpt-ref")?;
    let config = run_config(spec, ref_ckpt.as_deref());
    let mut ref_setup = setup.clone();
    let t0 = Instant::now();
    let reference = match &ref_ckpt {
        Some(_) => {
            let (sink, stats) = TimedSink::new(JsonlSink::create(work.0.join("trace-ref.jsonl"))?);
            let tele = Telemetry::with_sink(sink);
            let h = scheme.run_traced(&mut ref_setup, &config, &tele)?;
            tele.finish();
            drop(tele);
            pass.sink += stats.busy();
            pass.sink_lines += stats.lines();
            pass.sink_bytes += std::fs::metadata(work.0.join("trace-ref.jsonl"))?.len();
            h
        }
        None => scheme.run(&mut ref_setup, &config)?,
    };
    pass.untraced_wall += t0.elapsed();
    drop(ref_setup);

    let config = spec.config.clone();
    let Some((selector, policy)) = scheme_parts(scheme, &config)? else {
        let t0 = Instant::now();
        let history = run_separated(&setup, &config, &SeparatedConfig::default())?;
        let spent = t0.elapsed();
        pass.separated += spent;
        pass.traced_wall += spent;
        let stride = SeparatedConfig::default().user_stride;
        pass.separated_updates +=
            (setup.population().len().div_ceil(stride) * history.len()) as u64;
        if history != reference {
            problems.push("replayed SL history differs from Scheme::run".into());
        }
        return Ok((history, problems));
    };
    let mut selector = TimedSelector::new(selector);
    let policy = TimedPolicy::new(policy);
    let loaded_ref = match &ref_ckpt {
        Some(dir) => load_latest(dir)?,
        None => None,
    };
    let replay_ring = work.ring(spec, "ckpt-replay")?;
    let ring = match (&replay_ring, &loaded_ref, spec.checkpoint_every) {
        (Some(dir), Some(loaded), Some(interval)) => Some(Ring {
            dir,
            interval,
            config_fingerprint: loaded.checkpoint.config_fingerprint.clone(),
        }),
        (Some(_), None, _) => return Err("the program wrote no checkpoint".into()),
        _ => None,
    };
    let replayed = replay(
        &setup,
        &config,
        &mut selector,
        &policy,
        ring,
        &mut pass.layers,
    )?;
    pass.traced_wall += replayed.wall;
    pass.selection_calls
        .extend(selector.call_durations().iter().map(|d| secs(*d)));
    pass.frequency += policy.busy();

    if replayed.history != reference
        || history_digest(&replayed.history) != history_digest(&reference)
    {
        problems.push("replayed history differs from run_federated's".into());
    }
    if !replayed.side_pass_equal {
        problems.push("serial local_update differs from the pool's update".into());
    }
    let last = replayed.history.records().last().map_or(0, |r| r.round);
    if let Some(loaded) = &loaded_ref {
        if loaded.checkpoint.round != last || loaded.checkpoint.model != replayed.final_model {
            problems.push("program checkpoint is not the final round's model".into());
        }
    }
    if let Some(dir) = &replay_ring {
        let t0 = Instant::now();
        let loaded = load_latest(dir)?;
        pass.checkpoint_load += t0.elapsed();
        match loaded {
            Some(l) if l.checkpoint.round == last && l.checkpoint.model == replayed.final_model => {
            }
            _ => problems.push("replay checkpoint is not the final round's model".into()),
        }
    }
    Ok((replayed.history, problems))
}

/// Traced mode: per-layer numbers from one or more passes of the
/// workload, medians across passes.
pub fn traced(spec: &Spec, seed: u64, seconds: u64, work: &WorkDir) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = warm_up(spec, work) {
        out.attempted += 1;
        out.failed += 1;
        out.problems.push(format!("warm-up: {e}"));
    }
    let workers = worker_threads(spec.config.threads) as f64;
    let dims = &spec.config.model_dims;
    let flops = Mlp::new(dims, 0).map_or(0, |m| m.flops_per_sample()) as f64;
    // Every per-layer metric with its unit and one sample per pass.
    let mut per_pass: Vec<(&'static str, &'static str, Vec<f64>)> = Vec::new();
    let mut passes = 0usize;
    let mut ledger = Ledger::new(&mut out, spec, seed);
    let budget = Duration::from_secs(seconds);
    let measuring = Instant::now();
    loop {
        let mut pass = Pass::default();
        let mut histories = BTreeMap::new();
        let mut problems: BTreeMap<&'static str, Vec<String>> = BTreeMap::new();
        let mut ceiling = f64::NAN;
        for scheme in &spec.schemes {
            let label = scheme.label();
            match traced_scheme(spec, scheme, &mut pass, work) {
                Ok((history, mut p)) => {
                    p.extend(ledger.history_checks(scheme, &history));
                    problems.insert(label, p);
                    histories.insert(label, history);
                }
                Err(e) => {
                    problems.insert(label, vec![format!("traced run failed: {e}")]);
                }
            }
        }
        if let Ok((setup, _)) = spec.build_setup() {
            ceiling = ceiling_gflops(dims, &setup).unwrap_or(f64::NAN);
        }
        if spec.workload == Workload::PaperIid && histories.len() == spec.schemes.len() {
            for (label, why) in paper_invariants(&histories) {
                problems.entry(label).or_default().push(why);
            }
        }
        let values = pass.metrics(workers, flops, ceiling);
        let covered = values[values.len() - 1].2;
        if covered < MIN_COVERAGE_PCT {
            problems.entry("replay").or_default().push(format!(
                "layer spans cover {covered:.1}% of traced wall time"
            ));
        }
        passes += 1;
        if per_pass.is_empty() {
            per_pass = values
                .iter()
                .map(|&(name, unit, _)| (name, unit, Vec::new()))
                .collect();
        }
        for (slot, (_, _, v)) in per_pass.iter_mut().zip(values) {
            slot.2.push(v);
        }
        for (label, p) in problems {
            ledger.tally(label, p);
        }
        if measuring.elapsed() >= budget {
            break;
        }
    }
    drop(ledger);
    for (name, unit, samples) in &per_pass {
        out.metric(name, unit, samples);
    }
    out.notes.push(format!("passes: {passes}"));
    out
}
