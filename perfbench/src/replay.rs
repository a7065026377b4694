//! A re-drive of `run_federated`'s round loop through the library's
//! public calls, timing each layer around the call into it.
//!
//! The loop mirrors `fl_sim::runner::run_federated_traced` with
//! telemetry, progress and resume left out. The benchmark checks the
//! replayed history against the program's own run bit for bit, which
//! proves the timings describe the same computation.

use std::path::Path;
use std::time::{Duration, Instant};

use detrand::Rng;
use fl_sim::checkpoint::{self, CheckpointWriter, RunCheckpoint};
use fl_sim::client::{ClientTrainer, LocalUpdateSpec};
use fl_sim::faults::{DeviceFault, FaultPlan, FaultedRound};
use fl_sim::frequency::FrequencyPolicy;
use fl_sim::history::{RoundRecord, TrainingHistory};
use fl_sim::parallel::{with_trainer_pool, worker_threads};
use fl_sim::runner::{FederatedSetup, TrainingConfig};
use fl_sim::seeds::{derive, SeedDomain};
use fl_sim::selection::{
    selection_target, validate_selection, ClientSelector, DeviceSet, SelectionContext,
};
use fl_sim::server::Flcc;
use fl_sim::FlError;
use helcfl_telemetry::Telemetry;
use mec_sim::battery::Battery;
use mec_sim::device::DeviceId;
use mec_sim::fleet::AliveMask;
use mec_sim::timeline::RoundTimeline;
use mec_sim::units::{Joules, Seconds};

use crate::seams::{TimedPolicy, TimedSelector};

/// Busy time and work counts of the layers the replay times itself.
/// Selection and frequency time come from the seam decorators.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub timeline: Duration,
    pub broadcast: Duration,
    pub train: Duration,
    pub train_items: u64,
    pub aggregate: Duration,
    pub evaluate: Duration,
    pub evals: u64,
    pub eval_rows: u64,
    pub checkpoint_save: Duration,
    pub checkpoint_saves: u64,
    pub checkpoint_bytes: u64,
    pub faults_fired: u64,
    pub selected: u64,
    pub delivered: u64,
    /// The serial side-pass of `ClientTrainer::local_update`.
    pub client_update: Duration,
    pub client_samples: u64,
}

/// What one replayed run returns besides its layer times.
pub struct Replayed {
    pub history: TrainingHistory,
    /// The global model after the last round (what a final broadcast
    /// would send).
    pub final_model: Vec<f32>,
    /// Wall time of the replay, side-pass excluded.
    pub wall: Duration,
    /// False when a side-pass update differed from the pool's.
    pub side_pass_equal: bool,
}

/// Checkpoint ring of a replayed run.
pub struct Ring<'a> {
    pub dir: &'a Path,
    pub interval: usize,
    /// Identity stamp copied from the program's own checkpoint.
    pub config_fingerprint: String,
}

enum RoundSim {
    Plain(RoundTimeline),
    Faulted(FaultedRound),
}

impl RoundSim {
    fn round_time(&self) -> Seconds {
        match self {
            Self::Plain(t) => t.makespan(),
            Self::Faulted(f) => f.round_time(),
        }
    }

    fn total_energy(&self) -> Joules {
        match self {
            Self::Plain(t) => t.total_energy(),
            Self::Faulted(f) => f.total_energy(),
        }
    }
}

fn timed<R>(acc: &mut Duration, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed();
    out
}

/// Replays one federated run on `setup`. A side-pass re-runs every
/// client update serially on the calling thread and compares it with
/// the pool's result; its time goes to `layers.client_update` and is
/// excluded from the returned wall time.
pub fn replay(
    setup: &FederatedSetup,
    config: &TrainingConfig,
    selector: &mut TimedSelector,
    policy: &TimedPolicy,
    ring: Option<Ring<'_>>,
    layers: &mut Layers,
) -> fl_sim::Result<Replayed> {
    let started = Instant::now();
    let mut side = Duration::ZERO;
    config.validate()?;
    let off = Telemetry::disabled();
    let population = setup.population();
    let target = selection_target(population.len(), config.fraction)?;
    let fault_plan = FaultPlan::new(config.faults, config.seed)?;
    let faulted_engine = fault_plan.is_active() || config.degradation.is_active();
    let mut server = Flcc::new(&config.model_dims, derive(config.seed, SeedDomain::Model))?;
    let workers = worker_threads(config.threads);
    let spec = LocalUpdateSpec {
        learning_rate: config.learning_rate,
        local_epochs: config.local_epochs,
        batch_size: config.batch_size,
    };
    let train_seed = derive(config.seed, SeedDomain::ClientTraining);
    let mut history = TrainingHistory::new(selector.name());
    let mut cumulative_time = Seconds::ZERO;
    let mut cumulative_energy = Joules::ZERO;
    let mut batteries: Option<Vec<Battery>> = match config.battery_capacity {
        Some(capacity) => Some(
            (0..population.len())
                .map(|_| Battery::new(capacity).map_err(FlError::from))
                .collect::<fl_sim::Result<_>>()?,
        ),
        None => None,
    };
    let mut alive_mask = AliveMask::all_alive(population.len());
    let mut evaluated_accuracies: Vec<f64> = Vec::new();
    let mut faults_cumulative = 0u64;
    let mut writer = ring
        .as_ref()
        .map(|r| CheckpointWriter::new(r.dir.to_path_buf(), 0));
    let mut side_trainer = ClientTrainer::new(&config.model_dims)?;
    let mut side_pass_equal = true;

    with_trainer_pool(
        workers,
        &config.model_dims,
        setup.clients(),
        setup.eval_set(),
        |pool| {
            for round in 1..=config.max_rounds {
                let alive_count = alive_mask.alive_count();
                if alive_count == 0 {
                    break;
                }
                let selected_ids = {
                    let ctx = SelectionContext {
                        round,
                        devices: DeviceSet::from_slice(population.devices()).with_mask(&alive_mask),
                        payload: config.payload,
                        target: target.min(alive_count),
                    };
                    let ids = selector.select_traced(&ctx, &off)?;
                    validate_selection(&ctx, &ids)?;
                    ids
                };
                let selected: Vec<_> = selected_ids
                    .iter()
                    .map(|id| *population.get(*id).expect("validated selection"))
                    .collect();
                let freqs = policy.frequencies_traced(&selected, config.payload, &off)?;

                let sim = timed(&mut layers.timeline, || -> fl_sim::Result<RoundSim> {
                    Ok(if faulted_engine {
                        let faults: Vec<Option<DeviceFault>> = selected
                            .iter()
                            .map(|d| fault_plan.sample(round, d.id()))
                            .collect();
                        RoundSim::Faulted(FaultedRound::simulate(
                            &selected,
                            &freqs,
                            config.payload,
                            &faults,
                            config.degradation.round_deadline,
                        )?)
                    } else {
                        RoundSim::Plain(RoundTimeline::simulate(&selected, &freqs, config.payload)?)
                    })
                })?;
                let delivered_idx: Vec<usize> = match &sim {
                    RoundSim::Plain(_) => (0..selected_ids.len()).collect(),
                    RoundSim::Faulted(fr) => (0..selected_ids.len())
                        .filter(|&i| fr.outcome(selected_ids[i]).is_some_and(|o| o.delivered))
                        .collect(),
                };
                let quorum_met = delivered_idx.len() >= config.degradation.min_quorum;

                let global = timed(&mut layers.broadcast, || server.broadcast());
                let client_indices: Vec<usize> =
                    delivered_idx.iter().map(|&j| selected_ids[j].0).collect();
                let results = timed(&mut layers.train, || {
                    pool.train(
                        round,
                        train_seed,
                        &spec,
                        &global,
                        &client_indices,
                        &off,
                        "local_update",
                    )
                })?;
                layers.train_items += results.len() as u64;
                let t0 = Instant::now();
                for (&ci, (params, _, loss)) in client_indices.iter().zip(&results) {
                    let client = &setup.clients()[ci];
                    let mut rng =
                        Rng::stream(train_seed, ((round as u64) << 32) | client.id().0 as u64);
                    let (p, l) = side_trainer.local_update(client, &global, &spec, &mut rng)?;
                    side_pass_equal &= p == *params && l.to_bits() == loss.to_bits();
                    layers.client_samples +=
                        (client.num_samples() * spec.local_epochs.max(1)) as u64;
                }
                let spent = t0.elapsed();
                layers.client_update += spent;
                side += spent;
                let mut updates = Vec::with_capacity(results.len());
                let mut loss_sum = 0.0f64;
                for (params, weight, loss) in results {
                    loss_sum += f64::from(loss);
                    updates.push((params, weight));
                }
                let aggregated = quorum_met && !updates.is_empty();
                if aggregated {
                    timed(&mut layers.aggregate, || server.aggregate(&updates))?;
                }
                if faulted_engine && !config.degradation.charge_failed_selections {
                    let failed: Vec<DeviceId> = (0..selected_ids.len())
                        .filter(|i| !delivered_idx.contains(i))
                        .map(|i| selected_ids[i])
                        .collect();
                    if !failed.is_empty() {
                        selector.on_delivery_failure(&failed);
                    }
                }

                cumulative_time += sim.round_time();
                cumulative_energy += sim.total_energy();
                if let Some(batteries) = batteries.as_mut() {
                    let drains: Vec<(usize, Joules)> = match &sim {
                        RoundSim::Plain(t) => t
                            .activities()
                            .iter()
                            .map(|a| (a.device.0, a.total_energy()))
                            .collect(),
                        RoundSim::Faulted(f) => f
                            .outcomes()
                            .iter()
                            .map(|o| (o.device.0, o.total_energy()))
                            .collect(),
                    };
                    for (q, energy) in drains {
                        batteries[q].try_drain(energy);
                        if batteries[q].is_depleted() {
                            alive_mask.kill(q);
                        }
                    }
                }
                let evaluate_now = round % config.eval_every == 0 || round == config.max_rounds;
                let test_accuracy = if evaluate_now {
                    let params = timed(&mut layers.broadcast, || server.broadcast());
                    let accuracy = timed(&mut layers.evaluate, || pool.evaluate(&params, &off))?.1;
                    layers.evals += 1;
                    layers.eval_rows += setup.eval_set().len() as u64;
                    evaluated_accuracies.push(accuracy);
                    Some(accuracy)
                } else {
                    None
                };
                let train_loss = if updates.is_empty() {
                    0.0
                } else {
                    (loss_sum / updates.len() as f64) as f32
                };
                let (eq10_time, compute_energy, slack, wasted_energy, faults) = match &sim {
                    RoundSim::Plain(t) => (
                        t.eq10_bound(),
                        t.compute_energy(),
                        t.total_slack(),
                        Joules::ZERO,
                        0,
                    ),
                    RoundSim::Faulted(f) => (
                        f.eq10_bound(),
                        f.compute_energy(),
                        f.total_slack(),
                        f.wasted_energy(),
                        f.faults_fired(),
                    ),
                };
                layers.faults_fired += faults as u64;
                layers.selected += selected_ids.len() as u64;
                layers.delivered += delivered_idx.len() as u64;
                faults_cumulative += faults as u64;
                history.push(RoundRecord {
                    round,
                    delivered: delivered_idx.iter().map(|&i| selected_ids[i]).collect(),
                    selected: selected_ids,
                    alive_devices: alive_count,
                    round_time: sim.round_time(),
                    eq10_time,
                    round_energy: sim.total_energy(),
                    compute_energy,
                    slack,
                    wasted_energy,
                    faults,
                    aggregated,
                    train_loss,
                    test_accuracy,
                    cumulative_time,
                    cumulative_energy,
                });

                if let (Some(r), Some(w)) = (ring.as_ref(), writer.as_mut()) {
                    if round % r.interval == 0 || round == config.max_rounds {
                        let ck = RunCheckpoint {
                            schema_version: checkpoint::CHECKPOINT_SCHEMA_VERSION,
                            seed: config.seed,
                            scheme: selector.name().to_string(),
                            config_fingerprint: r.config_fingerprint.clone(),
                            fleet_size: population.len(),
                            round,
                            model: server.broadcast(),
                            cumulative_time,
                            cumulative_energy,
                            evaluated_accuracies: evaluated_accuracies.clone(),
                            battery_capacity: config.battery_capacity,
                            battery_remaining: batteries
                                .as_ref()
                                .map(|bs| bs.iter().map(Battery::remaining).collect()),
                            dead_devices: (0..population.len())
                                .filter(|&q| !alive_mask.is_alive(q))
                                .collect(),
                            faults_cumulative,
                            selector: selector.snapshot(),
                            next_span_id: off.peek_next_span_id(),
                            sim_metrics: Vec::new(),
                            history: history.records().to_vec(),
                        };
                        let path = timed(&mut layers.checkpoint_save, || w.save(&ck))?;
                        layers.checkpoint_saves += 1;
                        layers.checkpoint_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
                    }
                }
                if let Some(deadline) = config.deadline {
                    if cumulative_time >= deadline {
                        break;
                    }
                }
                if let Some(policy) = config.convergence {
                    if policy.converged(&evaluated_accuracies) {
                        break;
                    }
                }
            }
            Ok(())
        },
    )?;
    let final_model = server.broadcast();
    Ok(Replayed {
        history,
        final_model,
        wall: started.elapsed().saturating_sub(side),
        side_pass_equal,
    })
}
