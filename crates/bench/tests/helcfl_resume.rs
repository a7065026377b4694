//! End-to-end resume of HELCFL (Alg. 2 selection + Alg. 3 DVFS)
//! through `run_federated` with batteries that run out, refunded
//! failed selections and a checkpoint ring: a run halted mid-way and
//! resumed from its checkpoint must reproduce the uninterrupted
//! history byte for byte. The selector's appearance counters (refunds
//! included) come back from the checkpoint, and its index is rebuilt
//! with the depleted devices parked.

use fl_sim::checkpoint::CheckpointConfig;
use fl_sim::dataset::{DatasetConfig, SyntheticTask};
use fl_sim::faults::{DegradationPolicy, FaultConfig};
use fl_sim::history::TrainingHistory;
use fl_sim::partition::Partition;
use fl_sim::runner::{run_federated, FederatedSetup, TrainingConfig};
use helcfl::{GreedyDecaySelector, SlackFrequencyPolicy};
use mec_sim::population::PopulationBuilder;
use mec_sim::units::Joules;

const DEVICES: usize = 20;
const ROUNDS: usize = 12;
const HALT_AFTER: usize = 9;

fn config(checkpoint: Option<CheckpointConfig>) -> TrainingConfig {
    TrainingConfig {
        max_rounds: ROUNDS,
        fraction: 0.3,
        model_dims: vec![10, 12, 4],
        learning_rate: 0.4,
        batch_size: 16,
        eval_every: 3,
        seed: 11,
        battery_capacity: Some(Joules::new(2.5)),
        faults: FaultConfig { crash_rate: 0.25, ..FaultConfig::none() },
        degradation: DegradationPolicy {
            charge_failed_selections: false,
            ..DegradationPolicy::default()
        },
        checkpoint,
        ..TrainingConfig::default()
    }
}

fn run(config: &TrainingConfig) -> TrainingHistory {
    let task = SyntheticTask::generate(DatasetConfig {
        num_classes: 4,
        feature_dim: 10,
        train_samples: 400,
        test_samples: 100,
        seed: 5,
        ..DatasetConfig::default()
    })
    .unwrap();
    let pop = PopulationBuilder::paper_default().num_devices(DEVICES).seed(6).build().unwrap();
    let partition = Partition::iid(400, DEVICES, 7).unwrap();
    let mut setup = FederatedSetup::new(pop, &task, &partition, config).unwrap();
    let mut selector = GreedyDecaySelector::default();
    run_federated(&mut setup, config, &mut selector, &SlackFrequencyPolicy).unwrap()
}

#[test]
fn helcfl_resume_with_batteries_and_refunds_is_byte_identical() {
    let golden = run(&config(None));
    assert_eq!(golden.len(), ROUNDS);
    // The halt lands after both effects have shaped the selector's
    // state; otherwise the resume would have nothing to restore.
    let head = &golden.records()[..HALT_AFTER];
    assert!(
        head.iter().any(|r| r.alive_devices < DEVICES),
        "no device depleted its battery before the halt"
    );
    assert!(
        head.iter().any(|r| r.delivered.len() < r.selected.len()),
        "no selection failed (and was refunded) before the halt"
    );

    let dir = std::env::temp_dir()
        .join(format!("helcfl_alg2_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let halting = CheckpointConfig {
        interval: 2,
        halt_after: Some(HALT_AFTER),
        ..CheckpointConfig::new(&dir)
    };
    let partial = run(&config(Some(halting)));
    assert_eq!(partial.len(), HALT_AFTER, "halted run length");

    let resuming = CheckpointConfig { interval: 2, ..CheckpointConfig::new(&dir) };
    let resumed = run(&config(Some(resuming)));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(resumed.to_csv(), golden.to_csv(), "resumed history diverged");
    assert_eq!(resumed, golden);
}
