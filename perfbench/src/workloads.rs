//! The three workloads, each generated entirely from the seed.
//!
//! * `paper-iid` — what users run: the §VII-A scenario (Q=100, J=300,
//!   IID) through the Table I lineup plus the Fig. 3 no-DVFS arm.
//!   Dominated by kernels, client updates, evaluation and SL;
//!   selection is negligible.
//! * `fleet-100k` — Q=100,000 devices, 20 selected per round, a tiny
//!   model. Dominated by selection, device-set masking and set-up;
//!   kernels are negligible. The "mechanism bypassed" partner of every
//!   kernel, evaluation or pool change. Run by hand only, not listed in
//!   `BENCHMARK.json`: its scalar selection loop follows the shared
//!   host's clock swings (see the README's "Host" section) too closely
//!   for a regression bound.
//! * `faulted-noniid` — paper scale on the non-IID split with faults,
//!   a round deadline, quorum, refunds, batteries, minibatch two-epoch
//!   updates, a checkpoint ring and the program's own JSONL trace. The
//!   faulted round engine and the minibatch path replace the plain
//!   engine and the cohort path, and writes run beside training.

use std::time::{Duration, Instant};

use fl_baselines::classic::RandomSelector;
use fl_baselines::fedcs::FedCsSelector;
use fl_baselines::fedl::FedlFrequencyPolicy;
use fl_sim::faults::{DegradationPolicy, FaultConfig};
use fl_sim::frequency::{FrequencyPolicy, MaxFrequency};
use fl_sim::runner::{FederatedSetup, TrainingConfig};
use fl_sim::seeds::{derive, SeedDomain};
use fl_sim::selection::ClientSelector;
use helcfl::{DecayCoefficient, GreedyDecaySelector, SlackFrequencyPolicy};
use helcfl_bench::{PaperScenario, Scheme, Setting};
use mec_sim::units::{Joules, Seconds};

/// Seed used when `--seed` is not given; its history digests are
/// recorded in `golden_digests.txt`.
pub const DEFAULT_SEED: u64 = 2022;

/// Checkpoint cadence of `faulted-noniid`, in rounds.
pub const CHECKPOINT_EVERY: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperIid,
    Fleet100k,
    FaultedNonIid,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Self::PaperIid, Self::Fleet100k, Self::FaultedNonIid];

    pub fn name(self) -> &'static str {
        match self {
            Self::PaperIid => "paper-iid",
            Self::Fleet100k => "fleet-100k",
            Self::FaultedNonIid => "faulted-noniid",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one workload runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub workload: Workload,
    pub scenario: PaperScenario,
    pub setting: Setting,
    /// Training configuration; `faulted-noniid` adds its checkpoint
    /// ring at run time, in a fresh directory per run.
    pub config: TrainingConfig,
    /// Schemes run one after another, each on a fresh setup.
    pub schemes: Vec<Scheme>,
    /// Checkpoint every this many rounds and stream the program's JSONL
    /// trace (`faulted-noniid` only).
    pub checkpoint_every: Option<usize>,
}

impl Spec {
    /// The workload's inputs for `seed`, with the worker pool pinned to
    /// `workers` threads.
    pub fn new(workload: Workload, seed: u64, workers: usize) -> Self {
        let helcfl = Scheme::Helcfl {
            eta: 0.5,
            dvfs: true,
        };
        let (scenario, setting, schemes, checkpoint_every) = match workload {
            Workload::PaperIid => {
                let mut schemes = Scheme::lineup();
                schemes.push(Scheme::Helcfl {
                    eta: 0.5,
                    dvfs: false,
                });
                (
                    PaperScenario {
                        seed,
                        ..PaperScenario::default()
                    },
                    Setting::Iid,
                    schemes,
                    None,
                )
            }
            Workload::Fleet100k => (
                PaperScenario {
                    num_devices: 100_000,
                    fraction: 20.0 / 100_000.0,
                    train_samples: 400_000,
                    test_samples: 1_000,
                    model_dims: vec![16, 16, 10],
                    seed,
                    ..PaperScenario::default()
                },
                Setting::Iid,
                vec![helcfl],
                None,
            ),
            Workload::FaultedNonIid => (
                PaperScenario {
                    seed,
                    ..PaperScenario::default()
                },
                Setting::NonIid,
                vec![helcfl],
                Some(CHECKPOINT_EVERY),
            ),
        };
        let mut config = TrainingConfig {
            threads: workers,
            ..scenario.training_config()
        };
        if workload == Workload::FaultedNonIid {
            // Paper-scale rounds take ~50-90 s of simulated time and a
            // selected device spends ~1.6 J: a 70 s deadline strands the
            // slow tail, quorum 7 of 10 then skips some aggregations, and
            // 50 J batteries shut down part of the fleet late in the run
            // — every degradation path fires, yet every seed trains for
            // the full 300 rounds.
            config.faults = FaultConfig {
                crash_rate: 0.03,
                straggler_rate: 0.10,
                upload_failure_rate: 0.08,
                ..FaultConfig::default()
            };
            config.degradation = DegradationPolicy {
                round_deadline: Some(Seconds::new(70.0)),
                min_quorum: 7,
                charge_failed_selections: false,
            };
            config.battery_capacity = Some(Joules::new(50.0));
            config.local_epochs = 2;
            config.batch_size = 20;
        }
        Self {
            workload,
            scenario,
            setting,
            config,
            schemes,
            checkpoint_every,
        }
    }

    /// Builds a fresh setup, timing each of its four pieces.
    pub fn build_setup(&self) -> fl_sim::Result<(FederatedSetup, SetupTimes)> {
        let t = Instant::now();
        let task = self.scenario.task()?;
        let dataset = t.elapsed();
        let t = Instant::now();
        let population = self.scenario.population()?;
        let population_build = t.elapsed();
        let t = Instant::now();
        let partition = self.scenario.partition(&task, self.setting)?;
        let partition_build = t.elapsed();
        let t = Instant::now();
        let setup = FederatedSetup::new(population, &task, &partition, &self.config)?;
        let wire = t.elapsed();
        Ok((
            setup,
            SetupTimes {
                dataset,
                population_build,
                partition_build,
                wire,
            },
        ))
    }
}

/// Wall time of the four set-up pieces.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub dataset: Duration,
    pub population_build: Duration,
    pub partition_build: Duration,
    pub wire: Duration,
}

/// A federated scheme's selector and frequency policy.
pub type SchemeParts = (Box<dyn ClientSelector>, Box<dyn FrequencyPolicy>);

/// The selector and frequency policy `Scheme::run` would build for a
/// federated scheme, so the benchmark can wrap them; `None` for SL,
/// which has no round loop.
pub fn scheme_parts(
    scheme: &Scheme,
    config: &TrainingConfig,
) -> fl_sim::Result<Option<SchemeParts>> {
    let selection_seed = derive(config.seed, SeedDomain::Selection);
    Ok(Some(match scheme {
        Scheme::Helcfl { eta, dvfs } => {
            let selector = Box::new(GreedyDecaySelector::new(DecayCoefficient::new(*eta)?));
            let policy: Box<dyn FrequencyPolicy> = if *dvfs {
                Box::new(SlackFrequencyPolicy)
            } else {
                Box::new(MaxFrequency)
            };
            (selector, policy)
        }
        Scheme::Classic => (
            Box::new(RandomSelector::new(selection_seed)),
            Box::new(MaxFrequency),
        ),
        Scheme::FedCs { round_deadline_s } => (
            Box::new(FedCsSelector::new(Seconds::new(*round_deadline_s))?),
            Box::new(MaxFrequency),
        ),
        Scheme::Fedl { kappa } => (
            Box::new(RandomSelector::with_name(selection_seed, "fedl")),
            Box::new(FedlFrequencyPolicy::new(*kappa)?),
        ),
        Scheme::Sl => return Ok(None),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        for w in Workload::ALL {
            assert_eq!(Spec::new(w, 7, 2), Spec::new(w, 7, 2));
            assert_ne!(Spec::new(w, 7, 2), Spec::new(w, 8, 2));
        }
        // The generated inputs themselves, not only the recipe.
        let spec = Spec::new(Workload::PaperIid, 7, 1);
        let (a, _) = spec.build_setup().unwrap();
        let (b, _) = spec.build_setup().unwrap();
        assert_eq!(a.population().devices(), b.population().devices());
        assert_eq!(a.eval_set(), b.eval_set());
        let sizes = |s: &FederatedSetup| -> Vec<usize> {
            s.clients().iter().map(|c| c.num_samples()).collect()
        };
        assert_eq!(sizes(&a), sizes(&b));
        let (c, _) = Spec::new(Workload::PaperIid, 8, 1).build_setup().unwrap();
        assert_ne!(a.population().devices(), c.population().devices());
    }

    #[test]
    fn workloads_have_their_stated_shape() {
        let paper = Spec::new(Workload::PaperIid, 1, 2);
        let labels: Vec<_> = paper.schemes.iter().map(Scheme::label).collect();
        assert_eq!(
            labels,
            ["helcfl", "classic", "fedcs", "fedl", "sl", "helcfl-nodvfs"]
        );
        assert_eq!(
            (paper.scenario.num_devices, paper.config.max_rounds),
            (100, 300)
        );

        let fleet = Spec::new(Workload::Fleet100k, 1, 2);
        let target =
            fl_sim::selection::selection_target(fleet.scenario.num_devices, fleet.config.fraction)
                .unwrap();
        assert_eq!(target, 20);

        let faulted = Spec::new(Workload::FaultedNonIid, 1, 2);
        assert!(faulted.config.faults.is_active() && faulted.config.degradation.is_active());
        assert!(faulted.config.batch_size > 0 && faulted.config.local_epochs == 2);
        assert_eq!(faulted.checkpoint_every, Some(CHECKPOINT_EVERY));
        for w in Workload::ALL {
            assert_eq!(Spec::new(w, 1, 3).config.threads, 3);
        }
    }
}
