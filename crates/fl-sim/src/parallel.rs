//! Deterministic worker fan-out for the round engine: a persistent,
//! run-scoped training/evaluation pool.
//!
//! Built entirely on `std` — threads, mutexes, and condvars; no
//! external threadpool. Two properties make parallel training
//! bit-identical to serial:
//!
//! 1. **Work items are thread-invariant.** Every item's result is a
//!    pure function of the item and the broadcast inputs; the
//!    per-worker scratch ([`ClientTrainer`]) is fully overwritten
//!    before use, so which worker runs an item (and in what order)
//!    cannot change its result.
//! 2. **Reduction order is fixed.** Results are collected into
//!    index-addressed slots and reduced in item order on the calling
//!    thread, never in completion order.
//!
//! The pool ([`with_trainer_pool`]) spawns its worker threads once per
//! run and parks them on a condvar between jobs, so the thousands of
//! train/eval dispatches of a full simulation cost two mutex hops
//! each instead of an OS thread spawn. With one worker it spawns
//! nothing and runs every job inline on the calling thread, through
//! the same per-item executor the workers use.
//!
//! The worker count comes from [`worker_threads`]: an explicit config
//! value, else the `HELCFL_THREADS` environment variable, else
//! [`std::thread::available_parallelism`].

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use detrand::Rng;
use helcfl_telemetry::{Class, MetricsRegistry, Telemetry};

use crate::client::{Client, ClientTrainer, LocalUpdateSpec, EVAL_CHUNK_ROWS};
use crate::dataset::LabeledSet;
use crate::error::{FlError, Result};

/// Parses a `HELCFL_THREADS` value: a positive integer (surrounding
/// whitespace tolerated) or nothing. `0`, non-numeric text, and
/// blank/whitespace-only values all yield `None` — the engine falls
/// back to detected parallelism instead of panicking or spawning a
/// zero-worker pool.
fn threads_from_env(value: &str) -> Option<usize> {
    match value.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => None,
    }
}

/// Resolves the worker-thread count for a round engine.
///
/// Precedence: a non-zero `requested` value (from
/// [`crate::runner::TrainingConfig::threads`]) wins; otherwise a
/// positive integer in the `HELCFL_THREADS` environment variable (see
/// [`threads_from_env`] for the accepted forms); otherwise the
/// machine's available parallelism (1 if unknown).
pub fn worker_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Some(n) = std::env::var("HELCFL_THREADS").ok().as_deref().and_then(threads_from_env) {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Records one item's latency on lane `wid` under `label`: the
/// `{label}.worker{wid}.items` / `.busy_ns` counters and the
/// `{label}.item_us` histogram, all [`Class::Runtime`] — they measure
/// wall clocks, so they never enter determinism comparisons.
fn record_item(
    local: &mut MetricsRegistry,
    label: &str,
    wid: usize,
    took: std::time::Duration,
) {
    let ns = took.as_nanos() as u64;
    local.counter_add(Class::Runtime, &format!("{label}.worker{wid}.items"), 1);
    local.counter_add(Class::Runtime, &format!("{label}.worker{wid}.busy_ns"), ns);
    local.record(Class::Runtime, &format!("{label}.item_us"), took.as_secs_f64() * 1e6);
}

/// Derives per-worker idle time (job wall-clock minus busy time) —
/// runnable only after every worker's busy counter is merged.
fn record_idle(
    merged: &mut MetricsRegistry,
    label: &str,
    workers: usize,
    wall: std::time::Duration,
) {
    let wall_ns = wall.as_nanos() as u64;
    for wid in 0..workers {
        let busy = merged.counter(&format!("{label}.worker{wid}.busy_ns"));
        merged.counter_add(
            Class::Runtime,
            &format!("{label}.worker{wid}.idle_ns"),
            wall_ns.saturating_sub(busy),
        );
    }
}

/// Locks a pool mutex, ignoring poisoning: a panicked worker leaves
/// consistent state behind (slot writes are all-or-nothing per job),
/// and the dispatcher turns the missing slot into its own panic — on
/// the calling thread, with a clear message — rather than dying on a
/// `PoisonError`.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One broadcast unit of pool work. Jobs own their inputs (broadcast
/// parameters, item lists) so the shared state carries no borrows; the
/// per-item logic lives in [`run_item`], keyed by variant.
enum Job {
    /// One round's local updates: item `j` trains
    /// `clients[client_indices[j]]` from `global` with the per-client
    /// RNG stream keyed by `(round, client id)`. With a `trace_label`,
    /// each item's latency is recorded under it.
    Train {
        round: usize,
        train_seed: u64,
        spec: LocalUpdateSpec,
        global: Vec<f32>,
        client_indices: Vec<usize>,
        trace_label: Option<String>,
    },
    /// Whole-eval-set scoring of a parameter vector: item `c` scores
    /// the fixed [`EVAL_CHUNK_ROWS`]-row block `c` of the eval set.
    Eval { params: Vec<f32>, set_len: usize },
}

impl Job {
    fn num_items(&self) -> usize {
        match self {
            Job::Train { client_indices, .. } => client_indices.len(),
            Job::Eval { set_len, .. } => set_len.div_ceil(EVAL_CHUNK_ROWS),
        }
    }

    fn trace_label(&self) -> Option<&str> {
        match self {
            Job::Train { trace_label, .. } => trace_label.as_deref(),
            Job::Eval { .. } => None,
        }
    }
}

/// A completed item's payload, matching the [`Job`] variant.
enum JobOut {
    /// `(updated parameters, aggregation weight |D_q|, pre-step loss)`.
    Train(Vec<f32>, f64, f32),
    /// `(summed block loss, correct predictions in block)`.
    Eval(f64, usize),
}

/// Index-addressed results of one job, one slot per item. A slot left
/// `None` belongs to a worker that panicked.
type Slots = Vec<Option<Result<JobOut>>>;

/// Runs one item of `job` on a worker's trainer.
fn run_item(
    job: &Job,
    item: usize,
    trainer: &mut ClientTrainer,
    clients: &[Client],
    eval_set: &LabeledSet,
) -> Result<JobOut> {
    match job {
        Job::Train { round, train_seed, spec, global, client_indices, .. } => {
            let client = &clients[client_indices[item]];
            let mut rng =
                Rng::stream(*train_seed, ((*round as u64) << 32) | client.id().0 as u64);
            let (params, loss) = trainer.local_update(client, global, spec, &mut rng)?;
            Ok(JobOut::Train(params, client.num_samples() as f64, loss))
        }
        Job::Eval { params, set_len } => {
            let start = item * EVAL_CHUNK_ROWS;
            let len = EVAL_CHUNK_ROWS.min(set_len - start);
            let (loss, correct) = trainer.eval_chunk_params(params, eval_set, start, len)?;
            Ok(JobOut::Eval(loss, correct))
        }
    }
}

/// Runs `items` of `job` in order on one trainer as lane `wid` — the
/// executor both pool modes share: inline mode runs every item on the
/// calling thread as lane 0, and each pooled worker runs its stride.
/// Every item runs even after one fails, so the caller can report the
/// lowest-indexed error. Returns `(item, result)` pairs in stride
/// order, plus the lane's per-item telemetry when the job is traced.
fn run_stride(
    job: &Job,
    items: impl Iterator<Item = usize>,
    wid: usize,
    trainer: &mut ClientTrainer,
    clients: &[Client],
    eval_set: &LabeledSet,
) -> (Vec<(usize, Result<JobOut>)>, Option<MetricsRegistry>) {
    let label = job.trace_label();
    let mut metrics = label.map(|_| MetricsRegistry::new());
    let produced = items
        .map(|item| {
            let started = Instant::now();
            let out = run_item(job, item, trainer, clients, eval_set);
            if let (Some(local), Some(label)) = (&mut metrics, label) {
                record_item(local, label, wid, started.elapsed());
            }
            (item, out)
        })
        .collect();
    (produced, metrics)
}

/// Dispatcher ⇄ worker handshake state, guarded by one mutex.
struct PoolState {
    /// Bumped per dispatch; a worker acts once per epoch it observes.
    epoch: u64,
    /// The job of the current epoch (stale between dispatches).
    job: Option<Arc<Job>>,
    /// Participating workers that have not finished the current job.
    remaining: usize,
    /// Set once at scope exit; workers return when they observe it.
    shutdown: bool,
}

/// Everything a pool's threads share. Created on the dispatcher's
/// stack *before* the thread scope, so worker closures can borrow it
/// for the scope's whole lifetime.
struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// The dispatcher parks here until `remaining` hits zero.
    done_cv: Condvar,
    /// Index-addressed results of the current job; workers batch-write
    /// their stride's slots once per job.
    slots: Mutex<Slots>,
    /// Per-worker metric registries of the current traced job, merged
    /// by the dispatcher in worker-index order.
    metrics: Mutex<Vec<Option<MetricsRegistry>>>,
}

/// Decrements `remaining` and wakes the dispatcher — on a `Drop` so a
/// panicking worker still signals completion (its slots stay `None`,
/// which the dispatcher reports as a worker panic) instead of leaving
/// the dispatcher parked forever.
struct DoneGuard<'p> {
    shared: &'p PoolShared,
}

impl Drop for DoneGuard<'_> {
    fn drop(&mut self) {
        let mut state = lock(&self.shared.state);
        state.remaining -= 1;
        if state.remaining == 0 {
            self.shared.done_cv.notify_all();
        }
    }
}

/// Sets `shutdown` and wakes every worker — on a `Drop` at the end of
/// the [`with_trainer_pool`] scope closure, so the scope's implicit
/// join completes even when the body panics or returns early.
struct ShutdownGuard<'p> {
    shared: &'p PoolShared,
}

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        let mut state = lock(&self.shared.state);
        state.shutdown = true;
        self.shared.work_cv.notify_all();
    }
}

/// A pool worker: parks on `work_cv`, and for each observed epoch runs
/// its `(wid..n).step_by(eff)` stride of the job through
/// [`run_stride`]. Workers beyond the job's effective width sit the
/// epoch out.
fn worker_loop(
    wid: usize,
    workers: usize,
    mut trainer: ClientTrainer,
    shared: &PoolShared,
    clients: &[Client],
    eval_set: &LabeledSet,
) {
    let mut last_epoch = 0u64;
    loop {
        let job: Arc<Job> = {
            let mut state = lock(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != last_epoch {
                    if let Some(job) = &state.job {
                        last_epoch = state.epoch;
                        break Arc::clone(job);
                    }
                }
                state = shared.work_cv.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let num_items = job.num_items();
        let eff = workers.min(num_items);
        if wid >= eff {
            continue; // `remaining` only counts participants
        }
        let _done = DoneGuard { shared };
        let stride = (wid..num_items).step_by(eff);
        let (produced, metrics) = run_stride(&job, stride, wid, &mut trainer, clients, eval_set);
        {
            let mut slots = lock(&shared.slots);
            for (item, out) in produced {
                slots[item] = Some(out);
            }
        }
        if metrics.is_some() {
            lock(&shared.metrics)[wid] = metrics;
        }
    }
}

/// Publishes `job` to the workers, parks until all `eff` participants
/// finish, and returns the filled slots plus the participants'
/// telemetry lanes in worker-index order.
fn dispatch(shared: &PoolShared, job: Job, eff: usize) -> (Slots, Vec<MetricsRegistry>) {
    let num_items = job.num_items();
    {
        let mut slots = lock(&shared.slots);
        slots.clear();
        slots.resize_with(num_items, || None);
    }
    {
        let mut state = lock(&shared.state);
        state.job = Some(Arc::new(job));
        state.epoch += 1;
        state.remaining = eff;
        shared.work_cv.notify_all();
    }
    let mut state = lock(&shared.state);
    while state.remaining > 0 {
        state = shared.done_cv.wait(state).unwrap_or_else(PoisonError::into_inner);
    }
    drop(state);
    let lanes = lock(&shared.metrics).iter_mut().take(eff).filter_map(Option::take).collect();
    (std::mem::take(&mut *lock(&shared.slots)), lanes)
}

/// How a [`TrainerPool`] executes jobs.
enum PoolMode<'p> {
    /// Single worker: everything runs on the calling thread with one
    /// trainer — no threads, no locks.
    Inline(Box<ClientTrainer>),
    /// Persistent workers parked behind the shared state.
    Pooled(&'p PoolShared),
}

/// A persistent, run-scoped training/evaluation pool.
///
/// Created by [`with_trainer_pool`]; lives for one `run_federated`
/// call and serves every round's train fan-out **and** eval fan-out.
/// Both modes run items through one executor, `run_stride`: inline
/// mode over the whole job on the calling thread, pooled mode over
/// strided item assignments on parked worker threads. Results are
/// reduced in item order and the lowest-indexed error wins, so
/// histories and Sim-class metric registries are identical for every
/// worker count.
pub struct TrainerPool<'p> {
    clients: &'p [Client],
    eval_set: &'p LabeledSet,
    workers: usize,
    mode: PoolMode<'p>,
}

impl TrainerPool<'_> {
    /// Total worker threads backing this pool (1 for inline mode).
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `job` over `eff` lanes — inline on the calling thread, or
    /// on the parked workers — returning its item slots and the lanes'
    /// telemetry in lane order. Pooled dispatches add `eff` to the
    /// `pool.spawn_amortized` Runtime counter: the thread spawns the
    /// persistent pool avoided.
    fn run(&mut self, job: Job, eff: usize, tele: &Telemetry) -> (Slots, Vec<MetricsRegistry>) {
        match &mut self.mode {
            PoolMode::Inline(trainer) => {
                let (produced, metrics) =
                    run_stride(&job, 0..job.num_items(), 0, trainer, self.clients, self.eval_set);
                let slots = produced.into_iter().map(|(_, out)| Some(out)).collect();
                (slots, metrics.into_iter().collect())
            }
            PoolMode::Pooled(shared) => {
                let out = dispatch(shared, job, eff);
                tele.with_metrics(|m| {
                    m.counter_add(Class::Runtime, "pool.spawn_amortized", eff as u64);
                });
                out
            }
        }
    }

    /// Runs one round's local updates: item `j` trains
    /// `clients[client_indices[j]]` from `global`, seeded by
    /// `(train_seed, round, client id)`, returning
    /// `(params, weight, loss)` triples in item order.
    ///
    /// Telemetry, under `label`: per-worker `items`/`busy_ns`/`idle_ns`
    /// counters, an `item_us` histogram, and a `workers` gauge
    /// (effective width), all [`Class::Runtime`].
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] naming the first client
    /// index out of range, before any item runs. If items fail,
    /// returns the error of the lowest-indexed failing item
    /// (deterministic regardless of completion order).
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked while training.
    #[allow(clippy::too_many_arguments)]
    pub fn train(
        &mut self,
        round: usize,
        train_seed: u64,
        spec: &LocalUpdateSpec,
        global: &[f32],
        client_indices: &[usize],
        tele: &Telemetry,
        label: &str,
    ) -> Result<Vec<(Vec<f32>, f64, f32)>> {
        let num_items = client_indices.len();
        if num_items == 0 {
            return Ok(Vec::new());
        }
        if let Some(&bad) = client_indices.iter().find(|&&ci| ci >= self.clients.len()) {
            return Err(FlError::InvalidConfig {
                field: "client_indices",
                reason: format!(
                    "client index {bad} is out of range for {} clients",
                    self.clients.len()
                ),
            });
        }
        let eff = self.workers.min(num_items);
        let traced = tele.is_enabled();
        if traced {
            tele.gauge_set(Class::Runtime, &format!("{label}.workers"), eff as f64);
        }
        let wall_start = Instant::now();
        let job = Job::Train {
            round,
            train_seed,
            spec: *spec,
            global: global.to_vec(),
            client_indices: client_indices.to_vec(),
            trace_label: traced.then(|| label.to_string()),
        };
        let (slots, lanes) = self.run(job, eff, tele);
        if traced {
            let mut merged = MetricsRegistry::new();
            for lane in &lanes {
                merged.merge_from(lane);
            }
            record_idle(&mut merged, label, eff, wall_start.elapsed());
            tele.merge_registry(&merged);
        }
        slots
            .into_iter()
            .map(|slot| match slot.expect("pool worker panicked")? {
                JobOut::Train(params, weight, loss) => Ok((params, weight, loss)),
                JobOut::Eval(..) => unreachable!("train job yielded eval output"),
            })
            .collect()
    }

    /// Evaluates a parameter vector on the run's eval set —
    /// `(mean loss, accuracy)` — by scoring fixed
    /// [`EVAL_CHUNK_ROWS`]-row blocks across the pool and reducing
    /// per-block sums in block order, bit-identical to
    /// [`ClientTrainer::evaluate_params`] for every worker count.
    ///
    /// # Errors
    ///
    /// Propagates shape errors and rejects an empty set.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked while evaluating.
    pub fn evaluate(&mut self, params: &[f32], tele: &Telemetry) -> Result<(f32, f64)> {
        let n = self.eval_set.len();
        if n == 0 {
            return Err(FlError::InvalidConfig {
                field: "eval_set",
                reason: "cannot evaluate on an empty set".into(),
            });
        }
        let eff = self.workers.min(n.div_ceil(EVAL_CHUNK_ROWS));
        let (slots, _) = self.run(Job::Eval { params: params.to_vec(), set_len: n }, eff, tele);
        let mut loss_sum = 0.0f64;
        let mut correct = 0usize;
        for slot in slots {
            match slot.expect("pool worker panicked")? {
                JobOut::Eval(loss, hits) => {
                    loss_sum += loss;
                    correct += hits;
                }
                JobOut::Train(..) => unreachable!("eval job yielded train output"),
            }
        }
        Ok(((loss_sum / n as f64) as f32, correct as f64 / n as f64))
    }
}

/// Creates a persistent [`TrainerPool`] over `clients`/`eval_set` and
/// runs `body` with it. With `workers <= 1` no threads are spawned and
/// every job runs inline on the calling thread; otherwise `workers`
/// threads (each owning one [`ClientTrainer`]) are spawned once, park
/// between jobs, and are joined when `body` returns — the pool
/// lifecycle is exactly the `body` call.
///
/// # Errors
///
/// Propagates trainer-construction errors and whatever `body` returns.
pub fn with_trainer_pool<R>(
    workers: usize,
    model_dims: &[usize],
    clients: &[Client],
    eval_set: &LabeledSet,
    body: impl FnOnce(&mut TrainerPool<'_>) -> Result<R>,
) -> Result<R> {
    let workers = workers.max(1);
    if workers == 1 {
        let mut pool = TrainerPool {
            clients,
            eval_set,
            workers,
            mode: PoolMode::Inline(Box::new(ClientTrainer::new(model_dims)?)),
        };
        return body(&mut pool);
    }
    let mut trainers = Vec::with_capacity(workers);
    for _ in 0..workers {
        trainers.push(ClientTrainer::new(model_dims)?);
    }
    // Shared state lives on this frame — *outside* the thread scope —
    // so the worker closures can borrow it for the scope's lifetime.
    let shared = PoolShared {
        state: Mutex::new(PoolState { epoch: 0, job: None, remaining: 0, shutdown: false }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
        slots: Mutex::new(Vec::new()),
        metrics: Mutex::new((0..workers).map(|_| None).collect()),
    };
    std::thread::scope(|scope| {
        let shared = &shared;
        for (wid, trainer) in trainers.into_iter().enumerate() {
            scope.spawn(move || {
                // Claim this worker's ShardedSink buffer up front, so
                // any event emitted from worker context lands in its
                // own shard instead of contending on a global lock.
                helcfl_telemetry::register_shard(wid);
                worker_loop(wid, workers, trainer, shared, clients, eval_set);
            });
        }
        let _shutdown = ShutdownGuard { shared };
        let mut pool = TrainerPool { clients, eval_set, workers, mode: PoolMode::Pooled(shared) };
        body(&mut pool)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetConfig, SyntheticTask};
    use helcfl_telemetry::Metric;
    use mec_sim::device::DeviceId;
    use tinynn::model::Mlp;
    use tinynn::tensor::Matrix;

    #[test]
    fn explicit_thread_request_wins() {
        assert_eq!(worker_threads(3), 3);
        assert_eq!(worker_threads(1), 1);
        assert!(worker_threads(0) >= 1);
    }

    #[test]
    fn env_value_parsing_is_strict() {
        assert_eq!(threads_from_env("8"), Some(8));
        assert_eq!(threads_from_env(" 4 "), Some(4));
        assert_eq!(threads_from_env("0"), None);
        assert_eq!(threads_from_env(" 0 "), None);
        assert_eq!(threads_from_env("abc"), None);
        assert_eq!(threads_from_env("3 threads"), None);
        assert_eq!(threads_from_env("-2"), None);
        assert_eq!(threads_from_env("2.5"), None);
        assert_eq!(threads_from_env(""), None);
        assert_eq!(threads_from_env("   "), None);
    }

    #[test]
    fn env_variable_feeds_auto_detection() {
        // One test owns all `HELCFL_THREADS` mutation: the environment
        // is process-global, so splitting these cases across tests
        // would race. A concurrently running `worker_threads(0)` in
        // another test stays correct for every value set here (all
        // resolutions are >= 1).
        std::env::set_var("HELCFL_THREADS", "6");
        assert_eq!(worker_threads(0), 6);
        // Explicit request still wins over the environment.
        assert_eq!(worker_threads(2), 2);
        // Invalid values fall back to detected parallelism.
        for bad in ["0", "abc", "   ", ""] {
            std::env::set_var("HELCFL_THREADS", bad);
            assert!(worker_threads(0) >= 1, "fallback failed for {bad:?}");
        }
        std::env::remove_var("HELCFL_THREADS");
        assert!(worker_threads(0) >= 1);
    }

    /// Fixture for the pool tests: a small task, its clients, a
    /// trained-from global parameter vector, and a minibatch spec.
    fn pool_fixture() -> (SyntheticTask, Vec<Client>, Vec<f32>, LocalUpdateSpec) {
        let task = SyntheticTask::generate(DatasetConfig {
            num_classes: 4,
            feature_dim: 6,
            train_samples: 120,
            // More test rows than one eval chunk so several blocks exist.
            test_samples: 700,
            seed: 9,
            ..DatasetConfig::default()
        })
        .unwrap();
        let clients =
            crate::client::build_clients(task.train(), crate::partition::Partition::iid(120, 10, 3).unwrap().assignments())
                .unwrap();
        let global = Mlp::new(&[6, 8, 4], 77).unwrap().parameters();
        let spec = LocalUpdateSpec { learning_rate: 0.3, local_epochs: 2, batch_size: 8 };
        (task, clients, global, spec)
    }

    fn pool_train(
        workers: usize,
        spec: &LocalUpdateSpec,
        rounds: &[usize],
        tele: &Telemetry,
    ) -> Vec<Vec<(Vec<f32>, f64, f32)>> {
        let (task, clients, global, _) = pool_fixture();
        let indices: Vec<usize> = (0..clients.len()).collect();
        with_trainer_pool(workers, &[6, 8, 4], &clients, task.test(), |pool| {
            rounds
                .iter()
                .map(|&round| {
                    pool.train(round, 42, spec, &global, &indices, tele, "local_update")
                })
                .collect()
        })
        .unwrap()
    }

    #[test]
    fn pooled_train_is_bit_identical_to_inline() {
        let (_, _, _, minibatch) = pool_fixture();
        let full_batch = LocalUpdateSpec { batch_size: 0, ..minibatch };
        let disabled = Telemetry::disabled();
        for spec in [minibatch, full_batch] {
            let inline = pool_train(1, &spec, &[1, 2, 3], &disabled);
            for workers in [2, 3, 8, 16] {
                let pooled = pool_train(workers, &spec, &[1, 2, 3], &disabled);
                assert_eq!(inline, pooled, "divergence at {workers} workers, {spec:?}");
            }
            // Tracing must not perturb results either.
            let tele = Telemetry::metrics_only();
            assert_eq!(inline, pool_train(4, &spec, &[1, 2, 3], &tele));
        }
    }

    #[test]
    fn pooled_evaluate_matches_serial_reference() {
        let (task, clients, global, _spec) = pool_fixture();
        let mut trainer = ClientTrainer::new(&[6, 8, 4]).unwrap();
        let reference = trainer.evaluate_params(&global, task.test()).unwrap();
        // The chunked reduction agrees with the model's own whole-set
        // accuracy.
        let mut model = Mlp::new(&[6, 8, 4], 0).unwrap();
        model.set_parameters(&global).unwrap();
        let direct = model.accuracy(task.test().features(), task.test().labels()).unwrap();
        assert_eq!(reference.1, direct);
        let disabled = Telemetry::disabled();
        for workers in [1, 2, 5] {
            let got = with_trainer_pool(workers, &[6, 8, 4], &clients, task.test(), |pool| {
                pool.evaluate(&global, &disabled)
            })
            .unwrap();
            assert_eq!(got, reference, "divergence at {workers} workers");
        }
    }

    #[test]
    fn pool_is_reusable_across_mixed_jobs() {
        // One pool serving train → eval → train must agree with fresh
        // inline runs of each job — workers carry no state across jobs
        // beyond their (fully overwritten) scratch.
        let (task, clients, global, spec) = pool_fixture();
        let indices: Vec<usize> = (0..clients.len()).collect();
        let disabled = Telemetry::disabled();
        let inline = pool_train(1, &spec, &[1, 2], &disabled);
        let (first, evaled, second) =
            with_trainer_pool(3, &[6, 8, 4], &clients, task.test(), |pool| {
                let first =
                    pool.train(1, 42, &spec, &global, &indices, &disabled, "local_update")?;
                let evaled = pool.evaluate(&global, &disabled)?;
                let second =
                    pool.train(2, 42, &spec, &global, &indices, &disabled, "local_update")?;
                Ok((first, evaled, second))
            })
            .unwrap();
        assert_eq!(first, inline[0]);
        assert_eq!(second, inline[1]);
        let direct = with_trainer_pool(1, &[6, 8, 4], &clients, task.test(), |pool| {
            pool.evaluate(&global, &disabled)
        })
        .unwrap();
        assert_eq!(evaled, direct);
    }

    #[test]
    fn pool_survives_failed_jobs() {
        // A job-level error (bad parameter vector) must propagate as
        // `Err` — not deadlock or panic — and leave the pool usable.
        let (task, clients, global, spec) = pool_fixture();
        let indices: Vec<usize> = (0..clients.len()).collect();
        let disabled = Telemetry::disabled();
        let bad = vec![0.0f32; 3];
        for workers in [1, 3] {
            with_trainer_pool(workers, &[6, 8, 4], &clients, task.test(), |pool| {
                assert!(pool
                    .train(1, 42, &spec, &bad, &indices, &disabled, "local_update")
                    .is_err());
                assert!(pool.evaluate(&bad, &disabled).is_err());
                // Still healthy: a good job right after the failures.
                let ok =
                    pool.train(1, 42, &spec, &global, &indices, &disabled, "local_update")?;
                assert_eq!(ok.len(), indices.len());
                Ok(())
            })
            .unwrap();
        }
    }

    #[test]
    fn train_rejects_out_of_range_client_indices() {
        let (task, clients, global, spec) = pool_fixture();
        let disabled = Telemetry::disabled();
        let indices = [0, 4, clients.len(), 2];
        for workers in [1, 3] {
            with_trainer_pool(workers, &[6, 8, 4], &clients, task.test(), |pool| {
                match pool.train(1, 42, &spec, &global, &indices, &disabled, "local_update") {
                    Err(FlError::InvalidConfig { field, reason }) => {
                        assert_eq!(field, "client_indices");
                        assert!(reason.contains("client index 10"), "{reason}");
                    }
                    other => panic!("expected InvalidConfig, got {other:?}"),
                }
                // The rejection happens before dispatch: the pool still
                // serves a good job.
                let ok = pool.train(1, 42, &spec, &global, &[0, 4, 2], &disabled, "local_update")?;
                assert_eq!(ok.len(), 3);
                Ok(())
            })
            .unwrap();
        }
    }

    #[test]
    fn lowest_indexed_train_error_wins() {
        // Two clients whose shards have different wrong feature widths
        // fail with different shape errors; the lower item index's
        // error must come back whichever workers ran the two items.
        let (task, mut clients, global, spec) = pool_fixture();
        let bad_client = |id: usize, width: usize| {
            let features = Matrix::zeros(12, width).unwrap();
            Client::new(DeviceId(id), LabeledSet::new(features, vec![0; 12]).unwrap()).unwrap()
        };
        clients[2] = bad_client(2, 5);
        clients[7] = bad_client(7, 7);
        let solo_err = |q: usize| {
            let mut trainer = ClientTrainer::new(&[6, 8, 4]).unwrap();
            let mut rng = Rng::seed_from_u64(0);
            trainer.local_update(&clients[q], &global, &spec, &mut rng).unwrap_err()
        };
        let (first, second) = (solo_err(2), solo_err(7));
        assert_ne!(first, second, "the two failures must be distinguishable");
        let indices: Vec<usize> = (0..clients.len()).collect();
        let disabled = Telemetry::disabled();
        for workers in [1, 3, 8] {
            let err = with_trainer_pool(workers, &[6, 8, 4], &clients, task.test(), |pool| {
                pool.train(1, 42, &spec, &global, &indices, &disabled, "local_update")
            })
            .unwrap_err();
            assert_eq!(err, first, "wrong error at {workers} workers");
        }
    }

    #[test]
    fn pool_handles_empty_and_narrow_jobs() {
        let (task, clients, global, spec) = pool_fixture();
        let disabled = Telemetry::disabled();
        with_trainer_pool(4, &[6, 8, 4], &clients, task.test(), |pool| {
            // Zero items: no dispatch at all.
            let none = pool.train(1, 42, &spec, &global, &[], &disabled, "local_update")?;
            assert!(none.is_empty());
            // Fewer items than workers: the extras sit the job out.
            let two = pool.train(1, 42, &spec, &global, &[3, 7], &disabled, "local_update")?;
            assert_eq!(two.len(), 2);
            Ok(())
        })
        .unwrap();
        let inline = with_trainer_pool(1, &[6, 8, 4], &clients, task.test(), |pool| {
            pool.train(1, 42, &spec, &global, &[3, 7], &disabled, "local_update")
        })
        .unwrap();
        let pooled = with_trainer_pool(4, &[6, 8, 4], &clients, task.test(), |pool| {
            pool.train(1, 42, &spec, &global, &[3, 7], &disabled, "local_update")
        })
        .unwrap();
        assert_eq!(inline, pooled);
    }

    #[test]
    fn pool_telemetry_accounts_for_amortized_spawns() {
        let (task, clients, global, spec) = pool_fixture();
        let indices: Vec<usize> = (0..clients.len()).collect();
        for workers in [1, 3] {
            let tele = Telemetry::metrics_only();
            with_trainer_pool(workers, &[6, 8, 4], &clients, task.test(), |pool| {
                pool.train(1, 42, &spec, &global, &indices, &tele, "local_update")?;
                pool.evaluate(&global, &tele)?;
                Ok(())
            })
            .unwrap();
            let snap = tele.snapshot();
            // Inline mode spawns nothing. Pooled train dispatches over
            // 3 workers; eval over min(3, ceil(700/256)) = 3.
            let spawns = if workers == 1 { 0 } else { 6 };
            assert_eq!(snap.counter("pool.spawn_amortized"), spawns);
            assert!(matches!(
                snap.get("local_update.workers"),
                Some(Metric::Gauge(w)) if *w == workers as f64
            ));
            // One lane per worker, each with an item count and an idle
            // counter; every item lands in the latency histogram once.
            let items: u64 = (0..workers)
                .map(|w| snap.counter(&format!("local_update.worker{w}.items")))
                .sum();
            assert_eq!(items, indices.len() as u64, "items at {workers} workers");
            for w in 0..workers {
                assert!(snap.get(&format!("local_update.worker{w}.idle_ns")).is_some());
            }
            assert!(snap.get(&format!("local_update.worker{workers}.items")).is_none());
            assert_eq!(
                snap.histogram("local_update.item_us").unwrap().count,
                indices.len() as u64,
                "histogram at {workers} workers"
            );
            // Pool metrics are runtime-class: the deterministic view is empty.
            assert!(snap.deterministic().is_empty());
        }
    }
}
