//! Algorithm 2 — utility-driven, greedy-decay user selection.
//!
//! Each round, every selectable user is scored by Eq. 20,
//! `u_q = η^{α_q} / T_q`, from its Eq.-9 delay `T_q` at maximum
//! frequency and its appearance counter `α_q`; the top-`N` users by
//! utility are selected and their counters incremented. Fast users
//! dominate early rounds (high efficiency); the geometric decay
//! guarantees slow users — and their data — enter training (high final
//! accuracy), fixing FedCS's accuracy ceiling.
//!
//! The steps of Alg. 2 map onto [`GreedyDecaySelector`] as follows:
//!
//! - lines 1–7 (initialization): each user's `T_q` is computed once,
//!   the first time the user is seen, and its counter starts at zero;
//! - lines 8–10 (utilities): Eq. 20 is *factored* instead of
//!   re-evaluated for all Q users. `T_q` is static, so users are
//!   bucketed by `α_q`, each bucket ordered once by delay. Within a
//!   bucket `η^{α_q}` is a shared constant, so the bucket's head
//!   (minimum delay) is its maximum-utility member;
//! - lines 14–19 (greedy top-N): a k-way merge across bucket heads,
//!   ties broken by ascending id;
//! - line 18 (decay): a counter increment is an O(log B) bucket move,
//!   as is an `on_delivery_failure` refund. Nothing is rescanned, so a
//!   steady-state round costs O(N·B + N log Q), not O(Q).
//!
//! ## Exactness
//!
//! The picks are exactly those of the full-rescan form of Alg. 2
//! (score everyone, sort by utility descending then id ascending, take
//! N). The integration suites hold the selector to that form, kept as
//! a test oracle, pick for pick and counter for counter:
//!
//! - utilities are evaluated through the same [`utility`] function, and
//!   IEEE division is monotone in the divisor, so for a fixed bucket
//!   the minimum-delay entry really is an arg-max of `u`;
//! - equal utilities break ties by ascending id: equal-`u` entries
//!   within a bucket form a contiguous run of delay groups walked via
//!   `BTreeSet::range` jumps, cross-bucket ties compare the per-bucket
//!   run minima, and fully-underflowed utilities (`η^{α_q} == 0.0`)
//!   live in a dedicated id-ordered set;
//! - a popped winner is *not* re-inserted until the round's merge
//!   completes, so a round's picks compete on utilities frozen at round
//!   start.
//!
//! State is keyed by [`DeviceId`], not by position, so the selector
//! stays correct when the selectable set shrinks mid-training (e.g.
//! battery-depleted devices dropping out — see
//! [`fl_sim::runner::TrainingConfig::battery_capacity`]). Devices that
//! leave the selectable set are parked when popped and re-inserted if
//! they return; their counters are untouched.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use fl_sim::error::{FlError, Result};
use fl_sim::selection::{ClientSelector, SelectionContext, SelectorSnapshot};
use helcfl_telemetry::{Class, Telemetry};
use mec_sim::device::DeviceId;
use mec_sim::units::{Bits, Seconds};

use crate::utility::{utility, AppearanceCounters, DecayCoefficient};

/// Where a known device currently lives in the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Never seen; no delay cached.
    Unknown,
    /// In its appearance bucket (or the zero-utility set).
    Placed,
    /// Popped while unselectable; waiting to rejoin.
    Parked,
}

/// The bucketed-utility index: buckets keyed by appearance counter,
/// each an ordered set of `(delay_bits, id)` pairs. Positive-finite
/// f64 delays compare identically to their bit patterns, so the
/// `u64` keys give exact delay order without float keys in the tree.
#[derive(Debug, Clone)]
struct UtilityIndex {
    payload: Bits,
    /// Cached Eq.-9 delay (seconds) by id; meaningful iff not Unknown.
    delay: Vec<f64>,
    slot: Vec<Slot>,
    /// Number of non-Unknown ids (= insertions so far).
    known: usize,
    buckets: BTreeMap<u32, BTreeSet<(u64, usize)>>,
    /// Ids whose utility underflowed to exactly 0.0 — globally tied,
    /// ordered by id like the full rescan's tie-break.
    zero: BTreeSet<usize>,
    /// Popped-but-unselectable ids awaiting rejoin.
    parked: Vec<usize>,
}

impl UtilityIndex {
    fn new(payload: Bits) -> Self {
        Self {
            payload,
            delay: Vec::new(),
            slot: Vec::new(),
            known: 0,
            buckets: BTreeMap::new(),
            zero: BTreeSet::new(),
            parked: Vec::new(),
        }
    }

    fn ensure_id(&mut self, id: usize) {
        if id >= self.slot.len() {
            self.delay.resize(id + 1, f64::NAN);
            self.slot.resize(id + 1, Slot::Unknown);
        }
    }

    /// Inserts `id` into the structure for appearance count `a`,
    /// recomputing Eq. 20 to decide between a bucket and the zero set
    /// (`powi` is not guaranteed monotone in the exponent, so
    /// membership is always decided fresh).
    fn place(&mut self, id: usize, a: u32, eta: DecayCoefficient) {
        let u = utility(eta, a, Seconds::new(self.delay[id]));
        if u == 0.0 {
            self.zero.insert(id);
        } else {
            self.buckets.entry(a).or_default().insert((self.delay[id].to_bits(), id));
        }
        self.slot[id] = Slot::Placed;
    }

    /// Removes a placed `id` known to sit at appearance count `a`.
    fn remove_placed(&mut self, id: usize, a: u32) {
        if !self.zero.remove(&id) {
            let set = self.buckets.get_mut(&a).expect("placed id has a bucket");
            let removed = set.remove(&(self.delay[id].to_bits(), id));
            debug_assert!(removed, "placed id {id} missing from bucket {a}");
            if set.is_empty() {
                self.buckets.remove(&a);
            }
        }
    }

    /// Minimum id among this bucket's entries whose utility equals the
    /// head's (`max_u`), plus that entry's delay bits. Equal-utility
    /// entries are a contiguous run of delay groups from the head;
    /// each group's first entry already has the group-minimal id, so
    /// the walk jumps group to group via `range`.
    fn run_min(
        set: &BTreeSet<(u64, usize)>,
        a: u32,
        eta: DecayCoefficient,
        max_u: f64,
    ) -> (usize, u64) {
        let &(d0, id0) = set.iter().next().expect("bucket is never empty");
        let (mut best_id, mut best_d) = (id0, d0);
        let mut cur = d0;
        while let Some(&(d, id)) =
            set.range((Bound::Excluded((cur, usize::MAX)), Bound::Unbounded)).next()
        {
            if utility(eta, a, Seconds::new(f64::from_bits(d))) != max_u {
                break;
            }
            if id < best_id {
                best_id = id;
                best_d = d;
            }
            cur = d;
        }
        (best_id, best_d)
    }
}

/// The HELCFL selector (Alg. 2), backed by the bucketed-utility index
/// described in the [module docs](self).
///
/// Stateful across rounds: appearance counters persist for the whole
/// training run. Per-device delays `T_q` are computed from the resource
/// information users report during initialization (Alg. 1 lines 1–2)
/// the first time each device is seen, and cached: this is Alg. 2's
/// initialization phase (lines 1–7), which evaluates every `T_q` once
/// before the first round. Since that information is static, the
/// cache stays correct under shrinking availability; a payload change
/// drops it and rebuilds the index.
///
/// # Examples
///
/// ```
/// use fl_sim::selection::{ClientSelector, SelectionContext};
/// use helcfl::selection::GreedyDecaySelector;
/// use mec_sim::population::PopulationBuilder;
/// use mec_sim::units::Bits;
///
/// let pop = PopulationBuilder::paper_default().seed(7).build()?;
/// let mut selector = GreedyDecaySelector::default();
/// for round in 1..=20 {
///     let ctx = SelectionContext {
///         round,
///         devices: pop.devices().into(),
///         payload: Bits::from_megabits(40.0),
///         target: 10,
///     };
///     assert_eq!(selector.select(&ctx)?.len(), 10);
/// }
/// assert_eq!(selector.counters().total(), 200);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct GreedyDecaySelector {
    eta: DecayCoefficient,
    counters: AppearanceCounters,
    /// Incremental mirror of `counters.coverage()` so the telemetry
    /// gauge costs O(1), not an O(Q) scan.
    coverage: usize,
    index: Option<UtilityIndex>,
}

impl GreedyDecaySelector {
    /// Creates a selector with decay coefficient `eta`.
    pub fn new(eta: DecayCoefficient) -> Self {
        Self { eta, counters: AppearanceCounters::default(), coverage: 0, index: None }
    }

    /// The configured decay coefficient.
    #[inline]
    pub fn eta(&self) -> DecayCoefficient {
        self.eta
    }

    /// The appearance counters accumulated so far (indexed by
    /// [`DeviceId`]).
    #[inline]
    pub fn counters(&self) -> &AppearanceCounters {
        &self.counters
    }

    /// Approximate resident bytes of the selector: counters, cached
    /// delays, slot map, and tree entries (tree nodes estimated at
    /// 1.5× entry payload for allocator/branch overhead).
    pub fn memory_bytes(&self) -> usize {
        let mut total = core::mem::size_of::<Self>() + self.counters.memory_bytes();
        if let Some(ix) = &self.index {
            total += ix.delay.capacity() * core::mem::size_of::<f64>();
            total += ix.slot.capacity() * core::mem::size_of::<Slot>();
            let entries =
                ix.buckets.values().map(BTreeSet::len).sum::<usize>() + ix.zero.len();
            total += entries * (core::mem::size_of::<(u64, usize)>() * 3 / 2);
            total += ix.parked.capacity() * core::mem::size_of::<usize>();
        }
        total
    }

    fn select_inner(
        &mut self,
        ctx: &SelectionContext<'_>,
        tele: &Telemetry,
    ) -> Result<Vec<DeviceId>> {
        if ctx.devices.is_empty() {
            return Err(FlError::InvalidSelection { reason: "no devices to select".into() });
        }
        // A payload change invalidates every cached Eq.-9 delay.
        if self.index.as_ref().is_none_or(|ix| ix.payload != ctx.payload) {
            self.index = Some(UtilityIndex::new(ctx.payload));
        }
        let ix = self.index.as_mut().expect("just ensured");

        // Alg. 2 lines 1–7: newly-seen ids get their delay cached and a
        // zero counter. When ids are implicit backing positions (fleet-
        // or mask-backed sets) and all of them are known, no new id can
        // appear and the scan is skipped entirely — the steady-state
        // rounds of a long run are O(N).
        if !(ctx.devices.has_implicit_ids() && ix.known == ctx.devices.universe_len()) {
            for d in ctx.devices.iter_universe() {
                let id = d.id().0;
                ix.ensure_id(id);
                if ix.slot[id] == Slot::Unknown {
                    self.counters.grow_to(id + 1);
                    ix.delay[id] = d.total_delay_at_max(ctx.payload).get();
                    ix.place(id, self.counters.get(id), self.eta);
                    ix.known += 1;
                }
            }
        }
        // Rejoin: parked devices that are selectable again re-enter
        // their bucket at their (unchanged) appearance count.
        let parked = core::mem::take(&mut ix.parked);
        for id in parked {
            if ctx.devices.contains(DeviceId(id)) {
                ix.place(id, self.counters.get(id), self.eta);
            } else {
                ix.parked.push(id);
            }
        }

        // Lines 14–19: N arg-max passes, each over the bucket heads
        // (the lines 8–10 utilities, evaluated lazily).
        let n = ctx.target.min(ctx.devices.len()).max(1);
        let mut selected = Vec::with_capacity(n);
        let eta_f = self.eta.get();
        while selected.len() < n {
            // The id-ordered zero set only matters once every
            // positive-utility entry is gone.
            let mut best: Option<(f64, u32, usize, u64)> = None; // (u, bucket, id, delay bits)
            for (&a, set) in &ix.buckets {
                let &(dbits, _) = set.iter().next().expect("bucket is never empty");
                let u = utility(self.eta, a, Seconds::new(f64::from_bits(dbits)));
                match best {
                    Some((bu, ..)) if u < bu => {}
                    Some((bu, _, bid, _)) if u == bu => {
                        let (id, d) = UtilityIndex::run_min(set, a, self.eta, u);
                        if id < bid {
                            best = Some((u, a, id, d));
                        }
                    }
                    _ => {
                        let (id, d) = UtilityIndex::run_min(set, a, self.eta, u);
                        best = Some((u, a, id, d));
                    }
                }
            }
            let id = match best {
                Some((_, a, id, dbits)) => {
                    let set = ix.buckets.get_mut(&a).expect("winning bucket exists");
                    set.remove(&(dbits, id));
                    if set.is_empty() {
                        ix.buckets.remove(&a);
                    }
                    id
                }
                None => match ix.zero.pop_first() {
                    Some(id) => id,
                    None => {
                        return Err(FlError::InvalidSelection {
                            reason: "utility index exhausted before reaching the target"
                                .into(),
                        })
                    }
                },
            };
            if !ctx.devices.contains(DeviceId(id)) {
                ix.slot[id] = Slot::Parked;
                ix.parked.push(id);
                continue;
            }
            if tele.is_enabled() {
                // The Eq.-20 decay factor α_q = η^{A_q} this pick was
                // made under (before the increment below) — its
                // distribution shows the greedy-decay rotation at work.
                let alpha = eta_f.powi(self.counters.get(id) as i32);
                tele.record(Class::Sim, "selection.alpha", alpha);
            }
            if self.counters.get(id) == 0 {
                self.coverage += 1;
            }
            self.counters.increment(id); // line 18: utility decay
            selected.push(DeviceId(id));
        }
        // Deferred re-placement: winners move to bucket A_q + 1 only
        // after the merge, so this round's picks competed on utilities
        // frozen at round start.
        for d in &selected {
            ix.place(d.0, self.counters.get(d.0), self.eta);
        }
        if tele.is_enabled() {
            tele.with_metrics(|m| {
                m.counter_add(Class::Sim, "selection.rounds", 1);
                m.counter_add(Class::Sim, "selection.selected", selected.len() as u64);
                m.gauge_set(Class::Sim, "selection.coverage", self.coverage as f64);
            });
        }
        Ok(selected)
    }
}

impl Default for GreedyDecaySelector {
    fn default() -> Self {
        Self::new(DecayCoefficient::default())
    }
}

impl ClientSelector for GreedyDecaySelector {
    fn name(&self) -> &'static str {
        "helcfl"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>) -> Result<Vec<DeviceId>> {
        self.select_inner(ctx, &Telemetry::disabled())
    }

    fn select_traced(
        &mut self,
        ctx: &SelectionContext<'_>,
        tele: &Telemetry,
    ) -> Result<Vec<DeviceId>> {
        self.select_inner(ctx, tele)
    }

    fn on_delivery_failure(&mut self, failed: &[DeviceId]) {
        // Refund semantics (see `DegradationPolicy`): a user that was
        // selected but never delivered gets its Alg. 2 line-18 decay
        // rolled back, so Eq. 20 keeps treating it as under-served
        // rather than penalizing it for a failure it didn't choose.
        // An O(log B) bucket move keeps the index in step.
        for id in failed {
            let q = id.0;
            if q >= self.counters.len() {
                continue;
            }
            let before = self.counters.get(q);
            self.counters.decrement(q);
            if before == 0 {
                continue;
            }
            if before == 1 {
                self.coverage -= 1;
            }
            if let Some(ix) = &mut self.index {
                if q < ix.slot.len() && ix.slot[q] == Slot::Placed {
                    ix.remove_placed(q, before);
                    ix.place(q, before - 1, self.eta);
                }
            }
        }
    }

    fn snapshot(&self) -> SelectorSnapshot {
        // The counters are the selector's only durable state: the
        // index is a pure cache over (counters, payload, delays) and is
        // rebuilt lazily on the first post-restore round.
        SelectorSnapshot {
            counters_len: self.counters.len(),
            counters: self.counters.to_sparse(),
            rng_state: None,
        }
    }

    fn restore(&mut self, snap: &SelectorSnapshot) -> Result<()> {
        if snap.rng_state.is_some() {
            return Err(FlError::InvalidConfig {
                field: "selector_snapshot",
                reason: "helcfl selector carries no RNG but the checkpoint has RNG state"
                    .into(),
            });
        }
        if let Some(&(q, _)) = snap.counters.iter().find(|&&(q, _)| q >= snap.counters_len) {
            return Err(FlError::InvalidConfig {
                field: "selector_snapshot",
                reason: format!(
                    "appearance counter for device {q} exceeds counters_len {}",
                    snap.counters_len
                ),
            });
        }
        self.counters = AppearanceCounters::from_sparse(snap.counters_len, &snap.counters);
        self.coverage = self.counters.coverage();
        self.index = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_sim::selection::validate_selection;
    use mec_sim::device::Device;
    use mec_sim::population::PopulationBuilder;

    fn ctx<'a>(devices: &'a [Device], target: usize) -> SelectionContext<'a> {
        SelectionContext { round: 1, devices: devices.into(), payload: Bits::from_megabits(40.0), target }
    }

    #[test]
    fn first_round_picks_the_fastest_users() {
        let pop = PopulationBuilder::paper_default().num_devices(20).seed(5).build().unwrap();
        let mut sel = GreedyDecaySelector::default();
        let c = ctx(pop.devices(), 5);
        let picked = sel.select(&c).unwrap();
        validate_selection(&c, &picked).unwrap();
        // Compare against explicit fastest-5.
        let mut by_delay: Vec<_> = pop.devices().iter().collect();
        by_delay.sort_by(|a, b| {
            c.total_delay_at_max(a).partial_cmp(&c.total_delay_at_max(b)).unwrap()
        });
        let fastest: Vec<_> = by_delay.iter().take(5).map(|d| d.id()).collect();
        assert_eq!(picked, fastest);
    }

    #[test]
    fn appearance_decay_rotates_users_in() {
        let pop = PopulationBuilder::paper_default().num_devices(30).seed(6).build().unwrap();
        let mut sel = GreedyDecaySelector::new(DecayCoefficient::new(0.5).unwrap());
        let mut all_selected = std::collections::BTreeSet::new();
        for round in 1..=40 {
            let c = SelectionContext {
                round,
                devices: pop.devices().into(),
                payload: Bits::from_megabits(40.0),
                target: 3,
            };
            for id in sel.select(&c).unwrap() {
                all_selected.insert(id);
            }
        }
        // With η = 0.5 and 120 total slots over 30 users, decay must
        // have rotated everyone in at least once.
        assert_eq!(all_selected.len(), 30, "all users should eventually appear");
        assert_eq!(sel.counters().coverage(), 30);
        assert_eq!(sel.counters().total(), 120);
    }

    #[test]
    fn high_eta_rotates_slower_than_low_eta() {
        let pop = PopulationBuilder::paper_default().num_devices(40).seed(7).build().unwrap();
        let coverage_after = |eta: f64, rounds: usize| {
            let mut sel = GreedyDecaySelector::new(DecayCoefficient::new(eta).unwrap());
            for round in 1..=rounds {
                let c = SelectionContext {
                    round,
                    devices: pop.devices().into(),
                    payload: Bits::from_megabits(40.0),
                    target: 4,
                };
                sel.select(&c).unwrap();
            }
            sel.counters().coverage()
        };
        // Closer to 1 = weaker decay = fewer distinct users early on.
        assert!(coverage_after(0.99, 8) <= coverage_after(0.3, 8));
    }

    #[test]
    fn selection_is_deterministic() {
        let pop = PopulationBuilder::paper_default().num_devices(15).seed(8).build().unwrap();
        let run = || {
            let mut sel = GreedyDecaySelector::default();
            let mut out = Vec::new();
            for round in 1..=10 {
                let c = SelectionContext {
                    round,
                    devices: pop.devices().into(),
                    payload: Bits::from_megabits(40.0),
                    target: 2,
                };
                out.push(sel.select(&c).unwrap());
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn traced_selection_matches_untraced_and_records_alpha() {
        let pop = PopulationBuilder::paper_default().num_devices(10).seed(12).build().unwrap();
        let eta = DecayCoefficient::new(0.5).unwrap();
        let mut plain = GreedyDecaySelector::new(eta);
        let mut traced = GreedyDecaySelector::new(eta);
        let tele = Telemetry::metrics_only();
        for round in 1..=6 {
            let c = SelectionContext {
                round,
                devices: pop.devices().into(),
                payload: mec_sim::units::Bits::from_megabits(40.0),
                target: 3,
            };
            let a = plain.select(&c).unwrap();
            let b = traced.select_traced(&c, &tele).unwrap();
            assert_eq!(a, b, "round {round}: tracing changed the selection");
        }
        let snap = tele.snapshot();
        assert_eq!(snap.counter("selection.rounds"), 6);
        assert_eq!(snap.counter("selection.selected"), 18);
        let alpha = snap.histogram("selection.alpha").unwrap();
        assert_eq!(alpha.count, 18);
        // Round 1 picks all-unseen users: α = η^0 = 1; later rounds see
        // decayed α = 0.5, 0.25, … — never above 1.
        assert_eq!(alpha.max, 1.0);
        assert!(alpha.min < 1.0, "decay never engaged");
        // All selection metrics are deterministic (Sim-class).
        assert_eq!(snap.deterministic().len(), snap.len());
    }

    #[test]
    fn target_larger_than_population_is_capped() {
        let pop = PopulationBuilder::paper_default().num_devices(3).seed(9).build().unwrap();
        let mut sel = GreedyDecaySelector::default();
        let c = ctx(pop.devices(), 10);
        let picked = sel.select(&c).unwrap();
        assert_eq!(picked.len(), 3);
    }

    #[test]
    fn empty_population_is_rejected() {
        let mut sel = GreedyDecaySelector::default();
        let c = ctx(&[], 3);
        assert!(sel.select(&c).is_err());
    }

    #[test]
    fn counters_stay_keyed_by_id_when_devices_drop_out() {
        let pop = PopulationBuilder::paper_default().num_devices(10).seed(10).build().unwrap();
        let mut sel = GreedyDecaySelector::new(DecayCoefficient::new(0.5).unwrap());
        // Round 1 over everyone.
        let full = pop.devices().to_vec();
        let picked = sel.select(&ctx(&full, 4)).unwrap();
        let before: Vec<u32> = (0..10).map(|q| sel.counters().get(q)).collect();
        // Rounds over a filtered set (say, the odd-id devices survive).
        let alive: Vec<Device> =
            pop.devices().iter().filter(|d| d.id().0 % 2 == 1).copied().collect();
        let picked2 = sel.select(&ctx(&alive, 3)).unwrap();
        assert!(picked2.iter().all(|id| id.0 % 2 == 1));
        // Counter increments landed on the right ids.
        for (q, &count_before) in before.iter().enumerate() {
            let expected = count_before + u32::from(picked2.contains(&DeviceId(q)));
            assert_eq!(sel.counters().get(q), expected, "device {q}");
        }
        let _ = picked;
    }

    #[test]
    fn fleet_backed_context_matches_slice_backed() {
        let builder = PopulationBuilder::paper_default().num_devices(30).seed(9);
        let pop = builder.build().unwrap();
        let fleet = builder.build_fleet().unwrap();
        let mut a = GreedyDecaySelector::default();
        let mut b = GreedyDecaySelector::default();
        for round in 1..=50 {
            let slice_ctx = SelectionContext { round, ..ctx(pop.devices(), 5) };
            let fleet_ctx = SelectionContext {
                round,
                devices: (&fleet).into(),
                payload: Bits::from_megabits(40.0),
                target: 5,
            };
            assert_eq!(a.select(&slice_ctx).unwrap(), b.select(&fleet_ctx).unwrap());
        }
    }

    #[test]
    fn snapshot_restore_replays_identical_future_selections() {
        let pop = PopulationBuilder::paper_default().num_devices(25).seed(13).build().unwrap();
        let mut sel = GreedyDecaySelector::new(DecayCoefficient::new(0.5).unwrap());
        for _ in 0..7 {
            sel.select(&ctx(pop.devices(), 4)).unwrap();
        }
        let snap = sel.snapshot();
        assert_eq!(snap.counters_len, 25);
        assert!(snap.rng_state.is_none());
        let mut resumed = GreedyDecaySelector::new(DecayCoefficient::new(0.5).unwrap());
        resumed.restore(&snap).unwrap();
        assert_eq!(resumed.counters(), sel.counters());
        for round in 0..10 {
            let a = sel.select(&ctx(pop.devices(), 4)).unwrap();
            let b = resumed.select(&ctx(pop.devices(), 4)).unwrap();
            assert_eq!(a, b, "round {round} diverged after restore");
        }
        // An image with RNG state or out-of-range ids is refused.
        let mut bad = snap.clone();
        bad.rng_state = Some([1, 2, 3, 4]);
        assert!(sel.restore(&bad).is_err());
        let mut oob = snap.clone();
        oob.counters.push((25, 1));
        assert!(sel.restore(&oob).is_err());
    }

    #[test]
    fn delivery_failure_refunds_the_appearance_charge() {
        let pop = PopulationBuilder::paper_default().num_devices(6).seed(11).build().unwrap();
        let mut sel = GreedyDecaySelector::new(DecayCoefficient::new(0.5).unwrap());
        let picked = sel.select(&ctx(pop.devices(), 3)).unwrap();
        let victim = picked[0];
        assert_eq!(sel.counters().get(victim.0), 1);
        sel.on_delivery_failure(&[victim]);
        assert_eq!(sel.counters().get(victim.0), 0, "charge not refunded");
        // The other picks keep their charge.
        for id in &picked[1..] {
            assert_eq!(sel.counters().get(id.0), 1);
        }
        // A refund for an id the selector has never scored is ignored.
        sel.on_delivery_failure(&[DeviceId(999)]);
        // With the refund, the failed user is selected again next
        // round exactly as if it had never appeared.
        let repicked = sel.select(&ctx(pop.devices(), 3)).unwrap();
        assert!(repicked.contains(&victim), "refunded user lost priority");
    }

    #[test]
    fn memory_accessor_reports_nonzero_after_use() {
        let pop = PopulationBuilder::paper_default().num_devices(50).seed(2).build().unwrap();
        let mut sel = GreedyDecaySelector::default();
        let baseline = sel.memory_bytes();
        sel.select(&ctx(pop.devices(), 5)).unwrap();
        assert!(sel.memory_bytes() > baseline);
    }
}
