//! Pick-for-pick equivalence of the production [`GreedyDecaySelector`]
//! (the bucketed-utility index) against the full-rescan Alg. 2 oracle
//! in `support/reference_selector.rs`: random heterogeneous
//! populations, shifting targets, mid-run dropouts *and* rejoins
//! (alive-mask churn), delivery-failure refunds, a snapshot/restore
//! while devices are dead, payload changes, telemetry, and decay
//! coefficients extreme enough to underflow `η^{A_q}` to exactly zero.
//!
//! Deterministic seeded case loops in the house property-test style —
//! each assertion message carries the case index for reproducibility.

#[path = "support/reference_selector.rs"]
mod reference_selector;

use detrand::Rng;
use fl_sim::selection::{ClientSelector, SelectionContext, validate_selection};
use helcfl::selection::GreedyDecaySelector;
use helcfl::utility::DecayCoefficient;
use helcfl_telemetry::Telemetry;
use mec_sim::comm::Uplink;
use mec_sim::cpu::DvfsCpu;
use mec_sim::device::{Device, DeviceId};
use mec_sim::fleet::AliveMask;
use mec_sim::population::PopulationBuilder;
use mec_sim::units::{Bits, BitsPerSecond, Hertz, Watts};
use reference_selector::ReferenceSelector;

fn gen_devices(rng: &mut Rng, min: usize, max: usize) -> Vec<Device> {
    let n = rng.range_usize(min, max);
    (0..n)
        .map(|i| {
            let fmax = rng.uniform(0.3100001, 2.0);
            let samples = rng.range_usize(50, 1500);
            let mbps = rng.uniform(0.5, 15.0);
            let cpu =
                DvfsCpu::with_paper_alpha(Hertz::from_ghz(0.3), Hertz::from_ghz(fmax)).unwrap();
            let uplink =
                Uplink::new(Watts::new(0.2), BitsPerSecond::from_mbps(mbps)).unwrap();
            Device::new(DeviceId(i), cpu, 1.0e7, samples, uplink).unwrap()
        })
        .collect()
}

/// Drives the production selector and the oracle through identical
/// masked contexts with churn and refunds, asserting equal picks every
/// round and equal per-id counters at the end. At a seeded mid-run
/// round (the first one from there on with a dead device), the
/// production selector is snapshotted and replaced by a fresh one
/// restored from that image, so the rebuilt index must park the dead
/// devices and keep matching the oracle.
fn drive_equivalence(rng: &mut Rng, case: usize, eta: DecayCoefficient, rounds: usize) {
    let devices = gen_devices(rng, 5, 40);
    let q = devices.len();
    let resume_from = rng.range_usize(rounds / 4, 3 * rounds / 4);
    let mut resumed_at = None;
    let mut mask = AliveMask::all_alive(q);
    let mut production = GreedyDecaySelector::new(eta);
    let mut reference = ReferenceSelector::new(eta);
    for round in 1..=rounds {
        // Churn: kill or revive a couple of random devices, keeping at
        // least one alive. Draw count is state-independent so the RNG
        // stream stays aligned across cases.
        for _ in 0..2 {
            let victim = rng.below(q);
            if rng.uniform(0.0, 1.0) < 0.5 {
                if mask.alive_count() > 1 && mask.is_alive(victim) {
                    mask.kill(victim);
                }
            } else if !mask.is_alive(victim) {
                mask.revive(victim);
            }
        }
        if resumed_at.is_none() && round >= resume_from && mask.alive_count() < q {
            let snap = production.snapshot();
            assert_eq!(
                snap.counters,
                reference.snapshot().counters,
                "case {case} round {round}: snapshot counters diverged"
            );
            let mut restored = GreedyDecaySelector::new(eta);
            restored.restore(&snap).unwrap();
            assert_eq!(restored.counters(), production.counters(), "case {case} round {round}");
            production = restored;
            resumed_at = Some(round);
        }
        let target = rng.range_usize(1, 9);
        let ctx = SelectionContext {
            round,
            devices: DeviceSetOf(&devices).masked(&mask),
            payload: Bits::from_megabits(40.0),
            target,
        };
        let a = production.select(&ctx).unwrap();
        let b = reference.select(&ctx).unwrap();
        assert_eq!(
            a,
            b,
            "case {case} round {round} (η = {}, resumed at {resumed_at:?})",
            eta.get()
        );
        validate_selection(&ctx, &a)
            .unwrap_or_else(|e| panic!("case {case} round {round}: {e}"));
        // Refund a random subset of the round's picks on both sides.
        let failed: Vec<DeviceId> =
            a.iter().copied().filter(|_| rng.uniform(0.0, 1.0) < 0.25).collect();
        if !failed.is_empty() {
            production.on_delivery_failure(&failed);
            reference.on_delivery_failure(&failed);
        }
    }
    assert!(
        resumed_at.is_some(),
        "case {case}: no round from {resume_from} on had a dead device"
    );
    for id in 0..q {
        assert_eq!(
            production.counters().get(id),
            reference.counters().get(id),
            "case {case} device {id}: counters diverged"
        );
    }
}

/// Tiny helper so the context construction above reads declaratively.
struct DeviceSetOf<'a>(&'a [Device]);

impl<'a> DeviceSetOf<'a> {
    fn masked(self, mask: &'a AliveMask) -> fl_sim::selection::DeviceSet<'a> {
        fl_sim::selection::DeviceSet::from_slice(self.0).with_mask(mask)
    }
}

fn ctx(devices: &[Device], round: usize, target: usize) -> SelectionContext<'_> {
    SelectionContext { round, devices: devices.into(), payload: Bits::from_megabits(40.0), target }
}

/// 20 random populations × 220 rounds of dropout/rejoin churn,
/// shifting targets, probabilistic refunds and one mid-run resume:
/// the production selector's picks and counters are identical to the
/// oracle's, round for round.
#[test]
fn indexed_matches_reference_under_churn() {
    let mut rng = Rng::seed_from_u64(0x1d00_0001);
    for case in 0..20 {
        let eta = DecayCoefficient::new(rng.uniform(0.05, 0.95)).unwrap();
        drive_equivalence(&mut rng, case, eta, 220);
    }
}

/// Extreme decay coefficients: η small enough that `η^{A_q}` hits
/// exact 0.0 after a handful of appearances (and η close enough to 1
/// that utilities crowd together). No panic, no divergence — zero
/// utilities degrade to deterministic id order on both sides.
#[test]
fn extreme_eta_never_panics_and_stays_equivalent() {
    let mut rng = Rng::seed_from_u64(0x1d00_0002);
    for (case, eta) in
        [1.0e-300, 1.0e-12, 1.0e-3, 0.999_999].into_iter().enumerate()
    {
        let eta = DecayCoefficient::new(eta).unwrap();
        drive_equivalence(&mut rng, case, eta, 200);
    }
}

/// A 40-device population over 120 rounds, and the paper's Q = 100
/// population at its 10 % cohort.
#[test]
fn matches_reference_over_many_rounds() {
    for (devices, seed, target, rounds) in [(40, 5, 4, 120), (100, 7, 10, 20)] {
        let pop =
            PopulationBuilder::paper_default().num_devices(devices).seed(seed).build().unwrap();
        let mut production = GreedyDecaySelector::default();
        let mut reference = ReferenceSelector::default();
        for round in 1..=rounds {
            let c = ctx(pop.devices(), round, target);
            let a = production.select(&c).unwrap();
            let b = reference.select(&c).unwrap();
            assert_eq!(a, b, "Q={devices} round {round}");
            validate_selection(&c, &a).unwrap();
        }
        for q in 0..devices {
            assert_eq!(
                production.counters().get(q),
                reference.counters().get(q),
                "Q={devices} device {q}"
            );
        }
    }
}

/// Many rounds with the target swept over 1..=13, so the top-N merge
/// is checked at every prefix length, not one fixed N.
#[test]
fn matches_full_sort_oracle_across_targets() {
    let pop = PopulationBuilder::paper_default().num_devices(50).seed(21).build().unwrap();
    let eta = DecayCoefficient::new(0.5).unwrap();
    let mut production = GreedyDecaySelector::new(eta);
    let mut reference = ReferenceSelector::new(eta);
    for round in 1..=60 {
        let target = 1 + round % 13;
        let c = ctx(pop.devices(), round, target);
        let picked = production.select(&c).unwrap();
        let expected = reference.select(&c).unwrap();
        assert_eq!(picked, expected, "round {round} target {target}");
    }
}

#[test]
fn payload_change_rebuilds_the_index() {
    let pop = PopulationBuilder::paper_default().num_devices(20).seed(4).build().unwrap();
    let mut production = GreedyDecaySelector::default();
    let mut reference = ReferenceSelector::default();
    for round in 1..=30 {
        // Alternate payloads: delays (and hence utilities) differ
        // per payload, and the index must follow.
        let payload =
            if round % 2 == 0 { Bits::from_megabits(40.0) } else { Bits::from_megabits(4.0) };
        let c = SelectionContext { payload, ..ctx(pop.devices(), round, 3) };
        assert_eq!(production.select(&c).unwrap(), reference.select(&c).unwrap(), "round {round}");
    }
}

#[test]
fn refunds_restore_selection_priority() {
    let pop = PopulationBuilder::paper_default().num_devices(12).seed(6).build().unwrap();
    let mut production = GreedyDecaySelector::default();
    let mut reference = ReferenceSelector::default();
    for round in 1..=40 {
        let c = ctx(pop.devices(), round, 3);
        let a = production.select(&c).unwrap();
        let b = reference.select(&c).unwrap();
        assert_eq!(a, b, "round {round}");
        // Refund the slowest pick every third round.
        if round % 3 == 0 {
            let failed = [*a.last().unwrap()];
            production.on_delivery_failure(&failed);
            reference.on_delivery_failure(&failed);
        }
    }
    for q in 0..12 {
        assert_eq!(production.counters().get(q), reference.counters().get(q), "device {q}");
    }
    // An unknown id is ignored by both.
    production.on_delivery_failure(&[DeviceId(999)]);
}

#[test]
fn dropout_and_rejoin_track_the_reference() {
    let pop = PopulationBuilder::paper_default().num_devices(16).seed(8).build().unwrap();
    let full = pop.devices().to_vec();
    let evens: Vec<_> = full.iter().filter(|d| d.id().0 % 2 == 0).copied().collect();
    let mut production = GreedyDecaySelector::default();
    let mut reference = ReferenceSelector::default();
    for round in 1..=60 {
        // Every other block of 5 rounds, odd devices drop out.
        let devices: &[Device] = if (round / 5) % 2 == 0 { &full } else { &evens };
        let c = ctx(devices, round, 3);
        let a = production.select(&c).unwrap();
        let b = reference.select(&c).unwrap();
        assert_eq!(a, b, "round {round}");
    }
    for q in 0..16 {
        assert_eq!(production.counters().get(q), reference.counters().get(q), "device {q}");
    }
}

#[test]
fn telemetry_is_equivalent_to_the_reference() {
    let pop = PopulationBuilder::paper_default().num_devices(25).seed(12).build().unwrap();
    let tele_a = Telemetry::metrics_only();
    let tele_b = Telemetry::metrics_only();
    let mut production = GreedyDecaySelector::default();
    let mut reference = ReferenceSelector::default();
    for round in 1..=30 {
        let c = ctx(pop.devices(), round, 5);
        let a = production.select_traced(&c, &tele_a).unwrap();
        let b = reference.select_traced(&c, &tele_b).unwrap();
        assert_eq!(a, b, "round {round}");
    }
    let snap_a = tele_a.snapshot();
    let snap_b = tele_b.snapshot();
    assert_eq!(snap_a.counter("selection.rounds"), snap_b.counter("selection.rounds"));
    assert_eq!(snap_a.counter("selection.selected"), snap_b.counter("selection.selected"));
    // Gauge and full α-histogram (count, min/max, every bucket)
    // must match the oracle sample for sample.
    assert_eq!(snap_a.get("selection.coverage"), snap_b.get("selection.coverage"));
    assert!(snap_a.histogram("selection.alpha").is_some());
    assert_eq!(snap_a.histogram("selection.alpha"), snap_b.histogram("selection.alpha"));
}

#[test]
fn eta_underflow_keeps_id_order_and_never_panics() {
    // η = 1e-300 underflows to exactly 0.0 by the second
    // appearance (1e-600 is subnormal-zero): every seen device
    // lands in the zero set and selection degrades to pure id
    // order — deterministically, with no partial_cmp panic.
    let pop = PopulationBuilder::paper_default().num_devices(10).seed(3).build().unwrap();
    let eta = DecayCoefficient::new(1.0e-300).unwrap();
    let mut production = GreedyDecaySelector::new(eta);
    let mut reference = ReferenceSelector::new(eta);
    for round in 1..=25 {
        let c = ctx(pop.devices(), round, 4);
        let a = production.select(&c).unwrap();
        let b = reference.select(&c).unwrap();
        assert_eq!(a, b, "round {round}");
    }
    // After everyone decayed to zero utility, picks are the first
    // N ids.
    let c = ctx(pop.devices(), 99, 4);
    let picks = production.select(&c).unwrap();
    assert_eq!(picks, vec![DeviceId(0), DeviceId(1), DeviceId(2), DeviceId(3)]);
}

#[test]
fn snapshot_restore_matches_reference_and_uninterrupted_index() {
    let pop = PopulationBuilder::paper_default().num_devices(30).seed(14).build().unwrap();
    let mut live = GreedyDecaySelector::default();
    let mut reference = ReferenceSelector::default();
    for round in 1..=9 {
        let c = ctx(pop.devices(), round, 4);
        assert_eq!(live.select(&c).unwrap(), reference.select(&c).unwrap());
    }
    let snap = ClientSelector::snapshot(&live);
    // The snapshot interchanges with the oracle's: both carry exactly
    // the appearance counters.
    assert_eq!(snap, ClientSelector::snapshot(&reference));
    let mut resumed = GreedyDecaySelector::default();
    resumed.restore(&snap).unwrap();
    assert_eq!(resumed.counters(), live.counters());
    for round in 10..=30 {
        let c = ctx(pop.devices(), round, 4);
        let a = live.select(&c).unwrap();
        let b = resumed.select(&c).unwrap();
        let r = reference.select(&c).unwrap();
        assert_eq!(a, b, "round {round}: resumed index diverged");
        assert_eq!(a, r, "round {round}: index diverged from reference");
    }
    // RNG state in the image is refused.
    let mut bad = snap.clone();
    bad.rng_state = Some([9, 9, 9, 9]);
    assert!(resumed.restore(&bad).is_err());
}
