//! Device-aware round timelines: compute spans + TDMA uploads +
//! energy accounting for one synchronous FL training iteration.
//!
//! [`RoundTimeline`] glues the per-device models (Eq. 4–9) to the
//! serialized TDMA channel ([`TdmaSchedule`]) and reports the metrics
//! the paper's evaluation needs: round delay, per-round energy
//! (Eq. 10–11), per-device slack, and an ASCII Gantt rendering of the
//! Fig. 1 schedule.


use helcfl_telemetry::{Class, Histogram, MetricsRegistry, Span};

use crate::device::{Device, DeviceId};
use crate::error::{MecError, Result};
use crate::tdma::{TdmaSchedule, UploadRequest};
use crate::units::{Bits, Hertz, Joules, Seconds};

/// One device's fully-resolved activity within a round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceActivity {
    /// The device.
    pub device: DeviceId,
    /// The operating frequency it computed at.
    pub frequency: Hertz,
    /// The device's maximum frequency — the baseline the
    /// delay-neutrality and `E ∝ f²` audits compare against.
    pub f_max: Hertz,
    /// Local model-update delay `T^cal` (compute starts at t = 0).
    pub compute_finish: Seconds,
    /// When its upload obtained the channel.
    pub upload_start: Seconds,
    /// When its upload finished.
    pub upload_end: Seconds,
    /// Compute energy `E^cal` at `frequency` (Eq. 5).
    pub compute_energy: Joules,
    /// Compute energy the same workload would have cost at `f_max` —
    /// the `E ∝ f²` reference the audit checks `compute_energy`
    /// against (`E_f = E_max · (f / f_max)²`, and `E_f ≤ E_max`).
    pub compute_energy_at_max: Joules,
    /// Upload energy `E^com` (Eq. 8).
    pub upload_energy: Joules,
}

impl DeviceActivity {
    /// Idle wait between compute completion and upload start.
    #[inline]
    pub fn slack(&self) -> Seconds {
        self.upload_start - self.compute_finish
    }

    /// Total device energy in this round.
    #[inline]
    pub fn total_energy(&self) -> Joules {
        self.compute_energy + self.upload_energy
    }

    /// End-to-end span of this device (Eq. 9 plus any wait).
    #[inline]
    pub fn total_delay(&self) -> Seconds {
        self.upload_end
    }
}

/// Configuration for digest-mode tracing
/// ([`RoundTimeline::trace_digest_into`] and
/// [`crate::faults::FaultedRound::trace_digest_into`]).
///
/// Digest mode replaces the per-device `device_activity` spans with one
/// `cohort_digest` span carrying streaming aggregates, plus `exemplars`
/// deterministically sampled devices that still emit full spans so the
/// audit can replay representative schedules exactly. The sampler is a
/// fresh [`detrand::Rng`] seeded with `seed` — callers derive it from a
/// dedicated seed domain per round so digest tracing can never perturb
/// selection, training, or fault draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestConfig {
    /// How many exemplar devices keep full `device_activity` spans.
    /// Clamped to the cohort size.
    pub exemplars: usize,
    /// Per-round exemplar-sampler seed.
    pub seed: u64,
}

/// Samples `cfg.exemplars` distinct indices from `0..n`, returned in
/// ascending order so exemplar spans emit in channel order.
pub(crate) fn sample_exemplars(n: usize, cfg: DigestConfig) -> Vec<usize> {
    let k = cfg.exemplars.min(n);
    if k == 0 {
        return Vec::new();
    }
    let mut indices = detrand::Rng::seed_from_u64(cfg.seed).sample_indices(n, k);
    indices.sort_unstable();
    indices
}

/// Maps TDMA slots back to input positions by device id, refusing
/// repeated ids: an id search would silently resolve both slots of a
/// repeated id to the first device.
pub(crate) struct SlotIndex(Vec<(DeviceId, usize)>);

impl SlotIndex {
    /// Indexes `devices` by id.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::DuplicateDevice`] naming the smallest
    /// repeated id.
    pub(crate) fn new(devices: &[Device]) -> Result<Self> {
        let mut by_id: Vec<(DeviceId, usize)> =
            devices.iter().enumerate().map(|(i, d)| (d.id(), i)).collect();
        by_id.sort_unstable();
        match by_id.windows(2).find(|w| w[0].0 == w[1].0) {
            Some(w) => Err(MecError::DuplicateDevice { id: w[0].0 }),
            None => Ok(Self(by_id)),
        }
    }

    /// Input position of `id`, which must come from the indexed set.
    pub(crate) fn position(&self, id: DeviceId) -> usize {
        let k = self
            .0
            .binary_search_by_key(&id, |&(d, _)| d)
            .expect("slot devices come from the input set");
        self.0[k].1
    }
}

/// The resolved timeline of one synchronous round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundTimeline {
    activities: Vec<DeviceActivity>,
    payload: Bits,
}

impl RoundTimeline {
    /// Simulates one round for `devices` operating at per-device
    /// frequencies `frequencies`, each uploading `payload` bits.
    ///
    /// Computation runs in parallel across devices from t = 0; uploads
    /// serialize on the TDMA channel in compute-finish order.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::EmptyDeviceSet`] for no devices,
    /// [`MecError::DuplicateDevice`] when two devices share an id, a
    /// [`MecError::NonPositiveParameter`] if `frequencies` length
    /// mismatches, or [`MecError::FrequencyOutOfRange`] if a frequency
    /// is unsupported by its device.
    pub fn simulate(devices: &[Device], frequencies: &[Hertz], payload: Bits) -> Result<Self> {
        if devices.is_empty() {
            return Err(MecError::EmptyDeviceSet);
        }
        if devices.len() != frequencies.len() {
            return Err(MecError::NonPositiveParameter {
                name: "frequencies.len",
                value: frequencies.len() as f64,
            });
        }
        let index = SlotIndex::new(devices)?;
        let mut requests = Vec::with_capacity(devices.len());
        for (dev, &f) in devices.iter().zip(frequencies) {
            requests.push(UploadRequest {
                device: dev.id(),
                compute_finish: dev.compute_delay(f)?,
                upload_duration: dev.upload_delay(payload),
            });
        }
        let schedule = TdmaSchedule::new(requests);
        let mut activities = Vec::with_capacity(devices.len());
        for slot in schedule.slots() {
            let i = index.position(slot.device);
            let (dev, f) = (&devices[i], frequencies[i]);
            activities.push(DeviceActivity {
                device: slot.device,
                frequency: f,
                f_max: dev.cpu().range().max(),
                compute_finish: slot.compute_finish,
                upload_start: slot.upload_start,
                upload_end: slot.upload_end,
                compute_energy: dev.compute_energy(f)?,
                compute_energy_at_max: dev.compute_energy(dev.cpu().range().max())?,
                upload_energy: dev.upload_energy(payload),
            });
        }
        Ok(Self { activities, payload })
    }

    /// Convenience: simulate with every device at its maximum frequency
    /// (the "traditional FL" baseline of §VI-A).
    ///
    /// # Errors
    ///
    /// Same conditions as [`RoundTimeline::simulate`].
    pub fn simulate_at_max(devices: &[Device], payload: Bits) -> Result<Self> {
        let freqs: Vec<Hertz> = devices.iter().map(|d| d.cpu().range().max()).collect();
        Self::simulate(devices, &freqs, payload)
    }

    /// Per-device activities in channel (upload) order.
    #[inline]
    pub fn activities(&self) -> &[DeviceActivity] {
        &self.activities
    }

    /// The model payload size used for uploads.
    #[inline]
    pub fn payload(&self) -> Bits {
        self.payload
    }

    /// Round delay: the TDMA makespan (when the last upload lands).
    pub fn makespan(&self) -> Seconds {
        self.activities.last().map_or(Seconds::ZERO, |a| a.upload_end)
    }

    /// The paper's Eq. 10 lower bound `max_q (T^cal + T^com)`, which
    /// ignores channel contention.
    pub fn eq10_bound(&self) -> Seconds {
        self.activities
            .iter()
            .map(|a| a.compute_finish + (a.upload_end - a.upload_start))
            .fold(Seconds::ZERO, Seconds::max)
    }

    /// Total round energy `E_Γ` (Eq. 11).
    pub fn total_energy(&self) -> Joules {
        self.activities.iter().map(DeviceActivity::total_energy).sum()
    }

    /// Total compute energy across devices.
    pub fn compute_energy(&self) -> Joules {
        self.activities.iter().map(|a| a.compute_energy).sum()
    }

    /// Total slack across devices — the head-room Alg. 3 exploits.
    pub fn total_slack(&self) -> Seconds {
        self.activities.iter().map(DeviceActivity::slack).sum()
    }

    /// Activity of a specific device, if it participated.
    pub fn activity(&self, device: DeviceId) -> Option<&DeviceActivity> {
        self.activities.iter().find(|a| a.device == device)
    }

    /// Records this round's TDMA and energy profile into a metrics
    /// registry.
    ///
    /// All values are derived from the resolved timeline — pure
    /// simulation state — so they carry [`Class::Sim`] and stay
    /// bit-identical across thread counts. Names:
    ///
    /// * `tdma.uploads` (counter) — uploads serialized this round;
    /// * `tdma.queue_wait_s` (histogram) — per-device wait between
    ///   compute finish and channel acquisition (the slack Alg. 3
    ///   harvests);
    /// * `device.energy_j` / `device.compute_energy_j` (histograms) —
    ///   per-device round energy split;
    /// * `round.makespan_s` / `round.slack_total_s` (histograms) —
    ///   one sample per round, distribution across the run.
    pub fn record_metrics(&self, registry: &mut MetricsRegistry) {
        registry.counter_add(Class::Sim, "tdma.uploads", self.activities.len() as u64);
        // Batched per metric: one registry walk per name, not three
        // string-keyed walks per device — at population scale this
        // loop runs over 10^4 devices every traced round.
        registry.record_iter(
            Class::Sim,
            "tdma.queue_wait_s",
            self.activities.iter().map(|a| a.slack().get()),
        );
        registry.record_iter(
            Class::Sim,
            "device.energy_j",
            self.activities.iter().map(|a| a.total_energy().get()),
        );
        registry.record_iter(
            Class::Sim,
            "device.compute_energy_j",
            self.activities.iter().map(|a| a.compute_energy.get()),
        );
        registry.record(Class::Sim, "round.makespan_s", self.makespan().get());
        registry.record(Class::Sim, "round.slack_total_s", self.total_slack().get());
    }

    /// Attaches a digest of this round's resolved schedule to an open
    /// `timeline` span (see [`DigestConfig`]): summary totals plus
    /// `digest: true` on `span` itself, one `cohort_digest` child
    /// carrying streaming aggregates over the whole cohort (counts,
    /// energy/slack sums and extrema, compact binary-exponent
    /// histograms), and full `device_activity` spans — everything the
    /// trace auditor needs to replay a device against the analytic
    /// model — only for the exemplar devices picked by `cfg` (tagged
    /// `exemplar: true`, emitted in channel order). The children are
    /// zero-duration markers ended immediately.
    ///
    /// The digest is a pure projection of the resolved timeline, so it
    /// can never perturb the simulation.
    pub fn trace_digest_into(&self, span: &mut Span, cfg: DigestConfig) {
        self.set_summary_attrs(span);
        span.set("digest", true);
        let exemplars = sample_exemplars(self.activities.len(), cfg);
        {
            // Batched aggregation (see `Histogram::record_batch`):
            // per-device cost is an array increment, and the extrema
            // fall out of the histograms' own finite min/max — all
            // energies and slacks are finite by construction.
            let mut energy_hist = Histogram::new();
            let mut slack_hist = Histogram::new();
            energy_hist
                .record_batch(self.activities.iter().map(|a| a.total_energy().get()));
            slack_hist.record_batch(self.activities.iter().map(|a| a.slack().get()));
            span.child("cohort_digest")
                .with("devices", self.activities.len())
                .with("exemplars", exemplars.len())
                .with("uploads", self.activities.len())
                .with("energy_sum_j", self.total_energy().get())
                .with("energy_min_j", energy_hist.min)
                .with("energy_max_j", energy_hist.max)
                .with("compute_energy_sum_j", self.compute_energy().get())
                .with("slack_sum_s", self.total_slack().get())
                .with("slack_min_s", slack_hist.min)
                .with("slack_max_s", slack_hist.max)
                .with("release_max_s", self.makespan().get())
                .with("energy_hist", energy_hist.encode_compact())
                .with("slack_hist", slack_hist.encode_compact())
                .end();
        }
        for &i in &exemplars {
            Self::emit_exemplar(span, &self.activities[i]);
        }
    }

    fn set_summary_attrs(&self, span: &mut Span) {
        span.set("uploads", self.activities.len());
        span.set("makespan_s", self.makespan().get());
        span.set("slack_total_s", self.total_slack().get());
        span.set("energy_j", self.total_energy().get());
        span.set("compute_energy_j", self.compute_energy().get());
    }

    fn emit_exemplar(span: &mut Span, a: &DeviceActivity) {
        span.child("device_activity")
            .with("device", a.device.to_string())
            .with("device_id", a.device.0)
            .with("f_hz", a.frequency.get())
            .with("f_max_hz", a.f_max.get())
            .with("compute_finish_s", a.compute_finish.get())
            .with("upload_start_s", a.upload_start.get())
            .with("upload_end_s", a.upload_end.get())
            .with("compute_energy_j", a.compute_energy.get())
            .with("compute_energy_at_max_j", a.compute_energy_at_max.get())
            .with("upload_energy_j", a.upload_energy.get())
            .with("exemplar", true)
            .end();
    }

    /// Renders the round as an ASCII Gantt chart (one row per device;
    /// `=` compute, `.` slack wait, `#` upload), reproducing the
    /// paper's Fig. 1 visually.
    pub fn gantt(&self, width: usize) -> String {
        let span = self.makespan().get();
        if span <= 0.0 || width == 0 {
            return String::new();
        }
        let scale = width as f64 / span;
        let mut out = String::new();
        for a in &self.activities {
            let compute = (a.compute_finish.get() * scale).round() as usize;
            let wait = (a.slack().get() * scale).round() as usize;
            let upload =
                ((a.upload_end.get() - a.upload_start.get()) * scale).round() as usize;
            out.push_str(&format!("{:>6} |", a.device.to_string()));
            out.push_str(&"=".repeat(compute));
            out.push_str(&".".repeat(wait));
            out.push_str(&"#".repeat(upload.max(1)));
            out.push('\n');
        }
        out.push_str(&format!(
            "        0{}{:.1}s\n",
            " ".repeat(width.saturating_sub(6)),
            span
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Uplink;
    use crate::cpu::DvfsCpu;
    use crate::units::{BitsPerSecond, Watts};

    fn device(id: usize, fmax_ghz: f64, samples: usize, mbps: f64) -> Device {
        let cpu =
            DvfsCpu::with_paper_alpha(Hertz::from_ghz(0.3), Hertz::from_ghz(fmax_ghz)).unwrap();
        let uplink = Uplink::new(Watts::new(0.2), BitsPerSecond::from_mbps(mbps)).unwrap();
        Device::new(DeviceId(id), cpu, 1.0e7, samples, uplink).unwrap()
    }

    fn payload() -> Bits {
        Bits::from_megabits(40.0)
    }

    #[test]
    fn empty_device_set_is_rejected() {
        assert!(matches!(
            RoundTimeline::simulate(&[], &[], payload()),
            Err(MecError::EmptyDeviceSet)
        ));
    }

    #[test]
    fn mismatched_frequencies_are_rejected() {
        let devs = [device(0, 2.0, 500, 8.0)];
        assert!(RoundTimeline::simulate(&devs, &[], payload()).is_err());
    }

    #[test]
    fn unsupported_frequency_is_rejected() {
        let devs = [device(0, 1.0, 500, 8.0)];
        assert!(RoundTimeline::simulate(&devs, &[Hertz::from_ghz(1.5)], payload()).is_err());
    }

    #[test]
    fn repeated_device_ids_are_rejected() {
        // Distinct devices sharing id 3: an id lookup would report the
        // first device's energy for both slots.
        let devs = [device(3, 2.0, 500, 8.0), device(3, 2.0, 600, 4.0)];
        assert_eq!(
            RoundTimeline::simulate_at_max(&devs, payload()),
            Err(MecError::DuplicateDevice { id: DeviceId(3) })
        );
    }

    #[test]
    fn single_device_round_is_compute_plus_upload() {
        let devs = [device(0, 2.0, 500, 8.0)];
        let tl = RoundTimeline::simulate_at_max(&devs, payload()).unwrap();
        // 2.5 s compute + 5 s upload.
        assert_eq!(tl.makespan(), Seconds::new(7.5));
        assert_eq!(tl.eq10_bound(), tl.makespan());
        assert_eq!(tl.total_slack(), Seconds::ZERO);
    }

    #[test]
    fn heterogeneous_round_serializes_uploads() {
        // Fast device: T_cal = 2.5 s; slow device: T_cal = 5e9/0.5e9 = 10 s.
        let devs = [device(0, 2.0, 500, 8.0), device(1, 0.5, 500, 8.0)];
        let tl = RoundTimeline::simulate_at_max(&devs, payload()).unwrap();
        let fast = tl.activity(DeviceId(0)).unwrap();
        let slow = tl.activity(DeviceId(1)).unwrap();
        assert_eq!(fast.upload_start, Seconds::new(2.5));
        assert_eq!(fast.upload_end, Seconds::new(7.5));
        // Slow device computes past the fast upload → starts at t=10.
        assert_eq!(slow.upload_start, Seconds::new(10.0));
        assert_eq!(tl.makespan(), Seconds::new(15.0));
        // Eq. 10 ignores contention: max(7.5, 15) = 15 here.
        assert_eq!(tl.eq10_bound(), Seconds::new(15.0));
    }

    #[test]
    fn slack_appears_when_compute_finishes_during_prior_upload() {
        // Both finish computing close together; uploads serialize.
        let devs = [device(0, 2.0, 500, 8.0), device(1, 2.0, 600, 8.0)];
        let tl = RoundTimeline::simulate_at_max(&devs, payload()).unwrap();
        let second = tl.activity(DeviceId(1)).unwrap();
        // Device 1 computes 3 s, waits until 7.5 s.
        assert_eq!(second.slack(), Seconds::new(4.5));
        assert!(tl.eq10_bound() < tl.makespan());
    }

    #[test]
    fn energy_accounts_compute_plus_upload_eq11() {
        let devs = [device(0, 2.0, 500, 8.0), device(1, 1.0, 500, 4.0)];
        let tl = RoundTimeline::simulate_at_max(&devs, payload()).unwrap();
        let manual: Joules = devs
            .iter()
            .map(|d| {
                d.compute_energy(d.cpu().range().max()).unwrap() + d.upload_energy(payload())
            })
            .sum();
        assert!((tl.total_energy().get() - manual.get()).abs() < 1e-12);
        assert!(tl.compute_energy() < tl.total_energy());
    }

    #[test]
    fn lower_frequency_cuts_energy_without_extending_round_when_slack_absorbs_it() {
        let devs = [device(0, 2.0, 500, 8.0), device(1, 2.0, 600, 8.0)];
        let at_max = RoundTimeline::simulate_at_max(&devs, payload()).unwrap();
        // Slow device 1 so it finishes exactly when device 0's upload ends
        // (t = 7.5 s): f = 6e9 cycles / 7.5 s = 0.8 GHz.
        let freqs = [Hertz::from_ghz(2.0), Hertz::from_ghz(0.8)];
        let tuned = RoundTimeline::simulate(&devs, &freqs, payload()).unwrap();
        assert_eq!(tuned.makespan(), at_max.makespan());
        assert!(tuned.total_energy() < at_max.total_energy());
        assert_eq!(tuned.activity(DeviceId(1)).unwrap().slack(), Seconds::ZERO);
    }

    #[test]
    fn gantt_renders_one_row_per_device() {
        let devs = [device(0, 2.0, 500, 8.0), device(1, 0.5, 500, 8.0)];
        let tl = RoundTimeline::simulate_at_max(&devs, payload()).unwrap();
        let g = tl.gantt(60);
        assert_eq!(g.lines().count(), 3); // 2 devices + axis
        assert!(g.contains("v0"));
        assert!(g.contains("v1"));
        assert!(g.contains('#'));
    }

    #[test]
    fn record_metrics_tallies_uploads_waits_and_energy() {
        let devs = [device(0, 2.0, 500, 8.0), device(1, 2.0, 600, 8.0)];
        let tl = RoundTimeline::simulate_at_max(&devs, payload()).unwrap();
        let mut registry = MetricsRegistry::new();
        tl.record_metrics(&mut registry);
        assert_eq!(registry.counter("tdma.uploads"), 2);
        let waits = registry.histogram("tdma.queue_wait_s").unwrap();
        assert_eq!(waits.count, 2);
        // Device 0 uploads immediately (zero wait → underflow tally);
        // device 1 waits 4.5 s.
        assert_eq!(waits.underflow, 1);
        assert_eq!(waits.max, 4.5);
        let energy = registry.histogram("device.energy_j").unwrap();
        assert_eq!(energy.count, 2);
        assert_eq!(
            registry.histogram("round.makespan_s").unwrap().max,
            tl.makespan().get()
        );
    }

    #[test]
    fn exemplar_sampling_is_deterministic_sorted_and_clamped() {
        let cfg = DigestConfig { exemplars: 3, seed: 99 };
        let a = sample_exemplars(10, cfg);
        let b = sample_exemplars(10, cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted distinct: {a:?}");
        assert!(a.iter().all(|&i| i < 10));
        // Different seed, different pick (with overwhelming probability
        // for this pinned seed pair).
        assert_ne!(a, sample_exemplars(10, DigestConfig { exemplars: 3, seed: 100 }));
        // Clamped to the cohort; zero exemplars is allowed.
        assert_eq!(sample_exemplars(2, cfg), vec![0, 1]);
        assert!(sample_exemplars(5, DigestConfig { exemplars: 0, seed: 1 }).is_empty());
    }

    #[test]
    fn trace_digest_into_emits_cohort_digest_and_exemplars() {
        use helcfl_telemetry::{analyze::Trace, MemorySink, Telemetry};
        let devs = [
            device(0, 2.0, 500, 8.0),
            device(1, 2.0, 600, 8.0),
            device(2, 0.5, 500, 8.0),
            device(3, 1.0, 400, 4.0),
        ];
        let tl = RoundTimeline::simulate_at_max(&devs, payload()).unwrap();
        let sink = MemorySink::new();
        let tele = Telemetry::with_sink(sink.clone());
        {
            let mut span = tele.span("timeline");
            tl.trace_digest_into(&mut span, DigestConfig { exemplars: 2, seed: 7 });
        }
        let text = sink.lines().join("\n");
        let trace = Trace::parse(&text).unwrap();

        let timeline = trace.spans.iter().find(|s| s.name == "timeline").unwrap();
        assert_eq!(timeline.attr_bool("digest"), Some(true));
        assert_eq!(timeline.attr_u64("uploads"), Some(4));

        let digest = trace.spans.iter().find(|s| s.name == "cohort_digest").unwrap();
        assert_eq!(digest.parent, Some(timeline.id));
        assert_eq!(digest.attr_u64("devices"), Some(4));
        assert_eq!(digest.attr_u64("exemplars"), Some(2));
        assert_eq!(digest.attr_f64("energy_sum_j"), Some(tl.total_energy().get()));
        assert_eq!(digest.attr_f64("slack_sum_s"), Some(tl.total_slack().get()));
        assert_eq!(digest.attr_f64("release_max_s"), Some(tl.makespan().get()));
        let energy_hist =
            Histogram::decode_compact(digest.attr_str("energy_hist").unwrap()).unwrap();
        assert_eq!(energy_hist.count, 4);
        let slack_hist =
            Histogram::decode_compact(digest.attr_str("slack_hist").unwrap()).unwrap();
        assert_eq!(slack_hist.count, 4);

        // Exactly K exemplar device_activity spans, each fully attributed
        // and tagged, values inside the digest extrema.
        let activities: Vec<_> =
            trace.spans.iter().filter(|s| s.name == "device_activity").collect();
        assert_eq!(activities.len(), 2);
        let emin = digest.attr_f64("energy_min_j").unwrap();
        let emax = digest.attr_f64("energy_max_j").unwrap();
        for a in &activities {
            assert_eq!(a.attr_bool("exemplar"), Some(true));
            let act = tl.activity(DeviceId(a.attr_u64("device_id").unwrap() as usize)).unwrap();
            assert_eq!(a.attr_f64("upload_end_s"), Some(act.upload_end.get()));
            let e = act.total_energy().get();
            assert!(e >= emin && e <= emax);
        }
        // Same config replays the same exemplar set.
        let sink2 = MemorySink::new();
        let tele2 = Telemetry::with_sink(sink2.clone());
        {
            let mut span = tele2.span("timeline");
            tl.trace_digest_into(&mut span, DigestConfig { exemplars: 2, seed: 7 });
        }
        let ids = |s: &MemorySink| {
            let text = s.lines().join("\n");
            let t = Trace::parse(&text).unwrap();
            t.spans
                .iter()
                .filter(|sp| sp.name == "device_activity")
                .map(|sp| sp.attr_u64("device_id").unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(&sink), ids(&sink2));
    }

    #[test]
    fn gantt_with_zero_width_is_empty() {
        let devs = [device(0, 2.0, 500, 8.0)];
        let tl = RoundTimeline::simulate_at_max(&devs, payload()).unwrap();
        assert!(tl.gantt(0).is_empty());
    }
}
