//! Timing decorators for the trait-object seams `run_federated` already
//! takes: the client selector, the frequency policy and the telemetry
//! sink. Each forwards every call unchanged and only reads the clock.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fl_sim::frequency::FrequencyPolicy;
use fl_sim::selection::{ClientSelector, SelectionContext, SelectorSnapshot};
use helcfl_telemetry::{Event, MetricsRegistry, RunManifest, Sink, Telemetry};
use mec_sim::device::{Device, DeviceId};
use mec_sim::units::{Bits, Hertz};

/// Wraps a selector. Every `select` call marks a round boundary (the
/// runner selects exactly once per round) and records how long the call
/// took — two clock reads per round.
pub struct TimedSelector {
    inner: Box<dyn ClientSelector>,
    boundaries: Vec<Instant>,
    calls: Vec<Duration>,
}

impl TimedSelector {
    pub fn new(inner: Box<dyn ClientSelector>) -> Self {
        Self {
            inner,
            boundaries: Vec::new(),
            calls: Vec::new(),
        }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn ClientSelector) -> R) -> R {
        let t0 = Instant::now();
        self.boundaries.push(t0);
        let out = f(self.inner.as_mut());
        self.calls.push(t0.elapsed());
        out
    }

    /// Host time of each round: from one `select` call to the next, and
    /// for the last round up to `end` (when the run returned).
    pub fn round_durations(&self, end: Instant) -> Vec<Duration> {
        let mut out: Vec<Duration> = self.boundaries.windows(2).map(|w| w[1] - w[0]).collect();
        if let Some(&last) = self.boundaries.last() {
            out.push(end.saturating_duration_since(last));
        }
        out
    }

    /// Duration of each `select` call.
    pub fn call_durations(&self) -> &[Duration] {
        &self.calls
    }
}

impl ClientSelector for TimedSelector {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select(&mut self, ctx: &SelectionContext<'_>) -> fl_sim::Result<Vec<DeviceId>> {
        self.timed(|s| s.select(ctx))
    }

    fn select_traced(
        &mut self,
        ctx: &SelectionContext<'_>,
        tele: &Telemetry,
    ) -> fl_sim::Result<Vec<DeviceId>> {
        self.timed(|s| s.select_traced(ctx, tele))
    }

    fn on_delivery_failure(&mut self, failed: &[DeviceId]) {
        self.inner.on_delivery_failure(failed);
    }

    fn snapshot(&self) -> SelectorSnapshot {
        self.inner.snapshot()
    }

    fn restore(&mut self, snap: &SelectorSnapshot) -> fl_sim::Result<()> {
        self.inner.restore(snap)
    }
}

/// Wraps a frequency policy and accumulates its busy time.
pub struct TimedPolicy {
    inner: Box<dyn FrequencyPolicy>,
    busy: Cell<Duration>,
}

impl TimedPolicy {
    pub fn new(inner: Box<dyn FrequencyPolicy>) -> Self {
        Self {
            inner,
            busy: Cell::new(Duration::ZERO),
        }
    }

    pub fn busy(&self) -> Duration {
        self.busy.get()
    }

    fn timed<R>(&self, f: impl FnOnce(&dyn FrequencyPolicy) -> R) -> R {
        let t0 = Instant::now();
        let out = f(self.inner.as_ref());
        self.busy.set(self.busy.get() + t0.elapsed());
        out
    }
}

impl FrequencyPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn delay_neutral(&self) -> bool {
        self.inner.delay_neutral()
    }

    fn frequencies(&self, selected: &[Device], payload: Bits) -> fl_sim::Result<Vec<Hertz>> {
        self.timed(|p| p.frequencies(selected, payload))
    }

    fn frequencies_traced(
        &self,
        selected: &[Device],
        payload: Bits,
        tele: &Telemetry,
    ) -> fl_sim::Result<Vec<Hertz>> {
        self.timed(|p| p.frequencies_traced(selected, payload, tele))
    }
}

/// Counters a [`TimedSink`] shares with the benchmark after the sink
/// itself has moved into a [`Telemetry`] handle.
#[derive(Debug, Default)]
pub struct SinkStats {
    busy_ns: AtomicU64,
    lines: AtomicU64,
}

impl SinkStats {
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed))
    }

    /// Records handed to the sink: events, manifests and metrics lines.
    pub fn lines(&self) -> u64 {
        self.lines.load(Ordering::Relaxed)
    }
}

/// Wraps a sink; pool workers may emit concurrently, hence atomics.
pub struct TimedSink<S> {
    inner: S,
    stats: Arc<SinkStats>,
}

impl<S: Sink> TimedSink<S> {
    pub fn new(inner: S) -> (Self, Arc<SinkStats>) {
        let stats = Arc::new(SinkStats::default());
        (
            Self {
                inner,
                stats: Arc::clone(&stats),
            },
            stats,
        )
    }

    fn timed(&self, line: bool, f: impl FnOnce(&S)) {
        let t0 = Instant::now();
        f(&self.inner);
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stats.busy_ns.fetch_add(ns, Ordering::Relaxed);
        if line {
            self.stats.lines.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl<S: Sink> Sink for TimedSink<S> {
    fn emit(&self, event: &Event<'_>) {
        self.timed(true, |s| s.emit(event));
    }

    fn emit_manifest(&self, manifest: &RunManifest) {
        self.timed(true, |s| s.emit_manifest(manifest));
    }

    fn emit_metrics(&self, registry: &MetricsRegistry) {
        self.timed(true, |s| s.emit_metrics(registry));
    }

    fn flush(&self) {
        self.timed(false, S::flush);
    }

    fn flush_sync(&self) {
        self.timed(false, S::flush_sync);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::scheme_parts;
    use fl_sim::frequency::MaxFrequency;
    use fl_sim::runner::{run_federated, run_federated_traced};
    use helcfl::SlackFrequencyPolicy;
    use helcfl_bench::{PaperScenario, Scheme, Setting};
    use helcfl_telemetry::MemorySink;

    fn scenario() -> PaperScenario {
        PaperScenario {
            max_rounds: 6,
            ..PaperScenario::fast()
        }
    }

    #[test]
    fn decorated_selector_and_policy_leave_every_history_unchanged() {
        let scenario = scenario();
        let config = scenario.training_config();
        for scheme in Scheme::lineup().iter().filter(|s| **s != Scheme::Sl) {
            let mut plain_setup = scenario.setup(Setting::Iid).unwrap();
            let plain = scheme.run(&mut plain_setup, &config).unwrap();
            let (selector, policy) = scheme_parts(scheme, &config).unwrap().unwrap();
            let mut selector = TimedSelector::new(selector);
            let policy = TimedPolicy::new(policy);
            let mut setup = scenario.setup(Setting::Iid).unwrap();
            let decorated = run_federated(&mut setup, &config, &mut selector, &policy).unwrap();
            let end = Instant::now();
            assert_eq!(plain, decorated, "{}", scheme.label());
            assert_eq!(decorated.scheme(), scheme.label());
            assert_eq!(selector.round_durations(end).len(), config.max_rounds);
            assert_eq!(selector.call_durations().len(), config.max_rounds);
            assert!(policy.busy() > Duration::ZERO);
        }
    }

    #[test]
    fn policy_decorator_forwards_name_claim_and_output() {
        let devices = scenario().population().unwrap().devices().to_vec();
        let payload = Bits::from_megabits(40.0);
        for inner in [
            Box::new(MaxFrequency) as Box<dyn FrequencyPolicy>,
            Box::new(SlackFrequencyPolicy),
        ] {
            let (name, neutral) = (inner.name(), inner.delay_neutral());
            let want = inner.frequencies(&devices, payload).unwrap();
            let timed = TimedPolicy::new(inner);
            assert_eq!((timed.name(), timed.delay_neutral()), (name, neutral));
            assert_eq!(timed.frequencies(&devices, payload).unwrap(), want);
        }
    }

    #[test]
    fn sink_decorator_passes_every_line_through() {
        let scenario = scenario();
        let config = scenario.training_config();
        let run = |tele: &Telemetry| {
            let mut setup = scenario.setup(Setting::Iid).unwrap();
            let mut selector =
                helcfl::GreedyDecaySelector::new(helcfl::DecayCoefficient::new(0.5).unwrap());
            let h = run_federated_traced(&mut setup, &config, &mut selector, &MaxFrequency, tele)
                .unwrap();
            tele.finish();
            h
        };
        let plain_sink = MemorySink::new();
        let plain = run(&Telemetry::with_sink(plain_sink.clone()));
        let inner = MemorySink::new();
        let (timed, stats) = TimedSink::new(inner.clone());
        let decorated = run(&Telemetry::with_sink(timed));
        assert_eq!(plain, decorated);
        let strip = |lines: Vec<String>| -> Vec<String> {
            // Timestamps and runtime gauges differ between any two
            // runs; compare everything ahead of them.
            lines
                .iter()
                .map(|l| {
                    if l.starts_with("{\"type\":\"metrics\"") {
                        "metrics".to_string()
                    } else {
                        l.split(",\"t_us\"").next().unwrap_or(l).to_string()
                    }
                })
                .collect()
        };
        let (want, got) = (plain_sink.lines(), inner.lines());
        assert_eq!(want.len(), got.len());
        assert_eq!(strip(want), strip(got));
        assert_eq!(stats.lines(), inner.lines().len() as u64);
        assert!(stats.busy() > Duration::ZERO);
    }
}
