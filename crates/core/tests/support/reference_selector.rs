//! Test oracle: Alg. 2 in its literal full-rescan form.
//!
//! Every round it re-scores every selectable user by Eq. 20 (delays
//! derived afresh from the context), sorts by utility descending then
//! id ascending, and takes the top N. The production
//! `helcfl::GreedyDecaySelector` must reproduce its picks, counters,
//! snapshots and selection telemetry exactly. Include it with
//! `#[path = ".../support/reference_selector.rs"] mod reference_selector;`.

#![allow(dead_code)]

use fl_sim::selection::{ClientSelector, SelectionContext, SelectorSnapshot};
use helcfl::utility::{utility, AppearanceCounters, DecayCoefficient};
use helcfl_telemetry::{Class, Telemetry};
use mec_sim::device::DeviceId;

/// Full-rescan Alg. 2 selector (scheme name `"helcfl"`, like the
/// production selector, so histories compare byte for byte).
#[derive(Debug, Clone, Default)]
pub struct ReferenceSelector {
    eta: DecayCoefficient,
    counters: AppearanceCounters,
}

impl ReferenceSelector {
    pub fn new(eta: DecayCoefficient) -> Self {
        Self { eta, counters: AppearanceCounters::default() }
    }

    pub fn counters(&self) -> &AppearanceCounters {
        &self.counters
    }
}

impl ClientSelector for ReferenceSelector {
    fn name(&self) -> &'static str {
        "helcfl"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>) -> fl_sim::Result<Vec<DeviceId>> {
        self.select_traced(ctx, &Telemetry::disabled())
    }

    fn select_traced(
        &mut self,
        ctx: &SelectionContext<'_>,
        tele: &Telemetry,
    ) -> fl_sim::Result<Vec<DeviceId>> {
        let max_id = ctx.devices.ids().map(|id| id.0).max().ok_or_else(|| {
            fl_sim::FlError::InvalidSelection { reason: "no devices to select".into() }
        })?;
        self.counters.grow_to(max_id + 1);
        let n = ctx.target.min(ctx.devices.len()).max(1);
        let mut scored: Vec<(DeviceId, f64)> = ctx
            .devices
            .iter()
            .map(|d| {
                let delay = ctx.total_delay_at_max(&d);
                (d.id(), utility(self.eta, self.counters.get(d.id().0), delay))
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
        let selected: Vec<DeviceId> = scored.iter().take(n).map(|&(id, _)| id).collect();
        for id in &selected {
            if tele.is_enabled() {
                let alpha = self.eta.get().powi(self.counters.get(id.0) as i32);
                tele.record(Class::Sim, "selection.alpha", alpha);
            }
            self.counters.increment(id.0);
        }
        if tele.is_enabled() {
            tele.with_metrics(|m| {
                m.counter_add(Class::Sim, "selection.rounds", 1);
                m.counter_add(Class::Sim, "selection.selected", selected.len() as u64);
                m.gauge_set(Class::Sim, "selection.coverage", self.counters.coverage() as f64);
            });
        }
        Ok(selected)
    }

    fn on_delivery_failure(&mut self, failed: &[DeviceId]) {
        for id in failed {
            if id.0 < self.counters.len() {
                self.counters.decrement(id.0);
            }
        }
    }

    fn snapshot(&self) -> SelectorSnapshot {
        SelectorSnapshot {
            counters_len: self.counters.len(),
            counters: self.counters.to_sparse(),
            rng_state: None,
        }
    }

    fn restore(&mut self, snap: &SelectorSnapshot) -> fl_sim::Result<()> {
        self.counters = AppearanceCounters::from_sparse(snap.counters_len, &snap.counters);
        Ok(())
    }
}
