//! The [`SimObserver`] → `escalate-obs` adapter: turns the simulation
//! core's event stream into counters and histograms.
//!
//! [`ObsObserver`] follows the batch-locally/flush-coarsely rule of the
//! metrics layer: per-position and per-slice events (millions per model)
//! fold into plain local fields — no lock, no allocation — and reach the
//! shared [`Registry`] in one flush when the observer drops. Layer-level
//! stats flush immediately in [`SimObserver::on_layer`], because they
//! arrive once per layer.
//!
//! # Recorded metrics
//!
//! Counters (engine-visible totals — these reconcile exactly with the
//! [`crate::stats::ModelStats`] a run returns, because they are flushed
//! from the very [`LayerStats`] values the caller receives):
//!
//! - `sim.layers` — layers simulated (fallback layers included);
//! - `sim.fallback_layers` — layers that ran on the dense fallback path;
//! - `sim.cycles`, `sim.mac_ops`, `sim.ca_adds`, `sim.gather_passes`,
//!   `sim.mac_idle_cycles` — sums of the per-layer fields;
//! - `sim.dram_bytes`, `sim.sram_bytes` — total traffic.
//!
//! Counters (sampled-walk internals, from per-position events):
//!
//! - `sim.positions_walked` — (channel, position) pairs actually walked;
//! - `sim.ca_adds_sampled` — matched pairs accumulated during the walk
//!   (pre-extrapolation);
//! - `sim.ca_skip_positions` — walked positions the sparse mechanism
//!   skipped entirely (no coefficient matched any streamed activation);
//! - `sim.buffer_stall_cycles` — cycles the detailed fidelity's streaming
//!   front end stalled on full concentration buffers (buffer conflicts);
//! - `sim.slices_stepped` — cycle-stepped (channel, slice) runs;
//! - `ca.plan_compiles` / `ca.plan_reuses` — channel × position walks
//!   executed (each sampled channel bound once) vs served from the walk
//!   cache (from per-walk aggregates; stable names that `perfbench`'s
//!   `sim.plan_reuse_rate` reads, see DESIGN.md §6).
//!
//! Histograms: `sim.position_ca_cycles` (CA cycles per walked position)
//! and `sim.layer_cycles` (cycles per layer).

use crate::context::{PositionAggregate, PositionEvent, SimObserver, SliceEvent};
use crate::stats::LayerStats;
use escalate_obs::{Histogram, Registry};
use std::sync::Arc;

/// A [`SimObserver`] that aggregates the event stream into an
/// `escalate-obs` [`Registry`].
///
/// Create one per simulation run (or per layer — flushes add up). The
/// per-event accumulation is allocation-free; the registry is touched
/// once per layer plus once on drop.
#[derive(Debug)]
pub struct ObsObserver {
    registry: Arc<Registry>,
    positions: u64,
    matched: u64,
    skip_positions: u64,
    stall_cycles: u64,
    slices: u64,
    plan_compiles: u64,
    plan_reuses: u64,
    ca_cycles: Histogram,
}

impl ObsObserver {
    /// An observer recording into `registry`.
    pub fn new(registry: Arc<Registry>) -> Self {
        ObsObserver {
            registry,
            positions: 0,
            matched: 0,
            skip_positions: 0,
            stall_cycles: 0,
            slices: 0,
            plan_compiles: 0,
            plan_reuses: 0,
            ca_cycles: Histogram::new(),
        }
    }

    /// An observer bound to the process-global registry, or `None` when
    /// no recorder is installed (the caller should then use
    /// [`crate::context::NoopObserver`], which costs nothing).
    pub fn from_global() -> Option<ObsObserver> {
        escalate_obs::global().map(ObsObserver::new)
    }

    /// Flushes the locally-accumulated event counters to the registry.
    /// Called automatically on drop; idempotent in between (flushed
    /// values reset to zero).
    pub fn flush(&mut self) {
        let reg = &self.registry;
        for (name, v) in [
            ("sim.positions_walked", &mut self.positions),
            ("sim.ca_adds_sampled", &mut self.matched),
            ("sim.ca_skip_positions", &mut self.skip_positions),
            ("sim.buffer_stall_cycles", &mut self.stall_cycles),
            ("sim.slices_stepped", &mut self.slices),
            ("ca.plan_compiles", &mut self.plan_compiles),
            ("ca.plan_reuses", &mut self.plan_reuses),
        ] {
            if *v > 0 {
                reg.counter_add(name, *v);
                *v = 0;
            }
        }
        reg.merge_histogram("sim.position_ca_cycles", &self.ca_cycles);
        self.ca_cycles = Histogram::new();
    }
}

impl SimObserver for ObsObserver {
    fn on_position(&mut self, ev: &PositionEvent) {
        self.positions += 1;
        self.matched += ev.cost.matched;
        if ev.cost.matched == 0 {
            self.skip_positions += 1;
        }
        self.ca_cycles.observe(ev.cost.ca_cycles);
    }

    fn on_slice(&mut self, ev: &SliceEvent) {
        self.slices += 1;
        self.stall_cycles += ev.trace.stream_stall_cycles;
    }

    fn on_walk(&mut self, agg: &PositionAggregate) {
        // One walk per (layer, seed): batch locally like the per-position
        // events and flush with them.
        self.plan_compiles += agg.plan_compiles;
        self.plan_reuses += agg.plan_reuses;
    }

    fn on_layer(&mut self, stats: &LayerStats) {
        let reg = &self.registry;
        reg.counter_add("sim.layers", 1);
        if stats.fallback {
            reg.counter_add("sim.fallback_layers", 1);
        }
        reg.counter_add("sim.cycles", stats.cycles);
        reg.counter_add("sim.mac_ops", stats.mac_ops);
        reg.counter_add("sim.ca_adds", stats.ca_adds);
        reg.counter_add("sim.gather_passes", stats.gather_passes);
        reg.counter_add("sim.mac_idle_cycles", stats.mac_idle_cycles);
        reg.counter_add("sim.dram_bytes", stats.dram.total());
        reg.counter_add("sim.sram_bytes", stats.sram.total());
        reg.observe("sim.layer_cycles", stats.cycles);
    }
}

impl Drop for ObsObserver {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::PositionCost;
    use crate::stats::DramTraffic;

    fn cost(matched: u64, ca_cycles: u64) -> PositionCost {
        PositionCost {
            ca_cycles,
            matched,
            gather_passes: 1,
            stream_cycles: 1,
        }
    }

    #[test]
    fn position_events_batch_and_flush_on_drop() {
        let reg = Arc::new(Registry::new());
        {
            let mut obs = ObsObserver::new(Arc::clone(&reg));
            for (m, c) in [(3, 5), (0, 1), (2, 4)] {
                obs.on_position(&PositionEvent {
                    channel: 0,
                    position: 0,
                    cost: &cost(m, c),
                    mac_row_cycles: c,
                });
            }
            // Nothing reaches the registry before the flush.
            assert_eq!(reg.counter("sim.positions_walked"), 0);
        }
        assert_eq!(reg.counter("sim.positions_walked"), 3);
        assert_eq!(reg.counter("sim.ca_adds_sampled"), 5);
        assert_eq!(reg.counter("sim.ca_skip_positions"), 1);
        let snap = reg.snapshot();
        assert_eq!(snap.histograms["sim.position_ca_cycles"].count(), 3);
        assert_eq!(snap.histograms["sim.position_ca_cycles"].sum(), 10);
    }

    #[test]
    fn flush_is_idempotent() {
        let reg = Arc::new(Registry::new());
        let mut obs = ObsObserver::new(Arc::clone(&reg));
        obs.on_position(&PositionEvent {
            channel: 0,
            position: 0,
            cost: &cost(1, 2),
            mac_row_cycles: 2,
        });
        obs.flush();
        obs.flush();
        drop(obs);
        assert_eq!(reg.counter("sim.positions_walked"), 1);
        assert_eq!(reg.counter("sim.ca_adds_sampled"), 1);
    }

    #[test]
    fn layer_stats_flush_immediately() {
        let reg = Arc::new(Registry::new());
        let mut obs = ObsObserver::new(Arc::clone(&reg));
        let stats = LayerStats {
            name: "l".into(),
            cycles: 100,
            mac_ops: 40,
            ca_adds: 7,
            fallback: true,
            dram: DramTraffic {
                weights: 1,
                ifm: 2,
                ofm: 3,
            },
            ..LayerStats::default()
        };
        obs.on_layer(&stats);
        assert_eq!(reg.counter("sim.layers"), 1);
        assert_eq!(reg.counter("sim.fallback_layers"), 1);
        assert_eq!(reg.counter("sim.cycles"), 100);
        assert_eq!(reg.counter("sim.mac_ops"), 40);
        assert_eq!(reg.counter("sim.ca_adds"), 7);
        assert_eq!(reg.counter("sim.dram_bytes"), 6);
    }
}
