//! A std-only observability substrate for the arbitrage stack.
//!
//! Everything the paper's empirical claims rest on — screen discharge
//! rates, incremental-refresh latencies, ingest coalescing ratios —
//! is exported through this crate:
//!
//! * [`Registry`] — hierarchical names → atomic counters, gauges, and
//!   log-linear latency histograms (p50/p90/p99/max with no allocation
//!   on the record path);
//! * [`SpanTimer`]/[`Span`] — RAII tracing spans with a per-thread
//!   depth stack, so one tick yields a complete latency breakdown
//!   (`ingest.seal → engine.refresh → serve.publish`);
//! * [`FlightRecorder`] — a fixed-size lock-free ring of recent span
//!   and mark events, snapshotted on demand or from a panic hook and
//!   dumped as JSON-lines for post-mortem;
//! * [`export`] — Prometheus-text and JSON-lines encoders over a
//!   registry snapshot.
//!
//! [`Obs`] bundles a registry and a flight recorder into the single
//! cheap-to-clone handle the runtime crates thread through their
//! `set_obs` hooks. With no `Obs` attached the instrumented
//! code paths cost one branch.
//!
//! # One owner per series
//!
//! The registry holds only *registry-native* series: span histograms,
//! flight marks, and the few counters nothing else keeps (`bot.steps`,
//! `chaos.*`, `health.*`, `journal.*`). Counters the layers already
//! keep in plain stats structs (`engine.*`, `runtime.*`, `ingest.*`,
//! `serve.*`) are never copied in: each owner renders its struct into
//! a [`RegistrySnapshot`] when someone reads it
//! ([`RegistrySnapshot::insert`]), so a series equals its struct at
//! every snapshot and resets when the struct does. A bare
//! [`Obs::snapshot`] therefore shows registry-native series only; the
//! bots' `metrics_snapshot()` merges in every layer they own.
//!
//! ```
//! use arb_obs::Obs;
//!
//! let obs = Obs::default();
//! let tick = obs.span("runtime.tick");
//! let steps = obs.registry().counter("bot.steps");
//! for n in 0..3u64 {
//!     let _tick = tick.start();
//!     steps.inc();
//!     obs.marker("ingest.tick").mark(n);
//! }
//! let snap = obs.registry().snapshot();
//! assert_eq!(snap.counter("bot.steps"), Some(3));
//! assert_eq!(snap.histogram("runtime.tick").unwrap().count, 3);
//! // Export either way:
//! assert!(arb_obs::export::prometheus_text(&snap).contains("bot_steps 3"));
//! assert!(arb_obs::export::json_lines(&snap).contains("\"metric\":\"runtime.tick\""));
//! // Post-mortem ring: 3 spans + 3 marks.
//! assert_eq!(obs.flight().snapshot().len(), 6);
//! ```

pub mod export;
pub mod flight;
pub mod registry;
pub mod span;

use std::io::Write;
use std::path::{Path, PathBuf};

pub use flight::{EventKind, FlightEvent, FlightRecorder};
pub use registry::{
    bucket_bounds, bucket_width, Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, NameId,
    Registry, RegistrySnapshot,
};
pub use span::{Span, SpanTimer};

/// File name panic-hook dumps are written under
/// (see [`install_panic_hook`]).
pub const FLIGHT_DUMP_FILE: &str = "flight-recorder.jsonl";

/// Observability tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsOptions {
    /// Flight-recorder ring capacity in events (rounded up to a power
    /// of two).
    pub flight_capacity: usize,
}

impl Default for ObsOptions {
    fn default() -> Self {
        ObsOptions {
            flight_capacity: 4096,
        }
    }
}

/// The bundled observability handle: one registry plus one flight
/// recorder. Clones share both; this is what the runtime crates accept
/// in their `set_obs` hooks.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    registry: Registry,
    flight: FlightRecorder,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(ObsOptions::default().flight_capacity)
    }
}

impl Obs {
    /// A fresh registry + flight recorder.
    #[must_use]
    pub fn new(options: ObsOptions) -> Self {
        Obs {
            registry: Registry::new(),
            flight: FlightRecorder::new(options.flight_capacity),
        }
    }

    /// The shared registry.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The shared flight recorder.
    #[must_use]
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Resolves a span timer: a histogram under `name` plus flight
    /// recording. Resolve once per call site and reuse.
    #[must_use]
    pub fn span(&self, name: &str) -> SpanTimer {
        SpanTimer::new(
            self.registry.intern(name),
            self.registry.histogram(name),
            Some(self.flight.clone()),
        )
    }

    /// Resolves a marker for point events under `name`.
    #[must_use]
    pub fn marker(&self, name: &str) -> Marker {
        Marker {
            name: self.registry.intern(name),
            flight: self.flight.clone(),
        }
    }

    /// A point-in-time view of every registered instrument — the
    /// registry-native series only (see the crate docs); export it with
    /// [`export::prometheus_text`] or [`export::json_lines`].
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }

    /// The flight-recorder ring as JSON-lines.
    #[must_use]
    pub fn dump_flight(&self) -> String {
        self.flight.dump_jsonl(&self.registry)
    }

    /// Writes the flight-recorder ring to `path` as JSON-lines.
    ///
    /// # Errors
    ///
    /// Propagates file creation/write failures.
    pub fn dump_flight_to(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.dump_flight().as_bytes())?;
        file.flush()
    }
}

/// A resolved point-event instrument (see [`Obs::marker`]).
#[derive(Debug, Clone)]
pub struct Marker {
    name: NameId,
    flight: FlightRecorder,
}

impl Marker {
    /// Records a point event carrying `value` into the flight ring.
    pub fn mark(&self, value: u64) {
        self.flight.mark(self.name, value);
    }
}

/// Installs a process-wide panic hook that dumps `obs`'s flight
/// recorder to `dir/`[`FLIGHT_DUMP_FILE`] before delegating to the
/// previously installed hook. Install once per recorder; repeated
/// installs chain (each dumps its own recorder).
pub fn install_panic_hook(obs: &Obs, dir: &Path) {
    let obs = obs.clone();
    let path: PathBuf = dir.join(FLIGHT_DUMP_FILE);
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let _ = obs.dump_flight_to(&path);
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_bundles_registry_and_flight() {
        let obs = Obs::new(ObsOptions {
            flight_capacity: 32,
        });
        let timer = obs.span("x.y_ns");
        drop(timer.start());
        obs.marker("x.tick").mark(9);
        assert_eq!(obs.snapshot().histogram("x.y_ns").unwrap().count, 1);
        let dump = obs.dump_flight();
        assert!(dump.contains("\"name\":\"x.y_ns\""));
        assert!(dump.contains("\"name\":\"x.tick\""));
        assert!(dump.contains("\"value\":9"));
    }

    #[test]
    fn dump_flight_to_writes_the_file() {
        let dir = std::env::temp_dir().join(format!(
            "arb-obs-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let obs = Obs::default();
        obs.marker("t").mark(1);
        let path = dir.join(FLIGHT_DUMP_FILE);
        obs.dump_flight_to(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"name\":\"t\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
