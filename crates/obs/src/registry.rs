//! The metrics registry: hierarchical names to lock-cheap instruments.
//!
//! Registration (name lookup, allocation) takes a mutex; the **record
//! path never does** — counters and gauges are a single atomic RMW,
//! histograms are three (bucket, sum, max). Handles are `Arc`-backed
//! and cheap to clone, so call sites resolve their instruments once and
//! hold them.
//!
//! Names are hierarchical dotted paths (`engine.refresh.eval_ns`): the
//! first segment is the subsystem (`ingest`, `engine`, `runtime`,
//! `serve`, `journal`, `bot`), the last segment carries the unit suffix
//! (`_ns` for nanosecond histograms, bare for counts).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Interned metric/span name id, as stored in flight-recorder events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NameId(pub u32);

/// A monotone counter.
///
/// ```
/// let reg = arb_obs::Registry::new();
/// let c = reg.counter("ingest.events_in");
/// c.add(3);
/// c.inc();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    fn new() -> Self {
        Counter {
            cell: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge holding an `f64`.
///
/// ```
/// let reg = arb_obs::Registry::new();
/// let g = reg.gauge("ingest.coalesce_ratio");
/// g.set(0.25);
/// assert!((g.get() - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    fn new() -> Self {
        Gauge {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }

    /// Stores a new value.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Sub-bucket resolution: 2^3 = 8 log-linear sub-buckets per octave,
/// so one bucket spans at most 1/8th of its value (12.5% relative
/// width).
const SUB_BITS: u32 = 3;
const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Total buckets covering the full `u64` range: values below
/// [`SUB_BUCKETS`] get exact unit buckets, every octave above
/// contributes [`SUB_BUCKETS`] more. Max shift is `63 - SUB_BITS`.
pub(crate) const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + SUB_BUCKETS as usize;

/// Bucket index for `value`: unit buckets below [`SUB_BUCKETS`], then
/// log-linear (top `SUB_BITS + 1` bits select the bucket).
#[inline]
fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let high = 63 - value.leading_zeros();
    let shift = high - SUB_BITS;
    (((shift as u64) << SUB_BITS) + (value >> shift)) as usize
}

/// Inclusive `[low, high]` value range covered by bucket `index`.
#[must_use]
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    let index = index as u64;
    if index < SUB_BUCKETS {
        return (index, index);
    }
    let shift = (index >> SUB_BITS) - 1;
    let top = index - (shift << SUB_BITS);
    // `low | (width - 1)` rather than `(top + 1) << shift` — the top
    // octave's upper bound is `u64::MAX` and the naive form overflows.
    (top << shift, (top << shift) | ((1 << shift) - 1))
}

/// The worst-case quantile error at `value`: the width of the bucket
/// `value` lands in.
#[must_use]
pub fn bucket_width(value: u64) -> u64 {
    let (low, high) = bucket_bounds(bucket_index(value));
    high - low + 1
}

/// A log-linear latency histogram: allocation-free, lock-free record
/// path (one `fetch_add` per bucket, plus `sum` and `max`), ≤12.5%
/// relative bucket width, full `u64` range.
///
/// ```
/// let reg = arb_obs::Registry::new();
/// let h = reg.histogram("engine.refresh.eval_ns");
/// for v in [10, 20, 30, 40, 1_000] {
///     h.record(v);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 5);
/// assert_eq!(snap.max, 1_000);
/// assert!(snap.quantile(0.5) >= 20);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

#[derive(Debug)]
struct HistogramCore {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        let mut buckets = Vec::with_capacity(NUM_BUCKETS);
        buckets.resize_with(NUM_BUCKETS, || AtomicU64::new(0));
        Histogram {
            core: Arc::new(HistogramCore {
                buckets,
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation. No allocation, no locks.
    #[inline]
    pub fn record(&self, value: u64) {
        self.core.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(value, Ordering::Relaxed);
        self.core.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts and aggregates.
    ///
    /// Concurrent recording keeps every count (each lands in exactly
    /// one bucket), though a snapshot racing a writer may see the
    /// bucket increment without the `sum` update or vice versa.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = counts.iter().sum();
        HistogramSnapshot {
            count,
            sum: self.core.sum.load(Ordering::Relaxed),
            max: self.core.max.load(Ordering::Relaxed),
            counts,
        }
    }
}

/// A point-in-time histogram view; quantiles are computed here, off the
/// record path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Per-bucket counts (see [`bucket_bounds`] for the value ranges).
    pub counts: Vec<u64>,
}

impl HistogramSnapshot {
    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// first bucket whose cumulative count reaches `ceil(q * count)`,
    /// clamped to the observed max. Within one bucket width of the
    /// exact quantile.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bounds(index).1.min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`HistogramSnapshot::quantile`]).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean of all observations (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One registered instrument.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A point-in-time value of one registered instrument.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram aggregate.
    Histogram(HistogramSnapshot),
}

/// A point-in-time view of every registered instrument, sorted by
/// name. Feed it to [`crate::export::prometheus_text`] or
/// [`crate::export::json_lines`].
///
/// Owners of plain stats structs render them into a snapshot at read
/// time with [`RegistrySnapshot::insert`], so a counter kept in a
/// struct has one copy and the exported view reads it.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// `(name, value)` pairs in ascending name order.
    pub entries: Vec<(String, MetricValue)>,
}

impl RegistrySnapshot {
    /// Adds one series, keeping the entries sorted by name. Each name
    /// has exactly one owner: inserting a name already present is a
    /// bug in the caller (debug builds assert).
    pub fn insert(&mut self, name: impl Into<String>, value: MetricValue) {
        let name = name.into();
        let at = self
            .entries
            .partition_point(|(existing, _)| existing.as_str() < name.as_str());
        debug_assert!(
            self.entries
                .get(at)
                .is_none_or(|(existing, _)| *existing != name),
            "obs series {name:?} rendered twice"
        );
        self.entries.insert(at, (name, value));
    }

    /// The counter registered under `name`, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Counter(c) if n == name => Some(*c),
            _ => None,
        })
    }

    /// The gauge registered under `name`, if present.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Gauge(g) if n == name => Some(*g),
            _ => None,
        })
    }

    /// The histogram registered under `name`, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Histogram(h) if n == name => Some(h),
            _ => None,
        })
    }
}

#[derive(Debug, Default)]
struct NameTable {
    names: Vec<String>,
    ids: BTreeMap<String, u32>,
}

/// The shared registry. Clones are handles to the same instrument set.
///
/// ```
/// let reg = arb_obs::Registry::new();
/// reg.counter("bot.ticks").add(7);
/// let snap = reg.snapshot();
/// assert_eq!(snap.counter("bot.ticks"), Some(7));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    metrics: Mutex<BTreeMap<String, Metric>>,
    names: Mutex<NameTable>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = self.inner.metrics.lock().expect("obs registry poisoned");
        if let Some(existing) = metrics.get(name) {
            return existing.clone();
        }
        let metric = make();
        metrics.insert(name.to_string(), metric.clone());
        metric
    }

    /// The counter registered under `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("obs metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// The gauge registered under `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            other => panic!("obs metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// The histogram registered under `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            other => panic!("obs metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// Interns `name` for compact reference from flight-recorder
    /// events. Idempotent.
    #[must_use]
    pub fn intern(&self, name: &str) -> NameId {
        let mut table = self.inner.names.lock().expect("obs name table poisoned");
        if let Some(&id) = table.ids.get(name) {
            return NameId(id);
        }
        let id = u32::try_from(table.names.len()).expect("obs name table overflow");
        table.names.push(name.to_string());
        table.ids.insert(name.to_string(), id);
        NameId(id)
    }

    /// Resolves an interned id back to its name.
    #[must_use]
    pub fn name_of(&self, id: NameId) -> Option<String> {
        let table = self.inner.names.lock().expect("obs name table poisoned");
        table.names.get(id.0 as usize).cloned()
    }

    /// A point-in-time view of every instrument, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        let metrics = self.inner.metrics.lock().expect("obs registry poisoned");
        RegistrySnapshot {
            entries: metrics
                .iter()
                .map(|(name, metric)| {
                    let value = match metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        let mut last = 0usize;
        for v in 0u64..4096 {
            let idx = bucket_index(v);
            assert!(idx >= last, "index regressed at {v}");
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "bounds miss {v}: [{lo}, {hi}]");
            last = idx;
        }
    }

    #[test]
    fn bucket_index_covers_u64_extremes() {
        for v in [u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) + 1] {
            let idx = bucket_index(v);
            assert!(idx < NUM_BUCKETS);
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi);
        }
    }

    #[test]
    fn relative_bucket_width_is_bounded() {
        for v in [100u64, 1_000, 10_000, 1_000_000, 1 << 40] {
            let width = bucket_width(v);
            assert!(
                (width as f64) <= (v as f64) / 8.0 + 1.0,
                "width {width} too wide at {v}"
            );
        }
    }

    #[test]
    fn histogram_aggregates() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.sum, 5050);
        assert_eq!(snap.max, 100);
        let p50 = snap.p50();
        assert!((44..=56).contains(&p50), "p50 = {p50}");
        assert_eq!(snap.quantile(1.0), 100);
    }

    #[test]
    fn registry_dedupes_and_snapshots() {
        let reg = Registry::new();
        reg.counter("a.b").add(2);
        reg.counter("a.b").add(3);
        reg.gauge("a.g").set(1.5);
        reg.histogram("a.h").record(9);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a.b"), Some(5));
        assert_eq!(snap.gauge("a.g"), Some(1.5));
        assert_eq!(snap.histogram("a.h").map(|h| h.count), Some(1));
        let names: Vec<&str> = snap.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.b", "a.g", "a.h"]);
    }

    #[test]
    fn insert_keeps_names_sorted() {
        let reg = Registry::new();
        reg.counter("b.native").inc();
        let mut snap = reg.snapshot();
        snap.insert("c.owned", MetricValue::Gauge(0.5));
        snap.insert("a.owned", MetricValue::Counter(7));
        let names: Vec<&str> = snap.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.owned", "b.native", "c.owned"]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "rendered twice")]
    fn insert_rejects_a_second_owner() {
        let reg = Registry::new();
        reg.counter("a.b").inc();
        let mut snap = reg.snapshot();
        snap.insert("a.b", MetricValue::Counter(1));
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("x");
        let _ = reg.gauge("x");
    }

    #[test]
    fn intern_is_stable() {
        let reg = Registry::new();
        let a = reg.intern("one");
        let b = reg.intern("two");
        assert_eq!(reg.intern("one"), a);
        assert_ne!(a, b);
        assert_eq!(reg.name_of(a).as_deref(), Some("one"));
        assert_eq!(reg.name_of(NameId(99)), None);
    }
}
