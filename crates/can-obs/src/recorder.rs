//! The [`Recorder`] handle: the one type instrumented code holds.
//!
//! A recorder is either **disabled** (the default — every call is a single
//! `None` branch and returns immediately, no allocation, no formatting) or
//! **enabled**, in which case it shares a [`Registry`] behind
//! `Rc<RefCell<…>>` so a simulator, its nodes and their agents can all
//! feed the same store without threading `&mut` through every layer.
//!
//! Recorders are deliberately `!Send`: in the parallel experiment engine a
//! fresh recorder is created *inside* each cell closure and its registry
//! (which is `Send`) is returned and merged in cell-index order — see
//! `bench::runner::ExperimentPlan::run_metered`.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use crate::registry::Registry;
use crate::trace::TraceRecord;

/// Cheap, clonable handle to a shared metrics registry; a disabled
/// recorder is a `None` and every operation on it is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Recorder(Option<Rc<RefCell<Registry>>>);

impl Recorder {
    /// The no-op recorder. All operations return immediately; label
    /// formatting guarded by [`Recorder::is_enabled`] is never reached.
    pub fn disabled() -> Self {
        Recorder(None)
    }

    /// A live recorder over a fresh registry.
    pub fn enabled() -> Self {
        Recorder(Some(Rc::new(RefCell::new(Registry::new()))))
    }

    /// A live recorder whose trace sink retains at most `capacity`
    /// records (the default is `registry::TRACE_CAPACITY`).
    pub fn with_trace_capacity(capacity: usize) -> Self {
        Recorder(Some(Rc::new(RefCell::new(Registry::with_trace_capacity(
            capacity,
        )))))
    }

    /// Whether this recorder actually records. Instrumentation sites use
    /// this to skip metric-key formatting on the disabled path:
    ///
    /// ```
    /// # use can_obs::Recorder;
    /// # let rec = Recorder::disabled();
    /// # let node = 3;
    /// if rec.is_enabled() {
    ///     rec.add(&format!("can_node_tec{{node=\"{node}\"}}"), 1);
    /// }
    /// ```
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Increments the counter `key` by one.
    #[inline]
    pub fn inc(&self, key: &str) {
        self.add(key, 1);
    }

    /// Adds `delta` to the counter `key`.
    #[inline]
    pub fn add(&self, key: &str, delta: u64) {
        if let Some(reg) = &self.0 {
            reg.borrow_mut().add(key, delta);
        }
    }

    /// Sets the gauge `key`.
    #[inline]
    pub fn set_gauge(&self, key: &str, value: i64) {
        if let Some(reg) = &self.0 {
            reg.borrow_mut().set_gauge(key, value);
        }
    }

    /// Records `value` into the histogram `key` with the default buckets.
    #[inline]
    pub fn observe(&self, key: &str, value: u64) {
        self.observe_with(key, crate::registry::DEFAULT_BUCKETS, value);
    }

    /// Records `value` into the histogram `key`, creating it with `bounds`
    /// on first use.
    #[inline]
    pub fn observe_with(&self, key: &str, bounds: &[u64], value: u64) {
        if let Some(reg) = &self.0 {
            reg.borrow_mut().observe(key, bounds, value);
        }
    }

    /// Records `n` observations of `value` into the histogram `key` with
    /// the default buckets — the same snapshot as `n` calls of
    /// [`Recorder::observe`], in one registry update (`n = 0` records
    /// nothing).
    #[inline]
    pub fn observe_n(&self, key: &str, value: u64, n: u64) {
        if let Some(reg) = &self.0 {
            reg.borrow_mut()
                .observe_n(key, crate::registry::DEFAULT_BUCKETS, value, n);
        }
    }

    /// Registers an empty histogram so it appears in snapshots even with
    /// zero observations (stable schema across runs).
    #[inline]
    pub fn declare_histogram(&self, key: &str, bounds: &[u64]) {
        if let Some(reg) = &self.0 {
            reg.borrow_mut().declare_histogram(key, bounds);
        }
    }

    /// Appends a structured trace record.
    #[inline]
    pub fn trace(&self, at_bits: u64, node: u32, event: &str, detail: &str) {
        if let Some(reg) = &self.0 {
            reg.borrow_mut()
                .push_trace(TraceRecord::new(at_bits, node, event, detail));
        }
    }

    /// Starts a wall-clock span; the guard records elapsed nanoseconds
    /// into the registry's span stats when dropped. On a disabled recorder
    /// the guard holds nothing and drop is free.
    #[inline]
    pub fn span(&self, name: &str) -> SpanGuard {
        match &self.0 {
            Some(reg) => SpanGuard {
                inner: Some((Rc::clone(reg), name.to_string(), Instant::now())),
            },
            None => SpanGuard { inner: None },
        }
    }

    /// Merges an already-collected registry (e.g. from a finished
    /// experiment cell) into this recorder's registry. No-op when disabled.
    pub fn merge_registry(&self, other: &Registry) {
        if let Some(reg) = &self.0 {
            reg.borrow_mut().merge(other);
        }
    }

    /// Runs `f` against the underlying registry, if enabled.
    pub fn with_registry<T>(&self, f: impl FnOnce(&Registry) -> T) -> Option<T> {
        self.0.as_ref().map(|reg| f(&reg.borrow()))
    }

    /// Consumes the recorder and returns its registry (empty when
    /// disabled). If other clones are still alive, the registry is copied
    /// out instead of moved.
    pub fn into_registry(self) -> Registry {
        match self.0 {
            Some(reg) => {
                Rc::try_unwrap(reg).map_or_else(|rc| rc.borrow().clone(), RefCell::into_inner)
            }
            None => Registry::new(),
        }
    }

    /// Renders the deterministic JSON snapshot (`{}`-ish empty document
    /// when disabled).
    pub fn snapshot_json(&self) -> String {
        match &self.0 {
            Some(reg) => reg.borrow().snapshot_json(),
            None => Registry::new().snapshot_json(),
        }
    }

    /// Renders the Prometheus text exposition (empty when disabled).
    pub fn prometheus_text(&self) -> String {
        match &self.0 {
            Some(reg) => reg.borrow().prometheus_text(),
            None => String::new(),
        }
    }
}

/// RAII guard returned by [`Recorder::span`]; records the span's wall
/// duration when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<(Rc<RefCell<Registry>>, String, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((reg, name, started)) = self.inner.take() {
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            reg.borrow_mut().record_span(&name, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.inc("a_total");
        rec.add("a_total", 41);
        rec.set_gauge("g", 7);
        rec.observe("h_bits", 12);
        rec.trace(1, 0, "detection", "x");
        drop(rec.span("wall"));
        assert!(rec.with_registry(|_| ()).is_none());
        assert!(rec.into_registry().is_empty());
    }

    #[test]
    fn enabled_recorder_shares_one_registry_across_clones() {
        let rec = Recorder::enabled();
        let clone = rec.clone();
        rec.inc("hits_total");
        clone.add("hits_total", 2);
        let reg = rec.into_registry(); // clone still alive → copied out
        assert_eq!(reg.counter("hits_total"), 3);
        assert_eq!(clone.into_registry().counter("hits_total"), 3);
    }

    #[test]
    fn span_guard_records_on_drop() {
        let rec = Recorder::enabled();
        {
            let _guard = rec.span("unit_wall");
        }
        let stats = rec.with_registry(|r| r.span_stats("unit_wall")).unwrap();
        assert_eq!(stats.unwrap().count, 1);
    }

    #[test]
    fn merge_registry_folds_external_results_in() {
        let cell = Recorder::enabled();
        cell.inc("cell_total");
        let collected = cell.into_registry();

        let root = Recorder::enabled();
        root.inc("cell_total");
        root.merge_registry(&collected);
        assert_eq!(root.into_registry().counter("cell_total"), 2);
    }

    #[test]
    fn configurable_trace_capacity_bounds_the_sink() {
        let rec = Recorder::with_trace_capacity(1);
        rec.trace(1, 0, "detection", "a");
        rec.trace(2, 0, "detection", "b");
        let reg = rec.into_registry();
        assert_eq!(reg.trace_capacity(), 1);
        assert_eq!(reg.traces().len(), 1);
        assert_eq!(reg.traces_dropped()["detection"], 1);
    }

    #[test]
    fn observe_n_equals_n_single_observations() {
        // (value, n): in-bucket, repeated, n = 0 on a fresh key and on a
        // live one, the overflow bucket, and a saturating sum.
        let samples = [
            ("a_bits", 9, 5),
            ("a_bits", 0, 3),
            ("a_bits", 9, 1),
            ("a_bits", 4, 0),
            ("never_bits", 7, 0),
            ("a_bits", 1 << 40, 2),
            ("big_bits", u64::MAX / 2, 3),
        ];
        let weighted = Recorder::enabled();
        let repeated = Recorder::enabled();
        for &(key, value, n) in &samples {
            weighted.observe_n(key, value, n);
            for _ in 0..n {
                repeated.observe(key, value);
            }
        }
        assert_eq!(weighted.snapshot_json(), repeated.snapshot_json());
        assert_eq!(weighted.prometheus_text(), repeated.prometheus_text());
        let reg = weighted.into_registry();
        assert!(
            reg.histogram("never_bits").is_none(),
            "n = 0 creates nothing"
        );
        let a = reg.histogram("a_bits").unwrap();
        assert_eq!(a.count(), 11);
        assert_eq!(*a.bucket_counts().last().unwrap(), 2, "overflow bucket");
        assert_eq!(reg.histogram("big_bits").unwrap().sum(), u64::MAX);
        Recorder::disabled().observe_n("a_bits", 1, 1);
    }

    #[test]
    fn disabled_snapshot_is_the_empty_document() {
        let rec = Recorder::disabled();
        let json = rec.snapshot_json();
        assert!(json.contains("\"schema\": \"can-obs/v1\""));
        assert_eq!(rec.prometheus_text(), "");
    }
}
