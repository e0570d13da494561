//! What one pass measured: wall-time samples of the calls a workload makes
//! into the program, workload totals, and (on a traced pass) the spans
//! and counters the per-layer metrics are read from.

use crate::layers::SpanTimes;
use copra_simtime::SimInstant;
use copra_trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// Collects one pass's measurements. Every pass times its end-to-end
/// steps with [`Probe::step`]; a traced pass also times each layer call
/// with [`Probe::call`] and records a span around it.
pub struct Probe {
    tracer: Tracer,
    traced: bool,
    next_key: u64,
    /// Wall samples per name, in nanoseconds.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Workload totals per name (files, requests, inodes, ns spent, ...).
    pub totals: BTreeMap<&'static str, f64>,
}

impl Probe {
    pub fn new(tracer: Tracer) -> Self {
        let traced = tracer.is_armed();
        Probe { tracer, traced, next_key: 0, samples: BTreeMap::new(), totals: BTreeMap::new() }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    /// End the trace of a traced pass: its spans reduced to self times.
    /// The probe lets go of the span store, so a run holds one pass's
    /// spans at a time.
    pub fn finish_trace(&mut self) -> Option<SpanTimes> {
        let report = self.tracer.report();
        self.tracer = Tracer::disabled();
        report.map(|r| SpanTimes::of(&r))
    }

    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Time an end-to-end step on every pass; returns its result and its
    /// wall nanoseconds, which the caller files where the step belongs.
    pub fn step<R>(f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = Instant::now();
        let r = f();
        (r, t0.elapsed().as_nanos() as f64)
    }

    /// Time a call into one layer. Untraced passes just make the call; a
    /// traced pass records its wall duration under `name` and a root span
    /// of the same name around it.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(t0) = self.tracer.wall_now_ns() else {
            return f();
        };
        let r = f();
        let t1 = self.tracer.wall_now_ns().expect("tracer stays armed");
        self.next_key += 1;
        self.tracer.record_span(
            None,
            name,
            self.next_key,
            SimInstant::EPOCH,
            SimInstant::EPOCH,
            t0,
            t1,
        );
        self.push(name, (t1 - t0) as f64);
        r
    }

    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.totals.entry(name).or_default() += value;
    }

    pub fn total(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }
}
