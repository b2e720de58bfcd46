//! Host-time spans around the calls into each layer of the stack.
//!
//! A span's self time is its duration minus the time its child spans
//! cover. Spans fold into per-name totals as they close, so a long run
//! keeps state proportional to the nesting depth, not to the call count.

use std::collections::BTreeMap;
use std::time::Instant;

/// Per-name span self times and counters, plus per-phase operation
/// counts. Off, every method is a no-op and [`Tracer::span`] only runs
/// its body.
pub struct Tracer {
    on: bool,
    /// Open spans: start time and the seconds their closed children took.
    open: Vec<(Instant, f64)>,
    totals: BTreeMap<&'static str, f64>,
    ops: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            open: Vec::new(),
            totals: BTreeMap::new(),
            ops: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `body` inside a span named `name` and adds the span's self
    /// time to that name's total.
    pub fn span<R>(&mut self, name: &'static str, body: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return body(self);
        }
        self.open.push((Instant::now(), 0.0));
        let out = body(self);
        let (start, children) = self.open.pop().expect("the span opened above");
        let secs = start.elapsed().as_secs_f64();
        self.add(name, secs - children);
        if let Some(parent) = self.open.last_mut() {
            parent.1 += secs;
        }
        out
    }

    /// Adds `value` to the total of `name`: a counter, or seconds the
    /// program timed itself.
    pub fn add(&mut self, name: &'static str, value: f64) {
        if self.on {
            *self.totals.entry(name).or_default() += value;
        }
    }

    /// Counts one operation of `phase`.
    pub fn op(&mut self, phase: &'static str) {
        if self.on {
            *self.ops.entry(phase).or_default() += 1;
        }
    }

    /// The total of `name` per operation of its phase, which is the part
    /// of the name before the first dot.
    pub fn per_op(&self, name: &str) -> f64 {
        let phase = name.split('.').next().unwrap_or(name);
        let ops = self.ops.get(phase).copied().unwrap_or(0).max(1);
        self.totals.get(name).copied().unwrap_or(0.0) / ops as f64
    }
}
