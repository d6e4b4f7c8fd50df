//! In-memory spans taken around the benchmark's own calls into the
//! workspace crates.
//!
//! A span has a name, a start, an end and the span that was open when it
//! began (its parent). Spans are kept in memory and summarised when the
//! run ends: a layer's self time is its total duration minus the part of
//! it that its child spans cover. A disabled tracer records nothing.

use std::cell::RefCell;
use std::time::Instant;

struct Span {
    name: &'static str,
    start: Instant,
    end: Option<Instant>,
    parent: Option<usize>,
}

/// Span recorder for the single thread that drives a workload.
pub struct Tracer {
    enabled: bool,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    idx: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(i) = self.idx {
            self.tracer.spans.borrow_mut()[i].end = Some(Instant::now());
            let popped = self.tracer.open.borrow_mut().pop();
            debug_assert_eq!(popped, Some(i), "spans close in LIFO order");
        }
    }
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone)]
pub struct LayerTotal {
    pub name: &'static str,
    pub calls: usize,
    pub total_s: f64,
    pub self_s: f64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span; it closes when the returned guard drops.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                idx: None,
            };
        }
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start: Instant::now(),
            end: None,
            parent,
        });
        let idx = spans.len() - 1;
        self.open.borrow_mut().push(idx);
        Guard {
            tracer: self,
            idx: Some(idx),
        }
    }

    /// Time `f` under a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _g = self.span(name);
        f()
    }

    /// Per-name totals and self times, in first-seen order.
    pub fn totals(&self) -> Vec<LayerTotal> {
        let spans = self.spans.borrow();
        let dur = |s: &Span| s.end.map_or(0.0, |e| (e - s.start).as_secs_f64());
        let mut child_time = vec![0.0_f64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_time[p] += dur(s);
            }
        }
        let mut out: Vec<LayerTotal> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            let d = dur(s);
            match out.iter_mut().find(|t| t.name == s.name) {
                Some(t) => {
                    t.calls += 1;
                    t.total_s += d;
                    t.self_s += d - child_time[i];
                }
                None => out.push(LayerTotal {
                    name: s.name,
                    calls: 1,
                    total_s: d,
                    self_s: d - child_time[i],
                }),
            }
        }
        out
    }

    /// Duration of the most recent closed span named `name` (0 if none).
    pub fn last(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .rev()
            .find(|s| s.name == name && s.end.is_some())
            .map_or(0.0, |s| (s.end.expect("closed") - s.start).as_secs_f64())
    }

    /// Print the span table on stderr.
    pub fn print(&self) {
        eprintln!(
            "{:<32} {:>8} {:>12} {:>12}",
            "span", "calls", "total_s", "self_s"
        );
        for t in self.totals() {
            eprintln!(
                "{:<32} {:>8} {:>12.6} {:>12.6}",
                t.name, t.calls, t.total_s, t.self_s
            );
        }
    }
}
