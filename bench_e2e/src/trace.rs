//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions; nothing under `crates/` is
//! instrumented. Each span is {name, start, end, parent, op id}; all of
//! them stay in memory until the run ends and are then written to
//! `bench_e2e/out/trace_<workload>.json`.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::{obj, Value};
use crate::stats::median;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one operation (one apply, one request) share an id.
    pub op: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record `f` as one closed span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, op);
        let r = f();
        self.end(id);
        r
    }

    /// Durations (µs) of every span called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Median duration (µs) of the spans called `name`; 0 when there are
    /// none.
    pub fn median_us(&self, name: &str) -> f64 {
        median(&self.durations_us(name))
    }

    /// Self time (ns) of every span: its duration minus the part of its
    /// interval that its direct children cover. Overlapping children
    /// count once and a child is clipped to its parent's interval.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if b > a {
                    children[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Write every span to `<out dir>/trace_<workload>.json`.
    pub fn save(&self, workload: &str, seed: u64) -> Result<(), String> {
        let path = crate::out_dir().join(format!("trace_{workload}.json"));
        self.write_json(&path, workload, seed).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let selfs = self.self_times_ns();
        writeln!(
            w,
            "{{\"workload\":{},\"seed\":{seed},\"unit\":\"ns\",\"spans\":[",
            Value::from(workload).render()
        )?;
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let row = obj([
                ("id", Value::Num(i as f64)),
                ("name", s.name.into()),
                ("start", Value::Num(s.start_ns as f64)),
                ("end", Value::Num(s.end_ns as f64)),
                ("self", Value::Num(*self_ns as f64)),
                ("parent", s.parent.map_or(Value::Null, |p| Value::Num(p as f64))),
                ("op", Value::Num(s.op as f64)),
            ]);
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(w, "{}{sep}", row.render())?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::new();
        for &(name, start_ns, end_ns, parent) in spans {
            t.spans.push(Span { name, start_ns, end_ns, parent, op: 0 });
        }
        t
    }

    #[test]
    fn self_time_subtracts_sibling_children() {
        let t = tracer_with(&[
            ("apply", 0, 100, None),
            ("pad", 5, 15, Some(0)),
            ("fft", 15, 45, Some(0)),
            ("gemv", 50, 90, Some(0)),
        ]);
        assert_eq!(t.self_times_ns(), vec![20, 10, 30, 40]);
    }

    #[test]
    fn self_time_counts_only_direct_children_of_nested_spans() {
        let t = tracer_with(&[
            ("request", 0, 1000, None),
            ("apply", 100, 900, Some(0)),
            ("gemv", 200, 700, Some(1)),
            ("tile", 300, 400, Some(2)),
        ]);
        // request: 1000 − 800; apply: 800 − 500; gemv: 500 − 100.
        assert_eq!(t.self_times_ns(), vec![200, 300, 400, 100]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let t = tracer_with(&[
            ("window", 100, 200, None),
            ("a", 110, 150, Some(0)),
            ("b", 140, 170, Some(0)),    // overlaps a by 10
            ("late", 190, 260, Some(0)), // hangs over the parent's end
        ]);
        // Covered: [110,170) ∪ [190,200) = 70.
        assert_eq!(t.self_times_ns()[0], 30);
    }

    #[test]
    fn medians_group_by_name() {
        let t = tracer_with(&[
            ("fft", 0, 3000, None),
            ("fft", 0, 1000, None),
            ("fft", 0, 2000, None),
            ("pad", 0, 500, None),
        ]);
        assert_eq!(t.median_us("fft"), 2.0);
        assert_eq!(t.median_us("pad"), 0.5);
        assert_eq!(t.median_us("absent"), 0.0);
    }

    #[test]
    fn live_spans_nest_and_close() {
        let mut t = Tracer::new();
        let root = t.begin("op", None, 7);
        let inner = t.span("inner", Some(root), 7, || 41 + 1);
        t.end(root);
        assert_eq!(inner, 42);
        let s = &t.spans;
        assert_eq!((s[1].parent, s[1].op), (Some(0), 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
