//! Spans recorded from the benchmark's side of the API surface.
//!
//! Nothing inside the program is instrumented: a span sits around an
//! opaque op, or around one public layer call of that op's replay.
//! Spans stay in memory until the run ends and are then written in
//! Chrome trace format.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::emit::Json;

#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`; the layer is the part before the first dot.
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    /// The op this span belongs to; an op and its replay share it.
    pub op: u64,
    /// True when the interval was not measured here but laid out from
    /// durations the program reported (the engine's phase timers).
    pub reported: bool,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Spans begun from now on belong to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            op: self.op,
            reported: false,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// A leaf span around one call.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Lays `phases` end to end inside the (closed) span `parent`, as
    /// children whose durations the program reported itself.
    pub fn reported_children(&mut self, parent: usize, phases: &[(&'static str, Duration)]) {
        let mut at = self.spans[parent].start;
        let limit = self.spans[parent].end;
        let op = self.spans[parent].op;
        for &(name, d) in phases {
            let end = (at + d).min(limit);
            self.spans.push(Span {
                name,
                start: at,
                end,
                parent: Some(parent),
                op,
                reported: true,
            });
            at = end;
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration());
            }
        }
        own
    }

    /// Self time per layer, summed over the descendants of every root
    /// span called `root` (the root's own self time is filed under
    /// `root` itself).
    pub fn layer_self_times(&self, root: &str) -> BTreeMap<String, Duration> {
        let own = self.self_times();
        let mut under_root = vec![false; self.spans.len()];
        let mut out: BTreeMap<String, Duration> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            // Parents are always recorded before their children.
            under_root[i] = match s.parent {
                None => s.name == root,
                Some(p) => under_root[p],
            };
            if under_root[i] {
                let layer = s.name.split('.').next().unwrap_or(s.name);
                *out.entry(layer.to_owned()).or_default() += own[i];
            }
        }
        out
    }

    /// Total duration of the root spans called `name`, and their count.
    pub fn root_total(&self, name: &str) -> (Duration, usize) {
        let roots = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name);
        roots.fold((Duration::ZERO, 0), |(d, n), s| (d + s.duration(), n + 1))
    }

    /// Chrome trace format: one complete ("X") event per span.
    pub fn chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::object(vec![
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("ts", Json::Num(s.start.as_secs_f64() * 1e6)),
                    ("dur", Json::Num(s.duration().as_secs_f64() * 1e6)),
                    (
                        "args",
                        Json::object(vec![
                            ("id", Json::Num(id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("op", Json::Num(s.op as f64)),
                            ("reported_by_program", Json::Bool(s.reported)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::object(vec![("traceEvents", Json::Array(events))]).render_lines()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new();
        let root = t.begin("replay");
        let a = t.begin("core.compare");
        std::thread::sleep(Duration::from_millis(2));
        t.end(a);
        t.span("io.read", || std::thread::sleep(Duration::from_millis(1)));
        t.end(root);
        let own = t.self_times();
        let total = t.spans()[root].duration();
        let children = t.spans()[a].duration() + t.spans()[2].duration();
        assert_eq!(own[root], total - children);
        let layers = t.layer_self_times("replay");
        let sum: Duration = layers.values().sum();
        assert_eq!(sum, total, "layer self times close over the root");
        assert!(layers["core"] >= Duration::from_millis(2));
        assert_eq!(t.root_total("replay"), (total, 1));
    }

    #[test]
    fn reported_children_stay_inside_their_parent() {
        let mut t = Tracer::new();
        let p = t.span_id_for_test();
        t.reported_children(
            p,
            &[
                ("merkle.bfs", Duration::from_micros(10)),
                ("core.verify", Duration::from_secs(10)),
            ],
        );
        let parent = t.spans()[p].clone();
        for s in &t.spans()[p + 1..] {
            assert!(s.reported && s.start >= parent.start && s.end <= parent.end);
        }
        assert!(t.chrome_json().contains("\"traceEvents\""));
    }

    impl Tracer {
        fn span_id_for_test(&mut self) -> usize {
            let id = self.begin("core.engine_compare");
            std::thread::sleep(Duration::from_millis(1));
            self.end(id);
            id
        }
    }
}
