//! The benchmark's own spans: name, start, end, the span that caused it,
//! and the request it belongs to. They are recorded in the benchmark's
//! files, around the calls into each layer; spans inside the program are
//! a later change. Everything stays in memory until the run ends.
//!
//! A span's self time is its duration minus the part of its interval that
//! its child spans cover. Children of one parent may overlap (two client
//! threads under the `timed` phase), so coverage is the union of the
//! children's intervals clipped to the parent, not their sum.

use std::time::Instant;

use crate::json::{obj, Json};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same table.
    pub parent: Option<usize>,
    /// Shared by every span of one request.
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Single-threaded recorder for the phases of a run. Client threads time
/// their requests against [`Recorder::epoch`] themselves; those spans are
/// joined to the table when the trace file is written.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The instant `now_ns` counts from, for threads that time on their own.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request: None,
        });
        self.open.push(id);
        id
    }

    /// Closes `id` (and anything left open inside it); returns its seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
        self.spans[id].duration_ns() as f64 / 1e9
    }

    /// Times `f` as a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span in `spans`, in table order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per span name: how many, total time, total self time (name order).
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(selfs) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.duration_ns();
                r.3 += own;
            }
            None => rows.push((s.name, 1, s.duration_ns(), own)),
        }
    }
    rows.sort_by_key(|r| r.0);
    rows
}

/// The span table as JSON, one array per span to keep the file small:
/// `[name, start_ns, end_ns, parent|null, request|null]`.
pub fn to_json(spans: &[Span]) -> Json {
    let opt = |v: Option<u64>| v.map_or(Json::Null, |n| Json::Num(n as f64));
    obj(vec![
        (
            "columns",
            Json::Arr(
                ["name", "start_ns", "end_ns", "parent", "request"]
                    .iter()
                    .map(|c| Json::Str((*c).into()))
                    .collect(),
            ),
        ),
        (
            "rows",
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        Json::Arr(vec![
                            Json::Str(s.name.into()),
                            Json::Num(s.start_ns as f64),
                            Json::Num(s.end_ns as f64),
                            opt(s.parent.map(|p| p as u64)),
                            opt(s.request),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("b.inner", 45, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 25, 5]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped_to_the_parent() {
        let spans = vec![
            span("timed", 100, 200, None),
            // two client threads busy at the same time
            span("request", 110, 150, Some(0)),
            span("request", 130, 170, Some(0)),
            // contained in an earlier sibling
            span("request", 135, 140, Some(0)),
            // sticks out of the parent on both sides
            span("request", 190, 260, Some(0)),
            span("request", 50, 105, Some(0)),
        ];
        // covered: [100,105] + [110,170] + [190,200] = 75
        assert_eq!(self_times(&spans)[0], 25);
        let rows = by_name(&spans);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "request");
        assert_eq!(rows[0].1, 5);
        assert_eq!(rows[1], ("timed", 1, 100, 25));
    }

    #[test]
    fn recorder_nests_by_open_order() {
        let mut r = Recorder::new();
        let inner_parent = r.time("outer", |r| {
            let id = r.enter("inner");
            r.exit(id);
            r.spans()[id].parent
        });
        assert_eq!(inner_parent, Some(0));
        assert_eq!(r.spans()[0].parent, None);
        assert!(r.spans()[0].end_ns >= r.spans()[1].end_ns);
    }
}
