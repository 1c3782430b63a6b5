//! The suite's own span recorder: spans around the calls *into* the
//! program, recorded from outside it. Each rank buffers its spans in memory
//! and hands them back inside the job's output; the parent merges them into
//! one Chrome trace-event file and folds them into self times.

use crate::json::Json;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the run's epoch — an
/// `Instant` the parent takes before launching, which rank threads share
/// and forked ranks inherit (the monotonic clock is system-wide).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, plus one; 0 = root.
    pub parent: u64,
}

/// Wire shape of a span (tuples of primitives already cross processes).
pub type SpanTuple = (String, u64, u64, u64);

impl Span {
    pub fn to_tuple(&self) -> SpanTuple {
        (self.name.clone(), self.start_ns, self.end_ns, self.parent)
    }

    pub fn from_tuple(t: SpanTuple) -> Span {
        Span {
            name: t.0,
            start_ns: t.1,
            end_ns: t.2,
            parent: t.3,
        }
    }

    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Per-rank span buffer. Off, it only runs the closures it is given.
pub struct Recorder {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Option<Instant>) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span called `name` (a child of the innermost open
    /// span). The closure gets the recorder back so calls can nest.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let Some(epoch) = self.epoch else {
            return f(self);
        };
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().map_or(0, |&p| p as u64 + 1),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn finish(self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "span left open");
        self.spans
    }
}

/// Self time of every span name in one rank's spans: each span's duration
/// minus the part its direct children cover, summed by name, in first-seen
/// order.
pub fn self_times(spans: &[Span]) -> Vec<(String, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent > 0 {
            child_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
        }
    }
    let mut out: Vec<(String, f64)> = Vec::new();
    for (s, c) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(c) as f64 * 1e-9;
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += own,
            None => out.push((s.name.clone(), own)),
        }
    }
    out
}

/// Chrome trace-event document (`chrome://tracing`, Perfetto): one complete
/// ("X") event per span, `pid` = rep id, `tid` = rank (the launching parent
/// is `tid` = number of ranks), timestamps in microseconds.
pub fn chrome_trace(workload: &str, reps: &[Vec<Vec<Span>>]) -> Json {
    let mut events = Vec::new();
    for (rep, ranks) in reps.iter().enumerate() {
        for (rank, spans) in ranks.iter().enumerate() {
            for s in spans {
                events.push(Json::obj([
                    ("name", Json::str(s.name.as_str())),
                    ("cat", Json::str(workload)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Int(rep as u64)),
                    ("tid", Json::Int(rank as u64)),
                ]));
            }
        }
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: u64) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn off_recorder_records_nothing_but_runs_the_closure() {
        let mut r = Recorder::new(None);
        let v = r.span("a", |r| r.span("b", |_| 7));
        assert_eq!(v, 7);
        assert!(r.finish().is_empty());
    }

    #[test]
    fn nesting_sets_parents() {
        let mut r = Recorder::new(Some(Instant::now()));
        r.span("outer", |r| {
            r.span("in1", |_| ());
            r.span("in2", |r| r.span("leaf", |_| ()));
        });
        r.span("next", |_| ());
        let s = r.finish();
        let names: Vec<_> = s.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["outer", "in1", "in2", "leaf", "next"]);
        let parents: Vec<_> = s.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [0, 1, 1, 3, 0]);
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(s[0].end_ns >= s[3].end_ns);
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("body", 0, 1_000, 0),
            span("mult", 100, 400, 1),
            span("mult", 500, 900, 1),
            span("inner", 600, 700, 3),
        ];
        let st = self_times(&spans);
        assert_eq!(st.len(), 3);
        assert!((st[0].1 - 300e-9).abs() < 1e-15, "body self");
        assert!(
            (st[1].1 - 600e-9).abs() < 1e-15,
            "mult self: 300 + (400-100)"
        );
        assert!((st[2].1 - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn tuple_round_trip_and_chrome_shape() {
        let s = span("x", 5_000, 9_000, 2);
        assert_eq!(Span::from_tuple(s.to_tuple()), s);
        let doc = chrome_trace("w", &[vec![vec![s.clone()], vec![]]]);
        let ev = &doc.get("traceEvents").unwrap().as_arr().unwrap()[0];
        assert_eq!(ev.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(ev.get("ts").unwrap().as_f64(), Some(5.0));
        assert_eq!(ev.get("dur").unwrap().as_f64(), Some(4.0));
    }
}
