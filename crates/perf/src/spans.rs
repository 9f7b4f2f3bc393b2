//! In-memory spans recorded by the harness around its calls into a layer.
//!
//! The traced pass opens a span at every layer boundary it crosses (a
//! `FlowMachine::step`, a checkpoint capture, a replayed operator call).
//! Spans stay in memory and are written as JSONL once, at exit, so
//! recording costs two `Instant::now()` calls and a `Vec::push`.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Which run of the traced pass the span belongs to; spans of one run
    /// share it.
    pub run: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span collector with a stack of open spans.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Starts a new run; spans recorded from here on carry its id.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records `f` as a span named `name`, nested in whichever span is
    /// open, and returns the span's index with `f`'s result.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> (usize, R) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (id, r)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds of the span at `id`.
    pub fn seconds(&self, id: usize) -> f64 {
        self.spans[id].seconds()
    }

    /// Total seconds of the direct children of `parent` named `name`, and
    /// how many there are.
    pub fn child_total(&self, parent: usize, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + s.seconds(), n + 1))
    }

    /// Durations in seconds of the direct children of `parent` named `name`.
    pub fn child_durations(&self, parent: usize, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                crate::json::quote(&s.name),
                s.start_ns,
                s.end_ns,
                s.run
            )?;
        }
        w.flush()
    }
}

/// Self time of every span in nanoseconds: its duration minus the part of
/// its interval that its direct children cover. Children are clipped to
/// the parent and overlapping children are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            run: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("flow", 0, 100, None),
            span("gp", 10, 60, Some(0)),
            span("lg", 60, 70, Some(0)),
            span("wl", 20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 40, 10, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("p", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 160, Some(0)),
            // Starts before and ends after the parent: clipped to it.
            span("c", 190, 260, Some(0)),
            span("d", 120, 130, Some(0)),
        ];
        // Covered: [110,160) = 50 and [190,200) = 10.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn recorder_nests_scopes_and_sums_children() {
        let mut rec = Recorder::new();
        rec.next_run();
        let (root, _) = rec.scope("flow", |rec| {
            rec.scope("step", |_| ());
            rec.scope("step", |rec| {
                rec.scope("inner", |_| ());
            });
            rec.scope("other", |_| ());
        });
        let s = rec.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[1].parent, Some(root));
        assert_eq!(s[3].parent, Some(2));
        assert!(s.iter().all(|x| x.run == 1 && x.end_ns >= x.start_ns));
        assert_eq!(rec.child_total(root, "step").1, 2);
        assert_eq!(rec.child_durations(root, "other").len(), 1);
        let own = self_times_ns(s);
        assert!(own[root] <= s[root].end_ns - s[root].start_ns);
    }
}
