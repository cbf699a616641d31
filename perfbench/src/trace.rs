//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public functions. Nothing inside the program is instrumented:
//! a span covers one call from the outside, and a layer's self time is
//! its span's duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// Most a root's spans may disagree with the root's own duration, as a
/// share of it, before the trace counts as inconsistent. Properly nested,
/// non-overlapping spans agree exactly; the slack only absorbs rounding.
pub const NESTING_TOLERANCE: f64 = 1e-3;

/// Most of all root time that may be glue — root self time not covered
/// by any layer span — before the trace no longer explains where the
/// time went.
pub const GLUE_TOLERANCE: f64 = 0.25;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Shared by every span of one round, one query, or one run.
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder. Threads each keep their own and the
/// caller merges them; a shared epoch keeps their clocks comparable.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record<T>(&mut self, name: &str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records a root span; its children share `id`.
    pub fn root<T>(&mut self, name: &str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        assert!(
            self.open.is_empty(),
            "root span '{name}' opened inside another span"
        );
        self.record(name, id, f)
    }

    /// Records a child of the innermost open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let parent = *self.open.last().expect("child span opened outside a root");
        let id = self.spans[parent].id;
        self.record(name, id, f)
    }

    /// Spans recorded so far, in start order per thread.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Drops every span from index `len` on (a root whose call turned out
    /// to be no unit of work, such as the call that finds a crawl over).
    pub fn truncate(&mut self, len: usize) {
        assert!(self.open.is_empty(), "truncating inside an open span");
        self.spans.truncate(len);
    }

    /// Appends another tracer's spans, re-basing their parent links.
    pub fn merge(&mut self, other: Tracer) {
        assert!(
            self.open.is_empty() && other.open.is_empty(),
            "merging open spans"
        );
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut cursor) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per span name: summed self time and call count.
#[derive(Debug, Default)]
pub struct Breakdown {
    pub self_ns: BTreeMap<String, u64>,
    pub calls: BTreeMap<String, u64>,
    /// Summed inclusive time of root spans, per root name.
    pub root_ns: BTreeMap<String, u64>,
}

impl Breakdown {
    pub fn of(spans: &[Span]) -> Breakdown {
        let selfs = self_times(spans);
        let mut out = Breakdown::default();
        for (s, own) in spans.iter().zip(selfs) {
            *out.self_ns.entry(s.name.clone()).or_default() += own;
            *out.calls.entry(s.name.clone()).or_default() += 1;
            if s.parent.is_none() {
                *out.root_ns.entry(s.name.clone()).or_default() += s.dur_ns();
            }
        }
        out
    }

    /// Summed self time of `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Summed self time of every span whose name starts with `prefix`, in ms.
    pub fn prefix_self_ms(&self, prefix: &str) -> f64 {
        self.self_ns
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, &ns)| ns as f64 / 1e6)
            .sum()
    }

    /// Mean self time per call of `name`, in microseconds.
    pub fn mean_self_us(&self, name: &str) -> f64 {
        match self.calls.get(name) {
            Some(&n) if n > 0 => self.self_ns[name] as f64 / 1e3 / n as f64,
            _ => 0.0,
        }
    }

    /// Summed inclusive time of the root spans named `name`, in ms.
    pub fn root_ms(&self, name: &str) -> f64 {
        self.root_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }
}

/// Outcome of [`check_consistency`].
#[derive(Debug)]
pub struct Consistency {
    pub roots: usize,
    /// Roots whose spans do not add up to the root's duration.
    pub bad_roots: usize,
    /// Root self time over root time, summed over all roots.
    pub glue_frac: f64,
}

impl Consistency {
    pub fn ok(&self) -> bool {
        self.roots > 0 && self.bad_roots == 0 && self.glue_frac <= GLUE_TOLERANCE
    }
}

/// For every root, the self times of all spans under it plus its own
/// glue must add up to its duration within [`NESTING_TOLERANCE`]; that
/// holds exactly when children nest inside their parents and siblings do
/// not overlap. Every span must also carry its root's id.
pub fn check_consistency(spans: &[Span]) -> Consistency {
    let selfs = self_times(spans);
    let mut root_of = vec![0usize; spans.len()];
    let mut tree_self = vec![0u64; spans.len()];
    let mut bad_ids = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        let root = match s.parent {
            None => i,
            Some(p) => root_of[p],
        };
        root_of[i] = root;
        tree_self[root] += selfs[i];
        bad_ids[root] |= s.id != spans[root].id;
    }
    let (mut roots, mut bad_roots, mut glue, mut total) = (0usize, 0usize, 0u64, 0u64);
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
        roots += 1;
        let dur = s.dur_ns();
        let gap = tree_self[i].abs_diff(dur) as f64;
        if bad_ids[i] || gap > NESTING_TOLERANCE * dur as f64 + 1.0 {
            bad_roots += 1;
        }
        glue += selfs[i];
        total += dur;
    }
    let glue_frac = if total == 0 {
        0.0
    } else {
        glue as f64 / total as f64
    };
    Consistency {
        roots,
        bad_roots,
        glue_frac,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, id: u64, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name: name.into(),
            id,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 1, None, 0, 100),
            span("a", 1, Some(0), 10, 40),
            span("b", 1, Some(0), 50, 90),
            span("a.inner", 1, Some(1), 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
        let c = check_consistency(&spans);
        assert_eq!((c.roots, c.bad_roots), (1, 0));
        assert!((c.glue_frac - 0.3).abs() < 1e-12);
        let b = Breakdown::of(&spans);
        assert_eq!(b.self_ns["a"], 20);
        assert_eq!(b.root_ns["root"], 100);
    }

    #[test]
    fn overlapping_or_escaping_children_fail_the_check() {
        let overlapping = vec![
            span("root", 1, None, 0, 100),
            span("a", 1, Some(0), 10, 60),
            span("b", 1, Some(0), 50, 90),
        ];
        assert_eq!(check_consistency(&overlapping).bad_roots, 1);
        let escaping = vec![
            span("root", 1, None, 0, 100),
            span("a", 1, Some(0), 90, 130),
        ];
        assert_eq!(check_consistency(&escaping).bad_roots, 1);
        let foreign_id = vec![span("root", 1, None, 0, 100), span("a", 2, Some(0), 10, 20)];
        assert_eq!(check_consistency(&foreign_id).bad_roots, 1);
    }

    #[test]
    fn recorded_spans_nest_and_merge() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        let v = t.root("round", 7, |t| {
            t.span("crawl", |t| t.span("fetch", |_| 3)) + 1
        });
        assert_eq!(v, 4);
        let mut other = Tracer::new(epoch);
        other.root("query", 9, |t| t.span("parse", |_| ()));
        t.merge(other);
        let spans = t.spans();
        assert_eq!(spans.len(), 5);
        assert!(spans[..3].iter().all(|s| s.id == 7));
        assert_eq!(spans[4].parent, Some(3));
        assert_eq!(spans[4].id, 9);
        let c = check_consistency(spans);
        assert_eq!((c.roots, c.bad_roots), (2, 0));
        let before = t.len();
        t.root("round", 8, |_| ());
        t.truncate(before);
        assert_eq!(t.len(), 5);
    }
}
