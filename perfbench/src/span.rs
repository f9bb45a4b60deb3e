//! The traced run's span recorder.
//!
//! A span is a named interval around one call into a layer of the
//! program, with a parent (the span open when it started) and the id of
//! the operation it belongs to. Spans live in a per-thread buffer that is
//! empty and inert until [`start`] turns recording on: an untraced run
//! pays one thread-local flag test per [`span`] call and records nothing.
//! [`finish`] hands the buffer back for analysis and for writing out.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since recording started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `json.parse`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<usize>,
    /// Operation the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration, ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Begin recording on this thread (dropping anything recorded before).
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        })
    });
}

/// Stop recording and return every span, in start order.
pub fn finish() -> Vec<Span> {
    REC.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Stamp subsequent spans with operation id `op`.
pub fn set_op(op: u64) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.op = op;
        }
    });
}

/// Run `f` inside a span named `name` (just run it when not recording).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let idx = REC.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut()?;
        let idx = rec.spans.len();
        let start = rec.origin.elapsed().as_nanos() as u64;
        let parent = rec.open.last().copied();
        rec.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op: rec.op,
        });
        rec.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx].end = rec.origin.elapsed().as_nanos() as u64;
                rec.open.pop();
            }
        });
    }
    out
}

/// Run `f` with recording suspended on this thread.
pub fn untraced<T>(f: impl FnOnce() -> T) -> T {
    let rec = REC.with(|r| r.borrow_mut().take());
    let out = f();
    REC.with(|r| *r.borrow_mut() = rec);
    out
}

/// Per-name totals over a span buffer.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// Number of spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children), ns.
    pub self_ns: u64,
}

/// Fold a buffer into per-name totals.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, c) in spans.iter().zip(&child_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur();
        t.self_ns += s.dur().saturating_sub(*c);
    }
    out
}

/// Check that every span under a root named `root` lies inside its
/// parent and starts no earlier than its previous sibling ends, and return
/// the summed duration of those roots (ns). Once this holds no self time
/// is negative, so the per-layer self times of a tree account for its
/// root's duration without double counting.
pub fn check_nesting(spans: &[Span], root: &str) -> Result<u64, String> {
    let mut root_of = vec![0usize; spans.len()];
    // Where the next child of each span may start at the earliest.
    let mut free_from: Vec<u64> = spans.iter().map(|s| s.start).collect();
    let mut roots = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if s.end < s.start {
            return Err(format!("span {i} `{}` ends before it starts", s.name));
        }
        let Some(p) = s.parent else {
            root_of[i] = i;
            if s.name == root {
                roots += s.dur();
            }
            continue;
        };
        // Parents precede children in start order.
        if p >= i {
            return Err(format!("span {i} `{}` precedes its parent {p}", s.name));
        }
        root_of[i] = root_of[p];
        if spans[root_of[i]].name != root {
            continue;
        }
        if s.start < free_from[p] || s.end > spans[p].end {
            return Err(format!(
                "span {i} `{}` [{}, {}] is not inside `{}` [{}, {}] after its previous sibling",
                s.name, s.start, s.end, spans[p].name, spans[p].start, spans[p].end
            ));
        }
        free_from[p] = s.end;
    }
    Ok(roots)
}

/// Write a buffer as tab-separated `op parent name start_ns end_ns`
/// lines (parent `-` for a root).
pub fn write_tsv(out: &mut impl Write, spans: &[Span]) -> io::Result<()> {
    writeln!(out, "op\tparent\tname\tstart_ns\tend_ns")?;
    for s in spans {
        match s.parent {
            Some(p) => writeln!(out, "{}\t{}\t{}\t{}\t{}", s.op, p, s.name, s.start, s.end)?,
            None => writeln!(out, "{}\t-\t{}\t{}\t{}", s.op, s.name, s.start, s.end)?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_until_started() {
        assert_eq!(span("x", || 7), 7);
        assert!(finish().is_empty());
    }

    #[test]
    fn nested_self_times_sum_to_root() {
        start();
        set_op(3);
        span("root", || {
            span("a", || std::hint::black_box((0..1000).sum::<u64>()));
            span("b", || span("c", || std::hint::black_box(1)));
        });
        untraced(|| span("hidden", || ()));
        let spans = finish();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.op == 3));
        assert_eq!(spans[3].parent, Some(2));
        let roots = check_nesting(&spans, "root").unwrap();
        let t = totals(&spans);
        assert_eq!(t["root"].total_ns, roots);
        let self_sum: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(self_sum, roots);
        assert_eq!(t["b"].self_ns + t["c"].total_ns, t["b"].total_ns);
    }

    #[test]
    fn nesting_rejects_overlap_and_escape() {
        let s = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            op: 0,
        };
        let good = [
            s("root", 0, 10, None),
            s("a", 1, 4, Some(0)),
            s("b", 4, 9, Some(0)),
        ];
        assert_eq!(check_nesting(&good, "root"), Ok(10));
        let overlap = [
            s("root", 0, 10, None),
            s("a", 1, 5, Some(0)),
            s("b", 4, 9, Some(0)),
        ];
        assert!(check_nesting(&overlap, "root").is_err());
        let escape = [s("root", 0, 10, None), s("a", 1, 11, Some(0))];
        assert!(check_nesting(&escape, "root").is_err());
        let early = [s("root", 2, 10, None), s("a", 1, 5, Some(0))];
        assert!(check_nesting(&early, "root").is_err());
        let backwards = [s("root", 0, 10, None), s("a", 5, 4, Some(0))];
        assert!(check_nesting(&backwards, "root").is_err());
        // Trees under other roots are not checked.
        assert_eq!(check_nesting(&escape, "other"), Ok(0));
    }
}
