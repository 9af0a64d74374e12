//! Outside-timed spans: recorded by the benchmark around its own calls into
//! each layer, kept in memory, written out when the run ends.
//!
//! Spans inside the program under test are a later change (ROADMAP item 2);
//! these only ever wrap public functions, so tracing on or off cannot change
//! what the program computes.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. `parent` is the span that was open when this one
/// started; spans of one summon (or one workload unit) share `summon_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub summon_id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span recorder. A disabled recorder does nothing, which is
/// how the same workload code runs untraced for the end-to-end metrics.
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open_at(&mut self, name: &'static str, summon_id: u64, at: u64) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            summon_id,
            name,
            start_ns: at,
            end_ns: at,
        });
        self.open.push(id);
    }

    fn close_at(&mut self, at: u64) {
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = at;
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, summon_id: u64) {
        if self.enabled {
            let at = self.now_ns();
            self.open_at(name, summon_id, at);
        }
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if self.enabled {
            let at = self.now_ns();
            self.close_at(at);
        }
    }

    /// Close the innermost open span and open a sibling at the same
    /// instant, so consecutive layer spans leave no gap between them.
    pub fn next(&mut self, name: &'static str, summon_id: u64) {
        if self.enabled {
            let at = self.now_ns();
            self.close_at(at);
            self.open_at(name, summon_id, at);
        }
    }

    /// Open `root` and its first child `first` at the same instant. The log
    /// itself costs time (a push can fault in a page); opened this way that
    /// time falls inside a child span, not in a gap the root cannot explain.
    pub fn enter_root(&mut self, root: &'static str, first: &'static str, summon_id: u64) {
        if self.enabled {
            let at = self.now_ns();
            self.open_at(root, summon_id, at);
            self.open_at(first, summon_id, at);
        }
    }

    /// Close the innermost span and its parent at the same instant.
    pub fn exit_root(&mut self) {
        if self.enabled {
            let at = self.now_ns();
            self.close_at(at);
            self.close_at(at);
        }
    }

    pub fn spans(&self) -> &[Span] {
        assert!(self.open.is_empty(), "spans read while one is still open");
        &self.spans
    }
}

/// For every span (indexed by id), the nanoseconds its direct children
/// cover: the length of the union of their intervals clipped to the span, so
/// overlapping children are not counted twice.
pub fn child_cover_ns(spans: &[Span]) -> Vec<u64> {
    let mut kids = vec![Vec::<(u64, u64)>::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            covered
        })
        .collect()
}

/// One row of the self-time table: every span of one name. A span's self
/// time is its duration minus the part its children cover.
#[derive(Debug, Clone, PartialEq)]
pub struct NameTotals {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregate spans by name, largest self time first.
pub fn self_time_table(spans: &[Span]) -> Vec<NameTotals> {
    let cover = child_cover_ns(spans);
    let mut rows: Vec<NameTotals> = Vec::new();
    for s in spans {
        let self_ns = s.duration_ns() - cover[s.id as usize];
        match rows.iter_mut().find(|r| r.name == s.name) {
            Some(r) => {
                r.count += 1;
                r.total_ns += s.duration_ns();
                r.self_ns += self_ns;
            }
            None => rows.push(NameTotals {
                name: s.name,
                count: 1,
                total_ns: s.duration_ns(),
                self_ns,
            }),
        }
    }
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    rows
}

/// Render the self-time table as aligned text.
pub fn render_table(rows: &[NameTotals]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<34} {:>9} {:>14} {:>14} {:>12}",
        "span", "count", "total_us", "self_us", "self_us/call"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<34} {:>9} {:>14.1} {:>14.1} {:>12.3}",
            r.name,
            r.count,
            r.total_ns as f64 / 1e3,
            r.self_ns as f64 / 1e3,
            r.self_ns as f64 / 1e3 / r.count as f64
        );
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, timestamps in microseconds.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"jitsu\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"summon_id\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.id,
            parent,
            s.summon_id
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            summon_id: 1,
            name: if parent.is_none() { "root" } else { "child" },
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Root 0..100; children 10..40 and 30..60 overlap by 10, a third
        // 80..120 pokes out past the root and is clipped to 80..100.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
            span(3, Some(0), 80, 120),
        ];
        assert_eq!(child_cover_ns(&spans), [50 + 20, 0, 0, 0]);
        assert_eq!(self_time_table(&spans)[1].self_ns, 30, "root self time");
    }

    #[test]
    fn self_time_counts_only_direct_children() {
        // Root 0..100 > child 20..80 > grandchild 30..50. The grandchild
        // comes off the child's self time, not the root's.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 20, 80),
            span(2, Some(1), 30, 50),
        ];
        assert_eq!(child_cover_ns(&spans), [60, 20, 0]);
        let table = self_time_table(&spans);
        let total_self: u64 = table.iter().map(|r| r.self_ns).sum();
        assert_eq!(total_self, 100, "self times partition the root");
        let child = table.iter().find(|r| r.name == "child").unwrap();
        assert_eq!((child.count, child.total_ns, child.self_ns), (2, 80, 60));
    }

    #[test]
    fn recorder_nests_and_chains_spans() {
        let mut log = SpanLog::new(true);
        log.enter("root", 9);
        log.enter("a", 9);
        log.next("b", 9);
        log.exit();
        log.exit();
        log.enter_root("root", "a", 10);
        log.exit_root();
        let spans = log.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[4].parent, Some(3));
        assert_eq!(
            (spans[3].start_ns, spans[3].end_ns),
            (spans[4].start_ns, spans[4].end_ns),
            "a root opened with its first child is covered end to end"
        );
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[1].end_ns, spans[2].start_ns, "next leaves no gap");
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);

        let mut off = SpanLog::new(false);
        off.enter("root", 1);
        off.exit();
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_one_complete_event_per_span() {
        let spans = vec![span(0, None, 1_000, 5_500), span(1, Some(0), 2_000, 3_000)];
        let json = chrome_trace_json(&spans);
        let doc = crate::json::parse(&json).expect("trace is valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").and_then(|p| p.as_str()), Some("X"));
        assert_eq!(events[0].get("dur").and_then(|d| d.as_f64()), Some(4.5));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|p| p.as_f64()), Some(0.0));
    }
}
