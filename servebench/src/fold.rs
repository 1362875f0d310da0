//! Folds a validated `hdx-obs` JSONL trace into per-span inclusive and
//! self time, grouped by layer.
//!
//! Trace spans carry no parent ids, but spans on one thread nest (each
//! is a scope guard), so a span's children are the spans on its thread
//! that start inside it. Self time is the span's duration minus the
//! durations of its direct children.

use std::collections::BTreeMap;

#[derive(Clone, Debug)]
pub struct Span {
    pub tid: u64,
    pub name: String,
    pub start: u64,
    pub dur: u64,
}

impl Span {
    pub fn end(&self) -> u64 {
        self.start + self.dur
    }

    pub fn contains(&self, other: &Span) -> bool {
        other.start >= self.start && other.end() <= self.end()
    }
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let rest = rest.strip_prefix('"').unwrap_or(rest);
    rest.split(['"', ',', '}']).next()
}

/// Validates `text` with `hdx_obs::check_trace` and parses its spans.
///
/// # Errors
///
/// The validator's message.
pub fn parse(text: &str) -> Result<Vec<Span>, String> {
    hdx_obs::check_trace(text)?;
    let num = |line: &str, key: &str| -> Result<u64, String> {
        field(line, key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("span line lacks {key}: {line}"))
    };
    text.lines()
        .filter(|l| field(l, "kind") == Some("span"))
        .map(|l| {
            Ok(Span {
                tid: num(l, "tid")?,
                name: field(l, "name").unwrap_or_default().to_owned(),
                start: num(l, "start_us")?,
                dur: num(l, "dur_us")?,
            })
        })
        .collect()
}

/// The layer a span name belongs to (the benchmark's own spans around
/// its calls, and the spans the program already emits).
pub fn layer(name: &str) -> &'static str {
    match name {
        "bench.unit" => "client",
        n if n.starts_with("bench.proto") => "proto",
        "router.connection" | "router.flush" => "conn",
        "router.dispatch" => "router",
        n if n.starts_with("engine.") => "engine",
        n if n.starts_with("bank.") || n.starts_with("surrogate.") => "tensor",
        n if n.starts_with("bench.setup") || n.starts_with("artifact.") => "setup",
        _ => "other",
    }
}

/// Per span name: count, inclusive and self microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Row {
    pub count: u64,
    pub incl_us: u64,
    pub self_us: u64,
}

/// Inclusive and self time per span name.
pub fn table(spans: &[Span]) -> BTreeMap<String, Row> {
    let mut by_tid: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_tid.entry(s.tid).or_default().push(s);
    }
    let mut rows: BTreeMap<String, Row> = BTreeMap::new();
    for mut list in by_tid.into_values() {
        // Parents before the children they contain.
        list.sort_by_key(|s| (s.start, std::cmp::Reverse(s.dur)));
        let mut child_us = vec![0u64; list.len()];
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..list.len() {
            while let Some(&top) = stack.last() {
                if list[top].contains(list[i]) {
                    break;
                }
                stack.pop();
            }
            if let Some(&top) = stack.last() {
                child_us[top] += list[i].dur;
            }
            stack.push(i);
        }
        for (s, child) in list.iter().zip(child_us) {
            let row = rows.entry(s.name.clone()).or_default();
            row.count += 1;
            row.incl_us += s.dur;
            row.self_us += s.dur.saturating_sub(child);
        }
    }
    rows
}

/// Spans that lie wholly inside `window`.
pub fn within(spans: &[Span], window: &Span) -> Vec<Span> {
    spans
        .iter()
        .filter(|s| window.contains(s))
        .cloned()
        .collect()
}

/// Total length of the union of `intervals`.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// What the router and engine spans say about each dispatch.
#[derive(Clone, Debug, Default)]
pub struct Dispatches {
    /// `router.dispatch` durations, µs.
    pub dispatch_us: Vec<u64>,
    /// Per dispatch: its duration minus the union of the engine spans
    /// that ran for it (routing, admission, waiting for a worker).
    pub self_us: Vec<u64>,
    /// Per dispatch: that union.
    pub engine_us: Vec<u64>,
    /// `engine.search` durations, µs.
    pub search_us: Vec<u64>,
    /// Per search: the `engine.epoch` spans inside it, µs.
    pub epochs_us: Vec<u64>,
    /// Summed top-level engine span time (CPU-busy time of the engine
    /// across worker threads), µs.
    pub engine_busy_us: u64,
}

/// Attributes engine spans to the dispatch that ran them: the
/// dispatch on the same thread that contains the span (jobs run inline
/// when a batch has one job), else the latest-starting dispatch that
/// contains it (jobs fanned out to scoped worker threads start right
/// after their dispatch does).
pub fn dispatches(spans: &[Span]) -> Dispatches {
    let is_engine = |s: &Span| s.name == "engine.search" || s.name == "engine.meta_search";
    let disp: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "router.dispatch")
        .collect();
    let engine: Vec<&Span> = spans.iter().filter(|s| is_engine(s)).collect();
    // Top level: not inside another engine span of the same thread
    // (a meta-search contains its searches).
    let top: Vec<&Span> = engine
        .iter()
        .copied()
        .filter(|e| {
            !engine
                .iter()
                .any(|o| o.tid == e.tid && !std::ptr::eq(*o, *e) && o.contains(e) && o.dur > e.dur)
        })
        .collect();
    let mut per_dispatch: Vec<Vec<(u64, u64)>> = vec![Vec::new(); disp.len()];
    for e in &top {
        let owner = disp
            .iter()
            .position(|d| d.tid == e.tid && d.contains(e))
            .or_else(|| {
                disp.iter()
                    .enumerate()
                    .filter(|(_, d)| d.contains(e))
                    .max_by_key(|(_, d)| d.start)
                    .map(|(i, _)| i)
            });
        if let Some(i) = owner {
            per_dispatch[i].push((e.start, e.end()));
        }
    }
    let mut out = Dispatches::default();
    for (d, intervals) in disp.iter().zip(per_dispatch) {
        let engine_us = union_len(intervals).min(d.dur);
        out.dispatch_us.push(d.dur);
        out.engine_us.push(engine_us);
        out.self_us.push(d.dur - engine_us);
    }
    out.engine_busy_us = top.iter().map(|e| e.dur).sum();
    for s in spans.iter().filter(|s| s.name == "engine.search") {
        out.search_us.push(s.dur);
        out.epochs_us.push(
            spans
                .iter()
                .filter(|e| e.name == "engine.epoch" && e.tid == s.tid && s.contains(e))
                .map(|e| e.dur)
                .sum(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(tid: u64, name: &str, start: u64, dur: u64) -> Span {
        Span {
            tid,
            name: name.to_owned(),
            start,
            dur,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            sp(0, "router.dispatch", 0, 100),
            sp(0, "engine.search", 10, 80),
            sp(0, "engine.epoch", 20, 30),
            sp(1, "engine.search", 5, 50),
        ];
        let t = table(&spans);
        assert_eq!(t["router.dispatch"].self_us, 20);
        assert_eq!(t["engine.search"].incl_us, 130);
        assert_eq!(t["engine.search"].self_us, 50 + 50);
        assert_eq!(t["engine.epoch"].self_us, 30);
    }

    #[test]
    fn engine_spans_attribute_to_their_dispatch() {
        let spans = vec![
            sp(0, "router.dispatch", 0, 100),
            sp(1, "router.dispatch", 50, 100),
            // Worker threads of the second dispatch.
            sp(2, "engine.search", 55, 60),
            sp(3, "engine.search", 56, 80),
            // Inline job of the first dispatch.
            sp(0, "engine.search", 2, 90),
        ];
        let d = dispatches(&spans);
        assert_eq!(d.engine_us, vec![90, 81]);
        assert_eq!(d.self_us, vec![10, 19]);
        assert_eq!(d.engine_busy_us, 230);
    }

    #[test]
    fn parses_the_sink_schema() {
        let text = "{\"v\":1,\"kind\":\"meta\",\"schema\":\"hdx-obs-trace\",\"buf_cap\":4096}\n\
                    {\"v\":1,\"kind\":\"span\",\"tid\":3,\"name\":\"engine.epoch\",\"start_us\":810,\"dur_us\":1242}\n";
        let spans = parse(text).expect("valid");
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].tid, spans[0].start, spans[0].dur), (3, 810, 1242));
        assert_eq!(spans[0].name, "engine.epoch");
    }
}
