//! The traced run's spans: one per call the benchmark makes into a layer,
//! plus the engine's own timeline for traced service queries. Spans are
//! kept in memory and written out when the run ends.

use crate::json::Json;
use rexa_obs::span::{SpanKind, SpanTimeline};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Query ids: every client query and every direct layer call gets one.
pub static QUERY_IDS: AtomicU64 = AtomicU64::new(1);

/// Tracks of the engine timeline whose spans contain other tracks' spans
/// (the coordinator's phases contain the workers' morsels).
const STRUCTURAL_TRACKS: [&str; 4] = ["bench", "coordinator", "service", "sql"];

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub layer: &'static str,
    pub track: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the tracer, if any.
    pub parent: Option<usize>,
    pub query: u64,
}

/// An in-memory span recorder. Nanosecond times are relative to `epoch`.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Engine spans lost to full span buffers.
    dropped: AtomicU64,
}

/// Which layer an engine span belongs to.
fn engine_layer(track: &str, name: &str) -> &'static str {
    match (track, name) {
        ("sql", _) => "sql",
        ("service", _) => "service",
        (t, _) if t.starts_with("io") => "buffer",
        (_, "drain_io" | "spill_write" | "readahead") => "buffer",
        (_, "morsel" | "task" | "pipeline" | "combine") => "exec",
        _ => "core",
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span now; [`close`](Tracer::close) sets its end.
    pub fn open(
        &self,
        name: &str,
        layer: &'static str,
        parent: Option<usize>,
        query: u64,
    ) -> usize {
        let now = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name: name.to_string(),
            layer,
            track: "bench".to_string(),
            start_ns: now,
            end_ns: now,
            parent,
            query,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: usize) {
        let now = self.ns(Instant::now());
        self.spans.lock().expect("span list poisoned")[id].end_ns = now;
    }

    /// Run `f` inside a span when a tracer is given, or plainly without.
    pub fn maybe<T>(
        tracer: Option<&Tracer>,
        name: &str,
        layer: &'static str,
        parent: Option<usize>,
        query: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        match tracer {
            Some(t) => {
                let id = t.open(name, layer, parent, query);
                let out = f();
                t.close(id);
                out
            }
            None => f(),
        }
    }

    /// Run `f` and return its result with its duration, inside a span when
    /// a tracer is given.
    pub fn timed<T>(
        tracer: Option<&Tracer>,
        name: &str,
        layer: &'static str,
        query: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        Tracer::maybe(tracer, name, layer, None, query, || {
            let t = Instant::now();
            let out = f();
            (out, t.elapsed())
        })
    }

    /// Add a traced query's engine timeline. `origin` and `origin_ns` are
    /// the same moment on this tracer's clock and the collector's. Each
    /// engine span's parent is the shortest earlier span of the query that
    /// contains it on its own track or on a structural one.
    pub fn import(
        &self,
        timeline: &SpanTimeline,
        origin: Instant,
        origin_ns: u64,
        root: Option<usize>,
        query: u64,
    ) {
        self.dropped.fetch_add(timeline.dropped, Ordering::Relaxed);
        let base = self.ns(origin) as i128 - origin_ns as i128;
        let mut spans = self.spans.lock().expect("span list poisoned");
        let mut events: Vec<_> = timeline
            .spans
            .iter()
            .filter(|e| matches!(e.kind, SpanKind::Complete))
            .collect();
        events.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
        // Candidate parents: this query's benchmark spans, then each
        // imported span once added.
        let mut candidates: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].query == query && Some(i) != root)
            .collect();
        for e in events {
            let track = timeline.tracks[e.track as usize].clone();
            let start = (base + e.start_ns as i128).max(0) as u64;
            let end = start + e.dur_ns;
            let parent = candidates
                .iter()
                .copied()
                .filter(|&c| {
                    let p = &spans[c];
                    p.start_ns <= start
                        && end <= p.end_ns
                        && (p.track == track || STRUCTURAL_TRACKS.contains(&p.track.as_str()))
                })
                .min_by_key(|&c| spans[c].end_ns - spans[c].start_ns)
                .or(root);
            spans.push(Span {
                name: e.name.to_string(),
                layer: engine_layer(&track, e.name),
                track,
                start_ns: start,
                end_ns: end,
                parent,
                query,
            });
            candidates.push(spans.len() - 1);
        }
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of it its child
/// spans cover.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end_ns - s.start_ns) - covered(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Per-layer self time of the traced client queries, in seconds per
/// query, and the mean share of a query's wall time no layer span covers
/// (the self time of its root span).
pub fn layer_breakdown(spans: &[Span]) -> (BTreeMap<&'static str, f64>, f64) {
    let own = self_times(spans);
    let roots: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == "client.query")
        .collect();
    let queries: std::collections::BTreeSet<u64> = roots.iter().map(|&i| spans[i].query).collect();
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(&own) {
        if queries.contains(&s.query) {
            *by_layer.entry(s.layer).or_default() += *t as f64 / 1e9;
        }
    }
    let n = roots.len().max(1) as f64;
    by_layer.values_mut().for_each(|v| *v /= n);
    let unattributed = roots
        .iter()
        .map(|&i| own[i] as f64 / (spans[i].end_ns - spans[i].start_ns).max(1) as f64)
        .sum::<f64>()
        / n;
    (by_layer, unattributed)
}

/// The spans as JSON, times in microseconds.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::str(s.name.clone())),
                    ("layer", Json::str(s.layer)),
                    ("track", Json::str(s.track.clone())),
                    ("start_us", Json::Num(s.start_ns as f64 / 1e3)),
                    ("end_us", Json::Num(s.end_ns as f64 / 1e3)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                    ),
                    ("query", Json::Int(s.query as i64)),
                ])
            })
            .collect(),
    )
}
