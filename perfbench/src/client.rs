//! Closed-loop clients: each submits the workload's statement, waits for
//! the answer, checks it, and only then submits the next.

use crate::spans::{Tracer, QUERY_IDS};
use crate::workload::{Answer, Statement};
use rexa_exec::Error;
use rexa_obs::SpanCollector;
use rexa_service::{QueryOptions, QueryService};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// A query that runs longer than this is cancelled; a failed, refused, or
/// wrong query counts at this latency.
pub const DEADLINE: Duration = Duration::from_secs(30);

/// How one query ended.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    Correct,
    Wrong(String),
    /// A typed engine error (out of memory, overloaded, deadline, ...).
    Failed(String),
}

/// What one query did, as seen from the client.
#[derive(Clone, Debug)]
pub struct Record {
    pub client: usize,
    /// `submit_sql_with` until `wait` returns.
    pub latency: Duration,
    pub outcome: Outcome,
    pub queued: Duration,
    pub phase1: Duration,
    pub phase2: Duration,
    pub ht_resets: u64,
    pub strategy: String,
    pub partitions_external: u64,
    /// Σ worker busy time and morsels, and the operator's threads and wall.
    pub worker_busy: Duration,
    pub morsels: u64,
    pub threads: usize,
    pub op_wall: Duration,
    /// Buffer-manager deltas over this query's execution (with concurrent
    /// clients they include the other query's activity).
    pub temp_written: u64,
    pub temp_read: u64,
    pub evictions: u64,
}

impl Record {
    fn new(client: usize, latency: Duration, outcome: Outcome) -> Record {
        Record {
            client,
            latency,
            outcome,
            queued: Duration::ZERO,
            phase1: Duration::ZERO,
            phase2: Duration::ZERO,
            ht_resets: 0,
            strategy: String::new(),
            partitions_external: 0,
            worker_busy: Duration::ZERO,
            morsels: 0,
            threads: 0,
            op_wall: Duration::ZERO,
            temp_written: 0,
            temp_read: 0,
            evictions: 0,
        }
    }

    /// The latency the metrics use: a query that did not return a correct
    /// answer misses every latency limit, so it counts at the deadline.
    pub fn charged_latency(&self) -> Duration {
        match self.outcome {
            Outcome::Correct => self.latency,
            _ => DEADLINE,
        }
    }
}

/// One measured phase: every query of every client, and its wall time.
pub struct Phase {
    pub records: Vec<Record>,
    pub wall: Duration,
}

impl Phase {
    pub fn correct(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome == Outcome::Correct)
            .count()
    }

    pub fn wrong(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Wrong(_)))
            .count()
    }

    /// Sorted charged latencies, in seconds.
    pub fn latencies(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .records
            .iter()
            .map(|r| r.charged_latency().as_secs_f64())
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// What the clients run and check against.
#[derive(Clone, Copy)]
pub struct Load<'a> {
    pub service: &'a QueryService,
    pub statement: Statement,
    pub expected: &'a Answer,
    pub clients: usize,
}

impl Load<'_> {
    /// Run one query: submit, wait, check. With a tracer, the query's own
    /// spans and the engine's timeline (through `QueryOptions::spans`) are
    /// recorded under one query id.
    pub fn query(&self, client: usize, tracer: Option<&Tracer>) -> Record {
        let qid = QUERY_IDS.fetch_add(1, Ordering::Relaxed);
        let collector = tracer.map(|_| SpanCollector::new());
        let options = QueryOptions {
            deadline: Some(DEADLINE),
            spans: collector.clone(),
            ..QueryOptions::default()
        };
        let engine_origin = collector.as_ref().map(|c| (Instant::now(), c.now_ns()));
        let start = Instant::now();
        let root = tracer.map(|t| t.open("client.query", "client", None, qid));
        let submitted = Tracer::maybe(tracer, "service.submit", "service", root, qid, || {
            self.service.submit_sql_with(self.statement.sql(), options)
        });
        let result = match submitted {
            Ok(handle) => Tracer::maybe(tracer, "service.wait", "service", root, qid, || {
                handle.wait()
            }),
            Err(e) => Err(match e {
                rexa_sql::SqlError::Engine(e) => e,
                other => Error::Internal(other.to_string()),
            }),
        };
        let latency = start.elapsed();
        if let (Some(t), Some(root)) = (tracer, root) {
            t.close(root);
        }
        let out = match result {
            Err(e) => return Record::new(client, latency, Outcome::Failed(error_kind(&e))),
            Ok(out) => out,
        };
        if let (Some(t), Some((origin, origin_ns))) = (tracer, engine_origin) {
            t.import(&out.stats.profile.timeline, origin, origin_ns, root, qid);
        }
        let outcome = match out
            .output
            .as_ref()
            .map(|o| Answer::from_output(self.statement, o))
        {
            None => Outcome::Wrong("no output collected".into()),
            Some(Err(e)) => Outcome::Wrong(e),
            Some(Ok(answer)) => match answer.check(self.expected) {
                Ok(()) => Outcome::Correct,
                Err(e) => Outcome::Wrong(e),
            },
        };
        let p = &out.stats.profile;
        Record {
            queued: out.queued_for,
            phase1: out.stats.phase1,
            phase2: out.stats.phase2,
            ht_resets: out.stats.resets,
            strategy: p.strategy.clone(),
            partitions_external: p.partitions_external,
            worker_busy: p.workers.iter().map(|w| w.busy).sum(),
            morsels: p.workers.iter().map(|w| w.morsels).sum(),
            threads: p.threads,
            op_wall: p.wall,
            temp_written: out.buffer.temp_bytes_written,
            temp_read: out.buffer.temp_bytes_read,
            evictions: out.buffer.evictions_persistent + out.buffer.evictions_temporary,
            ..Record::new(client, latency, outcome)
        }
    }

    /// Closed loop: every client runs queries back to back until `seconds`
    /// have passed, then finishes the query it is in.
    pub fn run(&self, seconds: Duration, tracer: Option<&Tracer>) -> Phase {
        let start = Instant::now();
        let records = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.clients)
                .map(|client| {
                    s.spawn(move || {
                        let mut recs = Vec::new();
                        while start.elapsed() < seconds {
                            recs.push(self.query(client, tracer));
                        }
                        recs
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        Phase {
            records,
            wall: start.elapsed(),
        }
    }
}

fn error_kind(e: &Error) -> String {
    let s = format!("{e:?}");
    s.split(['(', ' ', '{'])
        .next()
        .unwrap_or("Error")
        .to_string()
}

/// Median of sorted values (the mean of the middle two for an even count).
pub fn median(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples above it: the value
/// and the percentile it is. With ten samples or fewer no percentile has
/// ten above, and the maximum is reported as the 100th.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n <= 10 {
        return (sorted.last().copied().unwrap_or(f64::NAN), 100.0);
    }
    let k = n - 11;
    (sorted[k], 100.0 * (k + 1) as f64 / n as f64)
}

/// Share of a shared counter per query.
pub fn per_query(total: u64, queries: usize) -> f64 {
    total as f64 / queries.max(1) as f64
}
