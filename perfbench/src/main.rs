//! End-to-end SQL benchmark of `rexa-service` under a memory limit.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload orderkey_spill --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run: generate lineitem from the seed and stream it into a paged
//! table, compute the expected answer with the reference aggregator, set
//! up (generate, load, one warm-up query) three times, then let
//! closed-loop clients submit the workload's statement for `--seconds`,
//! checking every answer. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` runs the same load untraced and traced, times each layer's
//! entry points directly, and prints the per-layer metrics. The last line
//! of standard output is the result as one JSON object; a wrong answer
//! makes the exit code 1. See `perfbench/README.md`.

mod calib;
mod client;
mod host;
mod json;
mod layers;
mod spans;
mod workload;

use client::{median, per_query, tail, Load, Outcome, Phase};
use host::TempRoot;
use json::Json;
use spans::Tracer;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use workload::{Env, Spec};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Repetitions of each direct layer call in a traced run.
const LAYER_REPS: usize = 3;
/// The limit of the reference pass for the cliff ratio: everything fits.
const REFERENCE_LIMIT: usize = 4 << 30;
const MIB: usize = 1 << 20;

struct Args {
    workload: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    corrupt_expected: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: rexa-perfbench --workload <{}> --seed N --seconds S --trace 0|1 \
         [--out DIR] [--sf F] [--corrupt-expected]",
        workload::WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2)
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad value {value:?} for {flag}")))
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut out, mut sf, mut corrupt_expected) = (PathBuf::from("perfbench/out"), None, false);
    while let Some(flag) = args.next() {
        if flag == "--corrupt-expected" {
            corrupt_expected = true;
            continue;
        }
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::spec(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => seed = Some(parse::<u64>(&flag, &value)),
            "--seconds" => seconds = Some(parse::<f64>(&flag, &value)),
            "--trace" => trace = Some(parse::<u8>(&flag, &value) != 0),
            "--out" => out = PathBuf::from(value),
            // Smaller data, for the benchmark's own tests.
            "--sf" => sf = Some(parse::<f64>(&flag, &value)),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let mut workload = workload.unwrap_or_else(|| usage("--workload is required"));
    workload.sf = sf.unwrap_or(workload.sf);
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        out,
        corrupt_expected,
    }
}

/// A named metric with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run produced, besides its metrics.
struct Report {
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    wrong: usize,
    details: Vec<(&'static str, Json)>,
    spans: Option<Vec<spans::Span>>,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn records_json(phase: &Phase) -> Json {
    Json::Arr(
        phase
            .records
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("client", Json::Int(r.client as i64)),
                    ("latency_s", Json::Num(secs(r.latency))),
                    (
                        "outcome",
                        Json::str(match &r.outcome {
                            Outcome::Correct => "correct".to_string(),
                            Outcome::Wrong(e) => format!("wrong: {e}"),
                            Outcome::Failed(e) => format!("failed: {e}"),
                        }),
                    ),
                    ("queued_s", Json::Num(secs(r.queued))),
                    ("temp_written", Json::Int(r.temp_written as i64)),
                    ("temp_read", Json::Int(r.temp_read as i64)),
                    ("evictions", Json::Int(r.evictions as i64)),
                    ("strategy", Json::str(r.strategy.clone())),
                ])
            })
            .collect(),
    )
}

/// Set up `SETUP_REPS` times (generate, load, warm-up query) and keep the
/// last environment. Returns it with the median set-up time scaled to the
/// reference host speed, the median raw generate/load/warm-up times, and
/// the warm-up records.
fn set_up(
    spec: &Spec,
    seed: u64,
    root: &Path,
    expected: &workload::Answer,
) -> rexa_exec::Result<(Env, [f64; 4], Phase)> {
    let (mut setup, mut gen, mut load, mut first) = (vec![], vec![], vec![], vec![]);
    let mut warmups = Vec::new();
    let mut env = None;
    for i in 0..SETUP_REPS {
        if let Some(prev) = env.take() {
            Env::close(prev);
        }
        let before = calib::slowdown();
        let e = Env::build(spec, seed, &root.join(format!("env-{i}")))?;
        let load_client = Load {
            service: &e.service,
            statement: spec.statement,
            expected,
            clients: 1,
        };
        let warm = load_client.query(0, None);
        let slowdown = (before + calib::slowdown()) / 2.0;
        setup.push(secs(e.generate + e.load + warm.latency) / slowdown);
        gen.push(secs(e.generate));
        load.push(secs(e.load));
        first.push(secs(warm.latency));
        warmups.push(warm);
        env = Some(e);
    }
    for v in [&mut setup, &mut gen, &mut load, &mut first] {
        v.sort_by(f64::total_cmp);
    }
    Ok((
        env.expect("at least one set-up"),
        [median(&setup), median(&gen), median(&load), median(&first)],
        Phase {
            records: warmups,
            wall: Duration::ZERO,
        },
    ))
}

/// Sample the buffer manager's used share of its limit until stopped.
fn sample_memory(env: &Env, stop: &AtomicBool) -> f64 {
    let mut peak: f64 = 0.0;
    while !stop.load(Ordering::Relaxed) {
        peak = peak.max(env.mgr.memory_used() as f64 / env.mgr.memory_limit() as f64);
        std::thread::sleep(Duration::from_millis(2));
    }
    peak
}

fn run(args: &Args, root: &TempRoot) -> rexa_exec::Result<Report> {
    let spec = &args.workload;
    let t = Instant::now();
    let mut expected = workload::expected_answer(spec, args.seed)?;
    if args.corrupt_expected {
        expected.corrupt();
    }
    let oracle_s = secs(t.elapsed());
    host::release_free_heap();

    let (env, [setup_s, generate_s, load_s, first_query_s], warmups) =
        set_up(spec, args.seed, root.path(), &expected)?;
    let load = Load {
        service: &env.service,
        statement: spec.statement,
        expected: &expected,
        clients: spec.clients,
    };
    let rows = env.table.rows() as f64;
    let seconds = Duration::from_secs_f64(args.seconds);
    let mut details = vec![
        ("oracle_s", Json::Num(oracle_s)),
        ("warmup_queries", records_json(&warmups)),
    ];
    let mut phases = vec![warmups];

    let (mut metrics, spans) = if !args.trace {
        host::release_free_heap();
        let scaled = calib::run(&load, seconds);
        let (phase, lat) = (scaled.phase, scaled.latencies);
        let (tail_s, tail_pct) = tail(&lat);
        let raw = phase.latencies();
        details.push(("latency_tail_percentile", Json::Num(tail_pct)));
        details.push(("latency_samples", Json::Int(lat.len() as i64)));
        details.push(("raw_latency_p50_s", Json::Num(median(&raw))));
        details.push(("raw_latency_tail_s", Json::Num(tail(&raw).0)));
        details.push(("measured_wall_s", Json::Num(secs(phase.wall))));
        details.push(("scaled_wall_s", Json::Num(scaled.wall)));
        details.push((
            "slowdowns",
            Json::Arr(scaled.slowdowns.iter().map(|&f| Json::Num(f)).collect()),
        ));
        details.push(("queries", records_json(&phase)));
        let attempted = phase.records.len();
        let metrics = vec![
            m("latency_p50_s", median(&lat), "s"),
            m("latency_tail_s", tail_s, "s"),
            m(
                "throughput_rows_per_s",
                phase.correct() as f64 * rows / scaled.wall,
                "rows/s",
            ),
            m(
                "success_rate",
                phase.correct() as f64 / attempted as f64,
                "frac",
            ),
            m("rss_peak_mib", scaled.rss_peak_mib, "MiB"),
            m("setup_s", setup_s, "s"),
        ];
        phases.push(phase);
        (metrics, None)
    } else {
        let layer_setup = [generate_s, load_s, first_query_s];
        traced_run(
            args,
            root,
            &env,
            &load,
            seconds,
            &mut phases,
            &mut details,
            layer_setup,
        )?
    };

    env.close();
    if args.trace {
        // What the engine left in its spill directories once the service,
        // the table, and the manager are gone.
        let leftover = root.bytes_used() as f64;
        metrics.push(m("storage.temp_leftover_bytes", leftover, "bytes"));
    }
    // Every checked query counts, warm-ups included.
    let attempted = phases.iter().map(|p| p.records.len()).sum();
    Ok(Report {
        metrics,
        attempted,
        failed: attempted - phases.iter().map(Phase::correct).sum::<usize>(),
        wrong: phases.iter().map(Phase::wrong).sum(),
        details,
        spans,
    })
}

/// The per-layer run: the load untraced (half the time, with the memory
/// sampler), traced (a quarter), each layer's entry points called directly,
/// the admission probe and its control (an eighth each), and the reference
/// pass at a limit where everything fits (a quarter).
#[allow(clippy::too_many_arguments)]
fn traced_run(
    args: &Args,
    root: &TempRoot,
    env: &Env,
    load: &Load,
    seconds: Duration,
    phases: &mut Vec<Phase>,
    details: &mut Vec<(&'static str, Json)>,
    [generate_s, load_s, first_query_s]: [f64; 3],
) -> rexa_exec::Result<(Vec<Metric>, Option<Vec<spans::Span>>)> {
    let before = env.mgr.stats();
    let stop = AtomicBool::new(false);
    let (untraced, peak_used) = std::thread::scope(|s| {
        let sampler = s.spawn(|| sample_memory(env, &stop));
        let phase = load.run(seconds / 2, None);
        stop.store(true, Ordering::Relaxed);
        (phase, sampler.join().expect("memory sampler panicked"))
    });
    let delta = env.mgr.stats().delta_since(&before);
    let n = untraced.records.len();
    let lat = untraced.latencies();
    let p50 = median(&lat);
    let ok: Vec<&client::Record> = untraced
        .records
        .iter()
        .filter(|r| r.outcome == Outcome::Correct)
        .collect();
    let mean = |f: &dyn Fn(&client::Record) -> f64| {
        ok.iter().map(|r| f(r)).sum::<f64>() / ok.len().max(1) as f64
    };

    let tracer = Tracer::new();
    let traced = load.run(seconds / 4, Some(&tracer));
    let traced_p50 = median(&traced.latencies());

    let layer = layers::measure(
        env,
        load.statement.sql(),
        LAYER_REPS,
        &root.path().join("ceiling"),
        Some(&tracer),
    )?;

    // Admission probe: two clients at a limit one query should fit in but
    // two together may not. A correct service queues the second query; the
    // share that fails instead is reported, not gated. One client at the
    // same limit is the control: where it fails too, the pair's failures
    // are plain out-of-memory, not an admission defect.
    let limit = args.workload.limit;
    env.mgr.set_memory_limit(limit / 5 * 3);
    let probe_failed = [
        (1, "admission_control_queries"),
        (2, "admission_probe_queries"),
    ]
    .map(|(clients, name)| {
        let probe = Load { clients, ..*load }.run(seconds / 8, None);
        let failed = 1.0 - probe.correct() as f64 / probe.records.len().max(1) as f64;
        if probe.wrong() > 0 {
            phases.push(probe);
        } else {
            details.push((name, records_json(&probe)));
        }
        failed
    });

    env.mgr.set_memory_limit(REFERENCE_LIMIT.max(limit));
    let reference = load.run(seconds / 4, None);
    let reference_p50 = median(&reference.latencies());

    let spans = tracer.spans();
    let (self_s, unattributed) = spans::layer_breakdown(&spans);
    let layer_self = |l: &str| self_s.get(l).copied().unwrap_or(0.0);
    let written = per_query(delta.temp_bytes_written, n);
    let read = per_query(delta.temp_bytes_read, n);
    let shed = untraced
        .records
        .iter()
        .filter(|r| r.outcome == Outcome::Failed("Overloaded".into()))
        .count();

    let metrics = vec![
        m("tpch.generate_s", generate_s, "s"),
        m("storage.load_s", load_s, "s"),
        m("storage.temp_write_bytes", written, "bytes"),
        m("storage.temp_read_bytes", read, "bytes"),
        m(
            "storage.device_write_mib_s",
            layer.device_write_mib_s,
            "MiB/s",
        ),
        m(
            "storage.device_read_mib_s",
            layer.device_read_mib_s,
            "MiB/s",
        ),
        m(
            "storage.io_floor_s",
            (written / layer.device_write_mib_s + read / layer.device_read_mib_s) / MIB as f64,
            "s",
        ),
        m("buffer.scan_s", layer.scan_s, "s"),
        m(
            "buffer.evictions_persistent",
            per_query(delta.evictions_persistent, n),
            "count",
        ),
        m(
            "buffer.evictions_temporary",
            per_query(delta.evictions_temporary, n),
            "count",
        ),
        m(
            "buffer.buffer_reuses",
            per_query(delta.buffer_reuses, n),
            "count",
        ),
        m(
            "buffer.spill_retries",
            per_query(delta.spill_retries, n),
            "count",
        ),
        m(
            "buffer.spill_failures",
            per_query(delta.spill_failures, n),
            "count",
        ),
        m("buffer.peak_used_frac", peak_used, "frac"),
        m("buffer.cliff_ratio", p50 / reference_p50, "ratio"),
        m("buffer.cliff_excess_s", p50 - reference_p50, "s"),
        m(
            "layout.partitions_external",
            mean(&|r| r.partitions_external as f64),
            "count",
        ),
        m(
            "exec.worker_busy_frac",
            mean(&|r| secs(r.worker_busy) / (r.threads.max(1) as f64 * secs(r.op_wall))),
            "frac",
        ),
        m("exec.morsels", mean(&|r| r.morsels as f64), "count"),
        m("core.phase1_s", mean(&|r| secs(r.phase1)), "s"),
        m("core.phase2_s", mean(&|r| secs(r.phase2)), "s"),
        m("core.ht_resets", mean(&|r| r.ht_resets as f64), "count"),
        m(
            "core.shared_index_queries",
            mean(&|r| f64::from(u8::from(r.strategy == "shared"))),
            "frac",
        ),
        m("core.aggregate_s", layer.aggregate_s, "s"),
        m("core.join_s", layer.join_s, "s"),
        m("sql.plan_us", layer.plan_us, "us"),
        m("sql.filter_s", layer.filter_s, "s"),
        m("sql.execute_s", layer.execute_s, "s"),
        m("service.queue_wait_s", mean(&|r| secs(r.queued)), "s"),
        m("service.overhead_s", p50 - layer.execute_s, "s"),
        m("service.shed", per_query(shed as u64, n), "count"),
        m("service.first_query_s", first_query_s, "s"),
        m(
            "service.admission_control_failed_frac",
            probe_failed[0],
            "frac",
        ),
        m(
            "service.admission_probe_failed_frac",
            probe_failed[1],
            "frac",
        ),
        m("obs.trace_overhead", traced_p50 / p50, "ratio"),
        m("obs.spans_dropped", tracer.dropped() as f64, "count"),
        m("obs.unattributed_frac", unattributed, "frac"),
        m("obs.self_s.client", layer_self("client"), "s"),
        m("obs.self_s.service", layer_self("service"), "s"),
        m("obs.self_s.sql", layer_self("sql"), "s"),
        m("obs.self_s.exec", layer_self("exec"), "s"),
        m("obs.self_s.core", layer_self("core"), "s"),
        m("obs.self_s.buffer", layer_self("buffer"), "s"),
    ];
    details.push(("untraced_queries", records_json(&untraced)));
    details.push(("traced_queries", records_json(&traced)));
    details.push(("reference_queries", records_json(&reference)));
    details.push(("untraced_p50_s", Json::Num(p50)));
    details.push(("traced_p50_s", Json::Num(traced_p50)));
    details.push(("reference_p50_s", Json::Num(reference_p50)));
    phases.extend([untraced, traced, reference]);
    Ok((metrics, Some(spans)))
}

fn main() {
    let args = parse_args();
    let code = {
        // The temp root must exist, and the process temp directory point at
        // it, before any buffer manager or thread does.
        let root =
            match std::fs::create_dir_all(&args.out).and_then(|()| TempRoot::create(&args.out)) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!(
                        "error: cannot create the temp root under {}: {e}",
                        args.out.display()
                    );
                    std::process::exit(1);
                }
            };
        let host = host::record(args.seed, root.path());
        match run(&args, &root) {
            Err(e) => {
                eprintln!("error: {} failed: {e}", args.workload.name);
                1
            }
            Ok(report) => finish(&args, host, report),
        }
        // `root` is dropped here, deleting the temp root.
    };
    std::process::exit(code)
}

/// Write the result file (and the spans), print the result line, and
/// return the exit code.
fn finish(args: &Args, host: Json, report: Report) -> i32 {
    let correct = report.wrong == 0;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    );
    // The result line: exactly these four keys, printed last.
    let result = || {
        let metrics = report
            .metrics
            .iter()
            .map(|x| {
                let value = vec![("value", Json::Num(x.value)), ("unit", Json::str(x.unit))];
                (x.name.to_string(), Json::obj(value))
            })
            .collect();
        vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(report.attempted as i64)),
            ("failed", Json::Int(report.failed as i64)),
            ("metrics", Json::Obj(metrics)),
        ]
    };
    if let Some(spans) = &report.spans {
        let path = args.out.join(format!("{stem}-spans.json"));
        if let Err(e) = std::fs::write(&path, spans::to_json(spans).to_string()) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
    let w = &args.workload;
    let mut file = vec![
        ("host", host),
        (
            "workload",
            Json::obj(vec![
                ("name", Json::str(w.name)),
                ("sf", Json::Num(w.sf)),
                ("limit_bytes", Json::Int(w.limit as i64)),
                ("clients", Json::Int(w.clients as i64)),
                ("sql", Json::str(w.statement.sql())),
                ("seconds", Json::Num(args.seconds)),
            ]),
        ),
    ];
    file.extend(result());
    file.extend(report.details);
    let path = args.out.join(format!("{stem}.json"));
    if let Err(e) = std::fs::write(&path, Json::obj(file).to_string()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    for x in &report.metrics {
        eprintln!("{:>34} {:>16.6} {}", x.name, x.value, x.unit);
    }
    println!("{}", Json::obj(result()));
    if correct {
        0
    } else {
        eprintln!("error: {} wrong answer(s)", report.wrong);
        1
    }
}
