//! Direct calls into each layer's public entry points, timed from the
//! benchmark's side: the scan alone, the scan with the SQL filter, SQL
//! execution without the service, the join and the aggregation operators
//! on their own, and the temp-file ceiling.

use crate::client::median;
use crate::spans::{Tracer, QUERY_IDS};
use crate::workload::Env;
use rexa_buffer::BufferManager;
use rexa_core::{hash_aggregate_streaming, hash_join_streaming, AggregateConfig, JoinConfig};
use rexa_exec::pipeline::{CancelToken, ChunkSource, CollectionSource};
use rexa_exec::pool::{ExecContext, WorkerPool};
use rexa_exec::{ChunkCollection, DataChunk, LogicalType, Result, VECTOR_SIZE};
use rexa_sql::{PhysicalPlan, Predicate, TableData};
use rexa_storage::TempFileManager;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Per-layer timings of one workload's statement, in seconds (plan time
/// in microseconds). Zero where the statement has no such step.
pub struct LayerTimes {
    pub plan_us: f64,
    pub scan_s: f64,
    pub filter_s: f64,
    pub execute_s: f64,
    pub join_s: f64,
    pub aggregate_s: f64,
    pub device_write_mib_s: f64,
    pub device_read_mib_s: f64,
}

/// Median of `reps` timed calls of `f`, each in its own span.
fn repeat(
    tracer: Option<&Tracer>,
    name: &str,
    layer: &'static str,
    reps: usize,
    mut f: impl FnMut() -> Result<()>,
) -> Result<f64> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let qid = QUERY_IDS.fetch_add(1, Ordering::Relaxed);
        let (out, t) = Tracer::timed(tracer, name, layer, qid, &mut f);
        out?;
        times.push(t.as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    Ok(median(&times))
}

/// Drain `source` with `threads` readers, calling `visit` on every chunk.
fn drain(
    source: &dyn ChunkSource,
    threads: usize,
    visit: &(dyn Fn(&DataChunk) + Sync),
) -> Result<()> {
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| -> Result<()> {
                    let mut reader = source.reader();
                    while let Some(chunk) = reader.next()? {
                        visit(chunk);
                    }
                    Ok(())
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("scan thread panicked"))
    })
}

/// What the SQL filter does to one chunk: evaluate the predicate per row
/// and copy the passing rows into a fresh chunk.
fn filter_chunk(pred: &Predicate, schema: &[LogicalType], chunk: &DataChunk) -> DataChunk {
    let mut kept = DataChunk::empty(schema);
    for r in (0..chunk.len()).filter(|&r| pred.eval(chunk, r)) {
        kept.push_row(&chunk.row(r)).expect("same schema");
    }
    kept
}

/// The statement's input as the aggregation sees it, in memory: the
/// joined rows, or the scanned rows that pass the filter.
fn aggregate_input(
    env: &Env,
    plan: &PhysicalPlan,
    joined: Option<ChunkCollection>,
) -> Result<ChunkCollection> {
    if let Some(j) = joined {
        return Ok(j);
    }
    let out = Mutex::new(ChunkCollection::new(plan.input_schema.clone()));
    drain(&env.table.scan(&env.mgr), 1, &|chunk| {
        let kept = match &plan.filter {
            None => chunk.clone(),
            Some(pred) => filter_chunk(pred, &plan.input_schema, chunk),
        };
        out.lock()
            .expect("collection lock")
            .push(kept)
            .expect("same schema");
    })?;
    Ok(out.into_inner().expect("collection lock"))
}

fn join_config(config: &AggregateConfig) -> JoinConfig {
    JoinConfig {
        threads: config.threads,
        radix_bits: config.radix_bits,
        output_chunk_size: config.output_chunk_size.min(VECTOR_SIZE),
        ..JoinConfig::default()
    }
}

/// Write then read back `pages` temp-file pages of the manager's page
/// size in `dir`, timing every call: the ceiling spill I/O can reach on
/// this machine (its page cache, not its device).
fn temp_file_ceiling(
    mgr: &BufferManager,
    dir: &Path,
    pages: usize,
    tracer: Option<&Tracer>,
) -> Result<(f64, f64)> {
    let page = mgr.page_size();
    let temp = TempFileManager::new(dir.to_path_buf(), page)?;
    let data: Vec<u8> = (0..page).map(|i| (i * 31 % 251) as u8).collect();
    let mut buf = vec![0u8; page];
    let (mut write, mut read) = (Duration::ZERO, Duration::ZERO);
    let qid = QUERY_IDS.fetch_add(1, Ordering::Relaxed);
    let mut slots = Vec::with_capacity(pages);
    for _ in 0..pages {
        let (slot, t) = Tracer::timed(tracer, "storage.write_slot", "storage", qid, || {
            temp.write_slot(&data)
        });
        slots.push(slot?);
        write += t;
    }
    for slot in slots {
        let (r, t) = Tracer::timed(tracer, "storage.read_slot", "storage", qid, || {
            temp.read_slot(slot, &mut buf)
        });
        r?;
        read += t;
    }
    drop(temp);
    std::fs::remove_dir_all(dir)?;
    let mib = (pages * page) as f64 / (1 << 20) as f64;
    Ok((mib / write.as_secs_f64(), mib / read.as_secs_f64()))
}

/// Time each layer's entry point `reps` times and take medians.
pub fn measure(
    env: &Env,
    sql: &str,
    reps: usize,
    ceiling_dir: &Path,
    tracer: Option<&Tracer>,
) -> Result<LayerTimes> {
    let catalog = env.service.catalog();
    let plan_reps = 200;
    let plan_us = repeat(tracer, "sql.plan", "sql", plan_reps, || {
        rexa_sql::plan(sql, &catalog)
            .map(drop)
            .map_err(|e| rexa_exec::Error::Internal(e.to_string()))
    })? * 1e6;
    let plan =
        rexa_sql::plan(sql, &catalog).map_err(|e| rexa_exec::Error::Internal(e.to_string()))?;
    let config = AggregateConfig::default();
    let threads = config.threads;
    let mgr = &env.mgr;

    let scan_s = repeat(tracer, "buffer.scan", "buffer", reps, || {
        drain(
            &env.table.scan_with_cancel(mgr, CancelToken::new()),
            threads,
            &|_| {},
        )
    })?;
    let filter_s = match &plan.filter {
        None => 0.0,
        Some(pred) => {
            let kept = AtomicUsize::new(0);
            let with_filter = repeat(tracer, "sql.filter", "sql", reps, || {
                drain(
                    &env.table.scan_with_cancel(mgr, CancelToken::new()),
                    threads,
                    &|c| {
                        let n = filter_chunk(pred, &plan.input_schema, c).len();
                        kept.fetch_add(n, Ordering::Relaxed);
                    },
                )
            })?;
            std::hint::black_box(kept.load(Ordering::Relaxed));
            (with_filter - scan_s).max(0.0)
        }
    };

    let pool = Arc::new(WorkerPool::new(threads));
    let execute_s = repeat(tracer, "sql.execute", "sql", reps, || {
        let rows = AtomicUsize::new(0);
        let ctx = ExecContext::with_pool(Arc::clone(&pool));
        rexa_sql::execute_streaming(mgr, &plan, &config, &ctx, &|c| {
            rows.fetch_add(c.len(), Ordering::Relaxed);
            Ok(())
        })?;
        std::hint::black_box(rows.load(Ordering::Relaxed));
        Ok(())
    })?;

    let (join_s, joined) = match &plan.join {
        None => (0.0, None),
        Some(j) => {
            let TableData::Collection(build) = &j.right.data else {
                return Err(rexa_exec::Error::Unsupported("paged build side".into()));
            };
            let mut last = None;
            let t = repeat(tracer, "core.join", "core", reps, || {
                let out = Mutex::new(ChunkCollection::new(plan.input_schema.clone()));
                hash_join_streaming(
                    mgr,
                    &CollectionSource::new(build),
                    &j.right.schema,
                    &env.table.scan(mgr),
                    &plan.left.schema,
                    &j.plan,
                    &join_config(&config),
                    &|c| out.lock().expect("join output lock").push(c),
                )?;
                last = Some(out.into_inner().expect("join output lock"));
                Ok(())
            })?;
            (t, last)
        }
    };

    let aggregate_s = match &plan.aggregate {
        None => 0.0,
        Some(agg) => {
            let input = aggregate_input(env, &plan, joined)?;
            repeat(tracer, "core.aggregate", "core", reps, || {
                let groups = AtomicUsize::new(0);
                hash_aggregate_streaming(
                    mgr,
                    &CollectionSource::new(&input),
                    &plan.input_schema,
                    agg,
                    &config,
                    &|c| {
                        groups.fetch_add(c.len(), Ordering::Relaxed);
                        Ok(())
                    },
                )?;
                std::hint::black_box(groups.load(Ordering::Relaxed));
                Ok(())
            })?
        }
    };

    let (device_write_mib_s, device_read_mib_s) = temp_file_ceiling(mgr, ceiling_dir, 256, tracer)?;
    Ok(LayerTimes {
        plan_us,
        scan_s,
        filter_s,
        execute_s,
        join_s,
        aggregate_s,
        device_write_mib_s,
        device_read_mib_s,
    })
}
