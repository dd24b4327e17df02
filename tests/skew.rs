//! Skew robustness (paper Section V, "Data Distributions"): because tuples
//! are partitioned *after* thread-local pre-aggregation, heavy hitters are
//! reduced before any data is exchanged and partitions stay balanced. These
//! tests check correctness and balance under Zipf and clustered inputs.

use rexa_buffer::{BufferManager, BufferManagerConfig};
use rexa_core::simple::{reference_aggregate, sorted_rows};
use rexa_core::{hash_aggregate_collect, AggregateConfig, AggregateSpec, HashAggregatePlan};
use rexa_exec::pipeline::CollectionSource;
use rexa_exec::VECTOR_SIZE;
use rexa_storage::scratch_path;
use std::sync::Arc;

fn mgr(limit: usize) -> Arc<BufferManager> {
    BufferManager::new(
        BufferManagerConfig::with_limit(limit)
            .page_size(8 << 10)
            .temp_dir(scratch_path("skew")),
    )
    .unwrap()
}

fn config() -> AggregateConfig {
    AggregateConfig {
        threads: 4,
        radix_bits: Some(4),
        ht_capacity: 4 * VECTOR_SIZE,
        output_chunk_size: VECTOR_SIZE,
        reset_fill_percent: 66,
        ..Default::default()
    }
}

#[test]
fn zipf_heavy_hitters_are_exact() {
    for s in [0.8, 1.0, 1.5] {
        let coll = rexa_tpch::zipf_table(60_000, 5_000, s, 42);
        let plan = HashAggregatePlan {
            group_cols: vec![0],
            aggregates: vec![AggregateSpec::count_star(), AggregateSpec::sum(1)],
        };
        let m = mgr(64 << 20);
        let source = CollectionSource::new(&coll);
        let (out, stats) =
            hash_aggregate_collect(&m, &source, coll.types(), &plan, &config()).unwrap();
        let source = CollectionSource::new(&coll);
        let want =
            reference_aggregate(&source, coll.types(), &plan.group_cols, &plan.aggregates).unwrap();
        assert_eq!(sorted_rows(out.chunks()), want, "s={s}");
        assert_eq!(stats.groups, want.len());
    }
}

#[test]
fn pre_aggregation_reduces_heavy_hitters_before_partitioning() {
    // With Zipf(1.5) over 5k keys, 60k rows collapse to ~5k groups inside
    // the thread-local tables; the materialized intermediate volume must be
    // close to the number of *groups* per thread, not the number of rows.
    let coll = rexa_tpch::zipf_table(60_000, 5_000, 1.5, 7);
    let plan = HashAggregatePlan {
        group_cols: vec![0],
        aggregates: vec![AggregateSpec::count_star()],
    };
    let m = mgr(256 << 20);
    let source = CollectionSource::new(&coll);
    let (_, stats) = hash_aggregate_collect(&m, &source, coll.types(), &plan, &config()).unwrap();
    // Intermediate pages allocated (pages x 8 KiB) should hold far fewer
    // than 60k rows' worth (~2 MiB raw); heavy hitters got reduced in place.
    let intermediate_bytes = stats.buffer.allocations as usize * (8 << 10);
    assert!(
        intermediate_bytes < 60_000 * 32 / 2,
        "pre-aggregation did not reduce: {intermediate_bytes} bytes allocated"
    );
}

#[test]
fn clustered_keys_are_exact_and_cheap() {
    // Runs of equal keys (the paper's "interesting orderings") hit the same
    // hash-table entry repeatedly: exact results, few materialized rows.
    let coll = rexa_tpch::clustered_table(80_000, 256, 3);
    let plan = HashAggregatePlan {
        group_cols: vec![0],
        aggregates: vec![
            AggregateSpec::count_star(),
            AggregateSpec::min(1),
            AggregateSpec::max(1),
        ],
    };
    let m = mgr(64 << 20);
    let source = CollectionSource::new(&coll);
    let (out, stats) = hash_aggregate_collect(&m, &source, coll.types(), &plan, &config()).unwrap();
    let source = CollectionSource::new(&coll);
    let want =
        reference_aggregate(&source, coll.types(), &plan.group_cols, &plan.aggregates).unwrap();
    assert_eq!(sorted_rows(out.chunks()), want);
    // ~80k/256 = ~313 groups (+ chunk-boundary splits).
    assert!(stats.groups < 600, "{}", stats.groups);
}

#[test]
fn skewed_partitions_stay_balanced() {
    // Partition sizes reflect *groups* (hashes are uniform over groups),
    // not raw row counts — the property that makes phase 2 balanced even
    // under heavy skew.
    let coll = rexa_tpch::zipf_table(100_000, 20_000, 1.2, 11);
    let plan = HashAggregatePlan {
        group_cols: vec![0],
        aggregates: vec![AggregateSpec::count_star()],
    };
    let m = mgr(256 << 20);
    let source = CollectionSource::new(&coll);
    let (out, stats) = hash_aggregate_collect(&m, &source, coll.types(), &plan, &config()).unwrap();
    // Count output rows per radix partition by recomputing each group's
    // radix from its key hash.
    let mut per_partition = vec![0usize; stats.partitions];
    for chunk in out.chunks() {
        for &k in chunk.column(0).i64s() {
            let h = rexa_exec::hashing::hash_u64(k as u64);
            per_partition[rexa_exec::hashing::radix(h, 4)] += 1;
        }
    }
    let max = *per_partition.iter().max().unwrap() as f64;
    let avg = per_partition.iter().sum::<usize>() as f64 / per_partition.len() as f64;
    assert!(
        max / avg < 1.25,
        "partition imbalance {max}/{avg}: {per_partition:?}"
    );
}

#[test]
fn zipf_under_memory_pressure_spills_and_stays_exact() {
    let coll = rexa_tpch::zipf_table(120_000, 100_000, 0.4, 5); // mild skew, many groups
    let plan = HashAggregatePlan {
        group_cols: vec![0],
        aggregates: vec![AggregateSpec::sum(1), AggregateSpec::avg(1)],
    };
    let m = mgr(3 << 20);
    let source = CollectionSource::new(&coll);
    let (out, stats) = hash_aggregate_collect(&m, &source, coll.types(), &plan, &config()).unwrap();
    assert!(stats.buffer.temp_bytes_written > 0, "{:?}", stats.buffer);
    let source = CollectionSource::new(&coll);
    let want =
        reference_aggregate(&source, coll.types(), &plan.group_cols, &plan.aggregates).unwrap();
    assert_eq!(sorted_rows(out.chunks()).len(), want.len());
    assert_eq!(sorted_rows(out.chunks()), want);
}
