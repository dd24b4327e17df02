//! Baseline aggregation strategies (reproducing the comparison systems'
//! failure modes — see DESIGN.md, substitutions table).

pub mod inmemory;
pub(crate) mod keyser;
pub mod sortagg;
pub mod switch;

pub use inmemory::in_memory_aggregate;
pub use sortagg::sort_aggregate;
pub use switch::switch_aggregate;

#[cfg(test)]
mod tests {
    use super::switch::{CollectionScan, SwitchOutcome};
    use super::*;
    use crate::function::AggregateSpec;
    use crate::simple::{reference_aggregate, sorted_rows};
    use parking_lot::Mutex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rexa_buffer::{BufferManager, BufferManagerConfig};
    use rexa_exec::pipeline::{CancelToken, CollectionSource};
    use rexa_exec::{ChunkCollection, DataChunk, LogicalType, Vector, VECTOR_SIZE};
    use rexa_storage::scratch_path;
    use std::sync::Arc;

    fn mgr_with(limit: usize) -> Arc<BufferManager> {
        BufferManager::new(
            BufferManagerConfig::with_limit(limit)
                .page_size(4 << 10)
                .temp_dir(scratch_path("baseline")),
        )
        .unwrap()
    }

    fn make_input(rows: usize, groups: usize, seed: u64) -> ChunkCollection {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coll = ChunkCollection::new(vec![
            LogicalType::Int64,
            LogicalType::Int64,
            LogicalType::Varchar,
        ]);
        let mut remaining = rows;
        while remaining > 0 {
            let n = remaining.min(VECTOR_SIZE);
            remaining -= n;
            let keys: Vec<i64> = (0..n).map(|_| rng.gen_range(0..groups) as i64).collect();
            let vals: Vec<i64> = keys.iter().map(|k| k + 3).collect();
            let strs: Vec<String> = keys.iter().map(|k| format!("group-{k}")).collect();
            coll.push(DataChunk::new(vec![
                Vector::from_i64(keys),
                Vector::from_i64(vals),
                Vector::from_strs(strs),
            ]))
            .unwrap();
        }
        coll
    }

    fn plan() -> (Vec<usize>, Vec<AggregateSpec>) {
        (
            vec![0],
            vec![
                AggregateSpec::count_star(),
                AggregateSpec::sum(1),
                AggregateSpec::any_value(2),
                AggregateSpec::min(1),
            ],
        )
    }

    fn want(coll: &ChunkCollection) -> Vec<Vec<rexa_exec::Value>> {
        let (g, a) = plan();
        let source = CollectionSource::new(coll);
        reference_aggregate(&source, coll.types(), &g, &a).unwrap()
    }

    #[test]
    fn inmemory_matches_reference() {
        let coll = make_input(20_000, 700, 11);
        let mgr = mgr_with(256 << 20);
        let (g, a) = plan();
        let out = Mutex::new(Vec::new());
        let source = CollectionSource::new(&coll);
        let groups = in_memory_aggregate(
            &mgr,
            &source,
            coll.types(),
            &g,
            &a,
            4,
            &CancelToken::new(),
            &|c| {
                out.lock().push(c);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(groups, 700);
        assert_eq!(sorted_rows(&out.lock()), want(&coll));
    }

    #[test]
    fn inmemory_aborts_when_over_limit() {
        let coll = make_input(50_000, 50_000, 12);
        let mgr = mgr_with(1 << 20); // 1 MiB: nowhere near enough
        let (g, a) = plan();
        let source = CollectionSource::new(&coll);
        let err = in_memory_aggregate(
            &mgr,
            &source,
            coll.types(),
            &g,
            &a,
            4,
            &CancelToken::new(),
            &|_| Ok(()),
        )
        .unwrap_err();
        assert!(err.is_oom(), "expected abort, got {err}");
        // Reservations must be released after the failed run.
        drop(source);
        assert_eq!(mgr.stats().non_paged, 0);
    }

    #[test]
    fn sortagg_matches_reference_in_memory_run() {
        let coll = make_input(10_000, 300, 13);
        let mgr = mgr_with(256 << 20);
        let (g, a) = plan();
        let out = Mutex::new(Vec::new());
        let source = CollectionSource::new(&coll);
        let stats = sort_aggregate(
            &mgr,
            &source,
            coll.types(),
            &g,
            &a,
            &CancelToken::new(),
            &|c| {
                out.lock().push(c);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(stats.groups, 300);
        assert_eq!(stats.runs, 0, "should have fit in one in-memory run");
        assert_eq!(sorted_rows(&out.lock()), want(&coll));
    }

    #[test]
    fn sortagg_spills_runs_and_matches_reference() {
        let coll = make_input(40_000, 35_000, 14);
        let mgr = mgr_with(2 << 20); // force multiple runs
        let (g, a) = plan();
        let out = Mutex::new(Vec::new());
        let source = CollectionSource::new(&coll);
        let stats = sort_aggregate(
            &mgr,
            &source,
            coll.types(),
            &g,
            &a,
            &CancelToken::new(),
            &|c| {
                out.lock().push(c);
                Ok(())
            },
        )
        .unwrap();
        assert!(
            stats.runs >= 2,
            "expected external runs, got {}",
            stats.runs
        );
        assert!(stats.spill_bytes > 0);
        assert_eq!(sorted_rows(&out.lock()), want(&coll));
    }

    #[test]
    fn switch_stays_in_memory_when_it_fits() {
        let coll = make_input(10_000, 200, 15);
        let mgr = mgr_with(256 << 20);
        let (g, a) = plan();
        let out = Mutex::new(Vec::new());
        let outcome = switch_aggregate(
            &mgr,
            &CollectionScan(&coll),
            coll.types(),
            &g,
            &a,
            4,
            &CancelToken::new(),
            &|c| {
                out.lock().push(c);
                Ok(())
            },
        )
        .unwrap();
        assert!(!outcome.switched());
        assert_eq!(outcome.groups(), 200);
        assert_eq!(sorted_rows(&out.lock()), want(&coll));
    }

    #[test]
    fn switch_falls_off_the_cliff_when_it_does_not_fit() {
        let coll = make_input(40_000, 38_000, 16);
        let mgr = mgr_with(2 << 20);
        let (g, a) = plan();
        let out = Mutex::new(Vec::new());
        let outcome = switch_aggregate(
            &mgr,
            &CollectionScan(&coll),
            coll.types(),
            &g,
            &a,
            4,
            &CancelToken::new(),
            &|c| {
                out.lock().push(c);
                Ok(())
            },
        )
        .unwrap();
        assert!(outcome.switched(), "expected the cliff");
        assert_eq!(sorted_rows(&out.lock()), want(&coll));
        match outcome {
            SwitchOutcome::SwitchedToExternal { stats } => assert!(stats.runs >= 1),
            _ => unreachable!(),
        }
    }

    #[test]
    fn cancellation_stops_baselines() {
        let coll = make_input(5_000, 100, 17);
        let mgr = mgr_with(256 << 20);
        let (g, a) = plan();
        let cancel = CancelToken::new();
        cancel.cancel();
        let source = CollectionSource::new(&coll);
        let err =
            sort_aggregate(&mgr, &source, coll.types(), &g, &a, &cancel, &|_| Ok(())).unwrap_err();
        assert!(matches!(err, rexa_exec::Error::Cancelled));
        let source = CollectionSource::new(&coll);
        let err = in_memory_aggregate(&mgr, &source, coll.types(), &g, &a, 2, &cancel, &|_| Ok(()))
            .unwrap_err();
        assert!(matches!(err, rexa_exec::Error::Cancelled));
    }
}
