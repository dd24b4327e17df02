//! Property test: scatter → (optional spill/reload cycles) → gather is the
//! identity, for arbitrary schemas, row mixes, page sizes, and split
//! points — the core guarantee of the spillable page layout.

use proptest::prelude::*;
use rexa_buffer::{BufferManager, BufferManagerConfig};
use rexa_exec::{hashing, LogicalType, Value, Vector};
use rexa_layout::{TupleDataCollection, TupleDataLayout};
use rexa_storage::scratch_path;
use std::sync::Arc;

fn value_strategy(ty: LogicalType) -> BoxedStrategy<Value> {
    match ty {
        LogicalType::Int32 => any::<i32>().prop_map(Value::Int32).boxed(),
        LogicalType::Int64 => any::<i64>().prop_map(Value::Int64).boxed(),
        LogicalType::Float64 => any::<i64>()
            .prop_map(|v| Value::Float64(v as f64 / 7.0))
            .boxed(),
        LogicalType::Date => any::<i32>().prop_map(Value::Date).boxed(),
        LogicalType::Varchar => prop_oneof![
            // inline, boundary (12/13), long, and very long strings
            "[a-z]{0,12}".prop_map(Value::Varchar),
            "[a-z]{13}".prop_map(Value::Varchar),
            "[a-z]{14,80}".prop_map(Value::Varchar),
            "[a-z]{200,400}".prop_map(Value::Varchar),
        ]
        .boxed(),
    }
}

#[derive(Debug, Clone)]
struct RtCase {
    types: Vec<LogicalType>,
    rows: Vec<Vec<Value>>,
    page_kib: usize,
    /// Release pins (and thereby split pin epochs) every N rows.
    release_every: usize,
    /// Squeeze memory (forcing spills) between epochs.
    squeeze: bool,
}

fn case_strategy() -> impl Strategy<Value = RtCase> {
    let type_pool = prop::sample::select(vec![
        LogicalType::Int32,
        LogicalType::Int64,
        LogicalType::Float64,
        LogicalType::Date,
        LogicalType::Varchar,
    ]);
    (
        prop::collection::vec(type_pool, 1..4),
        1usize..3,
        0usize..400,
        prop::sample::select(vec![2usize, 4, 16]),
        1usize..120,
        any::<bool>(),
    )
        .prop_flat_map(|(types, _, n_rows, page_kib, release_every, squeeze)| {
            let row: Vec<BoxedStrategy<Value>> = types.iter().map(|&t| value_strategy(t)).collect();
            (
                prop::collection::vec(row, n_rows),
                Just(types),
                Just(page_kib),
                Just(release_every),
                Just(squeeze),
            )
                .prop_map(|(rows, types, page_kib, release_every, squeeze)| RtCase {
                    types,
                    rows,
                    page_kib,
                    release_every,
                    squeeze,
                })
        })
}

fn null_some(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    for (i, row) in rows.iter_mut().enumerate() {
        if i % 7 == 3 {
            let j = i % row.len();
            row[j] = Value::Null;
        }
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn scatter_spill_gather_is_identity(case in case_strategy()) {
        let rows = null_some(case.rows.clone());
        let page = case.page_kib << 10;
        let mgr = BufferManager::new(
            BufferManagerConfig::with_limit(usize::MAX)
                .page_size(page)
                .temp_dir(scratch_path("rt")),
        ).unwrap();
        let layout = Arc::new(TupleDataLayout::new(case.types.clone(), vec![8]));
        prop_assume!(layout.row_width() <= page); // rows must fit a page
        let mut coll = TupleDataCollection::new(Arc::clone(&mgr), layout);

        // Append in epochs, releasing pins (and optionally squeezing all
        // pages out to disk) between them.
        for epoch in rows.chunks(case.release_every.max(1)) {
            let mut cols: Vec<Vector> = case
                .types
                .iter()
                .map(|&t| Vector::empty(t))
                .collect();
            for row in epoch {
                for (c, v) in cols.iter_mut().zip(row) {
                    c.push_value(v).unwrap();
                }
            }
            let refs: Vec<&Vector> = cols.iter().collect();
            let hashes = hashing::hash_columns(&refs, epoch.len());
            let sel: Vec<u32> = (0..epoch.len() as u32).collect();
            coll.append(&refs, &hashes, &sel, None).unwrap();
            coll.release_pins();
            if case.squeeze {
                let before = mgr.memory_limit();
                mgr.set_memory_limit(0);
                // Drain: every unpinned page must go to disk.
                let _ = mgr.allocate_page(); // triggers eviction, then fails
                mgr.set_memory_limit(before);
            }
        }
        coll.verify().unwrap();
        prop_assert_eq!(coll.rows(), rows.len());

        // One more full spill/reload cycle, then compare.
        let pins = coll.pin_all().unwrap();
        let ptrs = coll.all_row_ptrs(&pins);
        let out = unsafe { coll.gather(&ptrs) };
        for (i, row) in rows.iter().enumerate() {
            for (c, want) in row.iter().enumerate() {
                let got = out.column(c).value(i);
                let eq = match (&got, want) {
                    (Value::Float64(a), Value::Float64(b)) => a.to_bits() == b.to_bits(),
                    _ => &got == want,
                };
                prop_assert!(eq, "row {i} col {c}: got {got:?}, want {want:?}");
            }
        }
        drop(pins);
        drop(coll);
        prop_assert_eq!(mgr.memory_used(), 0);
        prop_assert_eq!(mgr.stats().temp_bytes_on_disk, 0);
    }
}
