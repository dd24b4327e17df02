//! The workloads: what each one loads, under which memory limit, which
//! statement its clients run, and the oracle answer every query is checked
//! against.

use rexa_buffer::{BufferManager, BufferManagerConfig, Table, TableBuilder};
use rexa_core::simple::reference_aggregate;
use rexa_core::AggregateSpec;
use rexa_exec::pipeline::{ChunkReader, ChunkSource};
use rexa_exec::{ChunkCollection, DataChunk, LogicalType, Result, Value, Vector};
use rexa_service::{QueryInput, QueryService, ServiceConfig};
use rexa_storage::DatabaseFile;
use rexa_tpch::{lineitem_schema, LineitemColumn as L, LineitemGenerator};
use std::cmp::Ordering;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MIB: usize = 1 << 20;

/// The statement a workload's clients run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Statement {
    /// TPC-H Q1's shape: filter, two low-cardinality keys, ORDER BY.
    Q1,
    /// Figure 1's grouping 4, wide: one group per order.
    OrderKey,
    /// Lineitem joined to supplier, grouped by nation.
    Join,
}

impl Statement {
    pub fn sql(self) -> &'static str {
        match self {
            Statement::Q1 => {
                "SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice), \
                 AVG(l_quantity), AVG(l_extendedprice), AVG(l_discount), COUNT(*) \
                 FROM lineitem WHERE l_shipdate <= '1998-09-02' \
                 GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus"
            }
            Statement::OrderKey => {
                "SELECT l_orderkey, COUNT(*), SUM(l_quantity), ANY_VALUE(l_comment), \
                 ANY_VALUE(l_shipinstruct) FROM lineitem GROUP BY l_orderkey"
            }
            Statement::Join => {
                "SELECT s_nation, COUNT(*), SUM(l_extendedprice) FROM lineitem \
                 JOIN supplier ON lineitem.l_suppkey = supplier.s_suppkey \
                 GROUP BY s_nation ORDER BY s_nation"
            }
        }
    }

    /// The kind of each output column, in select-list order.
    fn columns(self) -> &'static [Kind] {
        use Kind::*;
        match self {
            Statement::Q1 => &[Key, Key, Exact, Exact, Approx, Approx, Approx, Exact],
            Statement::OrderKey => &[Key, Exact, Exact, NonNull, NonNull],
            Statement::Join => &[Key, Exact, Exact],
        }
    }
}

/// One workload of the benchmark.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Lineitem scale factor.
    pub sf: f64,
    /// Buffer-manager memory limit.
    pub limit: usize,
    /// Closed-loop clients.
    pub clients: usize,
    pub statement: Statement,
}

/// The workloads. Sizes are chosen so that a run completes enough queries
/// for a median and a tail percentile; what each workload is about is the
/// ratio of its data and intermediates to the memory limit.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "q1_resident",
        sf: 0.05,
        limit: 4096 * MIB,
        clients: 1,
        statement: Statement::Q1,
    },
    Spec {
        name: "orderkey_spill",
        sf: 0.25,
        limit: 128 * MIB,
        clients: 1,
        statement: Statement::OrderKey,
    },
    Spec {
        name: "join_2c",
        sf: 0.05,
        limit: 80 * MIB,
        clients: 2,
        statement: Statement::Join,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().find(|s| s.name == name).cloned()
}

const NATIONS: [&str; 25] = [
    "ALGERIA",
    "ARGENTINA",
    "BRAZIL",
    "CANADA",
    "CHINA",
    "EGYPT",
    "ETHIOPIA",
    "FRANCE",
    "GERMANY",
    "INDIA",
    "INDONESIA",
    "IRAN",
    "IRAQ",
    "JAPAN",
    "JORDAN",
    "KENYA",
    "MOROCCO",
    "MOZAMBIQUE",
    "PERU",
    "ROMANIA",
    "RUSSIA",
    "SAUDI ARABIA",
    "UNITED KINGDOM",
    "UNITED STATES",
    "VIETNAM",
];

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The supplier count `LineitemGenerator` draws `l_suppkey` from.
fn supplier_count(sf: f64) -> i64 {
    ((10_000.0 * sf).round() as i64).max(1)
}

/// The nation of each supplier key (index 0 unused), drawn from the seed.
fn supplier_nations(sf: f64, seed: u64) -> Vec<&'static str> {
    (0..=supplier_count(sf))
        .map(|k| NATIONS[(splitmix(seed ^ (k as u64).rotate_left(17)) % 25) as usize])
        .collect()
}

/// The `supplier(s_suppkey, s_nation)` table.
fn supplier_table(sf: f64, seed: u64) -> ChunkCollection {
    let nations = supplier_nations(sf, seed);
    let mut coll = ChunkCollection::new(vec![LogicalType::Int64, LogicalType::Varchar]);
    coll.push(DataChunk::new(vec![
        Vector::from_i64((1..nations.len() as i64).collect()),
        Vector::from_strs(&nations[1..]),
    ]))
    .expect("supplier schema");
    coll
}

/// A loaded, serving environment: the paged lineitem table (and supplier,
/// for the join) registered with a query service under the memory limit.
pub struct Env {
    pub service: QueryService,
    pub mgr: Arc<BufferManager>,
    pub table: Arc<Table>,
    /// Time generating the rows (lineitem, and supplier for the join).
    pub generate: Duration,
    /// Time appending them to the paged table.
    pub load: Duration,
    db: Arc<DatabaseFile>,
    db_path: std::path::PathBuf,
}

impl Env {
    /// Generate lineitem and stream it straight into a paged table in
    /// `dir`, so the whole generated collection never exists in memory.
    pub fn build(spec: &Spec, seed: u64, dir: &Path) -> Result<Env> {
        std::fs::create_dir_all(dir)?;
        let mgr = BufferManager::new(
            BufferManagerConfig::with_limit(spec.limit).temp_dir(dir.join("spill")),
        )?;
        let db_path = dir.join("lineitem.db");
        let db = Arc::new(DatabaseFile::create(&db_path, mgr.page_size())?);
        let mut builder = TableBuilder::new(Arc::clone(&mgr), Arc::clone(&db), lineitem_schema());
        let (mut generate, mut load) = (Duration::ZERO, Duration::ZERO);
        let mut gen = LineitemGenerator::new(spec.sf, seed);
        loop {
            let t = Instant::now();
            let Some(chunk) = gen.next() else { break };
            generate += t.elapsed();
            let t = Instant::now();
            builder.append(&chunk)?;
            load += t.elapsed();
        }
        let t = Instant::now();
        let table = Arc::new(builder.finish()?);
        load += t.elapsed();

        let service = QueryService::new(Arc::clone(&mgr), ServiceConfig::default());
        let names = L::ALL.iter().map(|c| c.name().to_string()).collect();
        service.register_table("lineitem", names, QueryInput::Table(Arc::clone(&table)))?;
        if spec.statement == Statement::Join {
            let t = Instant::now();
            let supplier = Arc::new(supplier_table(spec.sf, seed));
            generate += t.elapsed();
            service.register_table(
                "supplier",
                vec!["s_suppkey".into(), "s_nation".into()],
                QueryInput::Collection(supplier),
            )?;
        }
        Ok(Env {
            service,
            mgr,
            table,
            generate,
            load,
            db,
            db_path,
        })
    }

    /// Shut the service down, drop the table and the manager, and delete
    /// the database file this benchmark created. What the engine leaves
    /// behind in its spill directories stays, for the hygiene count.
    pub fn close(self) {
        let Env {
            service,
            mgr,
            table,
            db,
            db_path,
            ..
        } = self;
        drop(service);
        drop(table);
        drop(mgr);
        drop(db);
        let _ = std::fs::remove_file(db_path);
    }
}

/// How an output column is checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// Grouping key: exact, and the sort order of the comparison.
    Key,
    /// Integer aggregate: exact.
    Exact,
    /// Float aggregate: within 1e-9 relative.
    Approx,
    /// `ANY_VALUE`: any non-null value of the group.
    NonNull,
}

/// One checked column of an answer.
#[derive(Clone, Debug, PartialEq)]
enum Column {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<String>),
    /// An `ANY_VALUE` column: only its non-nullness is checked.
    NonNull,
}

impl Column {
    fn cmp_rows(&self, a: usize, b: usize) -> Ordering {
        match self {
            Column::Int(v) => v[a].cmp(&v[b]),
            Column::Float(v) => v[a].total_cmp(&v[b]),
            Column::Str(v) => v[a].cmp(&v[b]),
            Column::NonNull => Ordering::Equal,
        }
    }

    fn push(&mut self, v: Value) -> std::result::Result<(), String> {
        match (self, v) {
            (Column::Int(c), Value::Int64(x)) => c.push(x),
            (Column::Float(c), Value::Float64(x)) => c.push(x),
            (Column::Str(c), Value::Varchar(s)) => c.push(s),
            (_, v) => return Err(format!("unexpected value {v:?}")),
        }
        Ok(())
    }
}

/// A query answer in a compact columnar form, rows sorted by the keys.
#[derive(Clone, Debug)]
pub struct Answer {
    rows: usize,
    cols: Vec<Column>,
}

fn empty_column(kind: Kind, ty: LogicalType) -> std::result::Result<Column, String> {
    Ok(match (kind, ty) {
        (Kind::NonNull, _) => Column::NonNull,
        (_, LogicalType::Float64) => Column::Float(Vec::new()),
        (_, LogicalType::Varchar) => Column::Str(Vec::new()),
        (_, LogicalType::Int64) => Column::Int(Vec::new()),
        (_, ty) => return Err(format!("unexpected output type {ty:?}")),
    })
}

impl Answer {
    /// Read a query's output chunks. Fails if an aggregate is NULL.
    pub fn from_output(
        statement: Statement,
        output: &ChunkCollection,
    ) -> std::result::Result<Answer, String> {
        let kinds = statement.columns();
        if output.types().len() != kinds.len() {
            return Err(format!(
                "{} output columns, expected {}",
                output.types().len(),
                kinds.len()
            ));
        }
        let mut cols: Vec<Column> = kinds
            .iter()
            .zip(output.types())
            .map(|(&k, &ty)| empty_column(k, ty))
            .collect::<std::result::Result<_, _>>()?;
        for chunk in output.chunks() {
            for (ci, col) in cols.iter_mut().enumerate() {
                let v = chunk.column(ci);
                if (0..chunk.len()).any(|r| !v.validity().is_valid(r)) {
                    return Err(format!("NULL in output column {ci}"));
                }
                match col {
                    Column::Int(c) => c.extend_from_slice(v.i64s()),
                    Column::Float(c) => c.extend_from_slice(v.f64s()),
                    Column::Str(c) => c.extend((0..chunk.len()).map(|r| v.str_at(r).to_string())),
                    Column::NonNull => {}
                }
            }
        }
        Ok(Answer {
            rows: output.rows(),
            cols,
        }
        .sorted(kinds))
    }

    /// Rows reordered by the key columns.
    fn sorted(self, kinds: &[Kind]) -> Answer {
        let keys: Vec<&Column> = kinds
            .iter()
            .zip(&self.cols)
            .filter(|(k, _)| **k == Kind::Key)
            .map(|(_, c)| c)
            .collect();
        let mut perm: Vec<usize> = (0..self.rows).collect();
        perm.sort_unstable_by(|&a, &b| {
            keys.iter()
                .map(|c| c.cmp_rows(a, b))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        });
        let cols = self
            .cols
            .iter()
            .map(|c| match c {
                Column::Int(v) => Column::Int(perm.iter().map(|&i| v[i]).collect()),
                Column::Float(v) => Column::Float(perm.iter().map(|&i| v[i]).collect()),
                Column::Str(v) => Column::Str(perm.iter().map(|&i| v[i].clone()).collect()),
                Column::NonNull => Column::NonNull,
            })
            .collect();
        Answer {
            rows: self.rows,
            cols,
        }
    }

    /// `Ok` when `self` (a query's answer) matches `expected`: same group
    /// count, keys and integer aggregates exact, floats within 1e-9
    /// relative.
    pub fn check(&self, expected: &Answer) -> std::result::Result<(), String> {
        if self.rows != expected.rows {
            return Err(format!("{} groups, expected {}", self.rows, expected.rows));
        }
        for (ci, (got, want)) in self.cols.iter().zip(&expected.cols).enumerate() {
            let bad = match (got, want) {
                (Column::Int(g), Column::Int(w)) => g.iter().zip(w).position(|(a, b)| a != b),
                (Column::Str(g), Column::Str(w)) => g.iter().zip(w).position(|(a, b)| a != b),
                (Column::Float(g), Column::Float(w)) => g
                    .iter()
                    .zip(w)
                    .position(|(a, b)| (a - b).abs() > 1e-9 * a.abs().max(b.abs())),
                (Column::NonNull, Column::NonNull) => None,
                _ => return Err(format!("column {ci} has the wrong type")),
            };
            if let Some(row) = bad {
                return Err(format!("column {ci} differs at sorted row {row}"));
            }
        }
        Ok(())
    }

    /// Change one aggregate, so the correctness gate can be shown to fire.
    pub fn corrupt(&mut self) {
        for col in &mut self.cols[1..] {
            match col {
                Column::Int(v) if !v.is_empty() => return v[0] += 1,
                Column::Float(v) if !v.is_empty() => return v[0] *= 1.5,
                _ => {}
            }
        }
    }
}

/// Days since 1970-01-01 of a proleptic Gregorian date.
fn days_from_civil(y: i64, m: i64, d: i64) -> i32 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = y.div_euclid(400);
    let yoe = y - era * 400;
    let doy = (153 * (m + if m > 2 { -3 } else { 9 }) + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    (era * 146_097 + doe - 719_468) as i32
}

/// Lineitem regenerated from the seed and reduced to the columns the
/// oracle aggregates: an input the engine under test never touched.
struct OracleSource {
    statement: Statement,
    sf: f64,
    seed: u64,
}

struct OracleReader {
    statement: Statement,
    gen: LineitemGenerator,
    nations: Vec<&'static str>,
    shipdate_max: i32,
    current: DataChunk,
}

impl ChunkSource for OracleSource {
    fn reader(&self) -> Box<dyn ChunkReader + '_> {
        Box::new(OracleReader {
            statement: self.statement,
            gen: LineitemGenerator::new(self.sf, self.seed),
            nations: supplier_nations(self.sf, self.seed),
            shipdate_max: days_from_civil(1998, 9, 2),
            current: DataChunk::empty(&[]),
        })
    }
}

impl ChunkReader for OracleReader {
    fn next(&mut self) -> Result<Option<&DataChunk>> {
        let Some(c) = self.gen.next() else {
            return Ok(None);
        };
        let col = |l: L| c.column(l.index());
        self.current = match self.statement {
            Statement::Q1 => {
                let keep: Vec<usize> = (0..c.len())
                    .filter(|&r| col(L::ShipDate).i32s()[r] <= self.shipdate_max)
                    .collect();
                let ints =
                    |l: L| Vector::from_i64(keep.iter().map(|&r| col(l).i64s()[r]).collect());
                let strs = |l: L| Vector::from_strs(keep.iter().map(|&r| col(l).str_at(r)));
                DataChunk::new(vec![
                    strs(L::ReturnFlag),
                    strs(L::LineStatus),
                    ints(L::Quantity),
                    ints(L::ExtendedPrice),
                    ints(L::Discount),
                ])
            }
            Statement::OrderKey => c.project(&[L::OrderKey.index(), L::Quantity.index()]),
            Statement::Join => DataChunk::new(vec![
                Vector::from_strs(
                    col(L::SuppKey)
                        .i64s()
                        .iter()
                        .map(|&k| self.nations[k as usize]),
                ),
                col(L::ExtendedPrice).clone(),
            ]),
        };
        Ok(Some(&self.current))
    }
}

/// The expected answer, from the single-threaded reference aggregator
/// (`rexa_core::simple`) over regenerated rows.
pub fn expected_answer(spec: &Spec, seed: u64) -> Result<Answer> {
    let (schema, groups, aggs) = match spec.statement {
        Statement::Q1 => (
            vec![
                LogicalType::Varchar,
                LogicalType::Varchar,
                LogicalType::Int64,
                LogicalType::Int64,
                LogicalType::Int64,
            ],
            vec![0, 1],
            vec![
                AggregateSpec::sum(2),
                AggregateSpec::sum(3),
                AggregateSpec::avg(2),
                AggregateSpec::avg(3),
                AggregateSpec::avg(4),
                AggregateSpec::count_star(),
            ],
        ),
        Statement::OrderKey => (
            vec![LogicalType::Int64, LogicalType::Int64],
            vec![0],
            vec![AggregateSpec::count_star(), AggregateSpec::sum(1)],
        ),
        Statement::Join => (
            vec![LogicalType::Varchar, LogicalType::Int64],
            vec![0],
            vec![AggregateSpec::count_star(), AggregateSpec::sum(1)],
        ),
    };
    let source = OracleSource {
        statement: spec.statement,
        sf: spec.sf,
        seed,
    };
    let rows = reference_aggregate(&source, &schema, &groups, &aggs)?;
    let kinds = spec.statement.columns();
    let mut cols: Vec<Column> = kinds
        .iter()
        .map(|k| match k {
            Kind::NonNull => Column::NonNull,
            Kind::Approx => Column::Float(Vec::new()),
            _ => Column::Int(Vec::new()),
        })
        .collect();
    let n = rows.len();
    for (ri, row) in rows.into_iter().enumerate() {
        let mut values = row.into_iter();
        for col in cols.iter_mut().filter(|c| **c != Column::NonNull) {
            let v = values.next().unwrap_or(Value::Null);
            if ri == 0 {
                if let (Column::Int(_), Value::Varchar(_)) = (&*col, &v) {
                    *col = Column::Str(Vec::new());
                }
            }
            col.push(v).map_err(rexa_exec::Error::Internal)?;
        }
    }
    Ok(Answer { rows: n, cols }.sorted(kinds))
}
