//! Host-speed calibration. A shared 2-core host runs the same fixed work
//! up to 1.8× slower in one minute than in the next, and the slow spells
//! last longer than a run, so wall times taken minutes apart differ by
//! more than any program change worth gating. The benchmark therefore
//! times a fixed kernel of its own around each slice of the measured phase
//! and reports times scaled to a reference speed. The kernel is benchmark
//! code: a change to the engine cannot move it.

use crate::client::{Load, Outcome, Phase, DEADLINE};
use crate::host;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel threads, one per engine worker thread (the service default on
/// the 2-core host).
const THREADS: usize = 2;
/// Each thread's table: 8 MiB, larger than the caches.
const TABLE_WORDS: usize = 1 << 20;
/// Kernel runs per calibration; the median is kept.
const REPS: usize = 3;
/// The kernel's time on the 2-core host the benchmark was tuned on, when
/// that host was quiet. Scaled times are seconds at this speed.
pub const REFERENCE_S: f64 = 0.025;
/// Length of one slice of the measured phase.
const SLICE: Duration = Duration::from_secs(2);

/// The work one kernel thread does, in three parts of similar length, one
/// for each kind of work the queries do: random reads and writes over a
/// table larger than the caches (a high-cardinality hash table), a
/// sequential scan hashed into a small histogram (a scan feeding a
/// low-cardinality aggregate), and dependent integer arithmetic with a
/// branch (hashing and comparisons).
fn kernel_thread(table: &mut [u64]) -> u64 {
    let mask = TABLE_WORDS - 1;
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15_u64, 0u64);
    for _ in 0..1 << 16 {
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9).rotate_left(31) ^ acc;
        let i = x as usize & mask;
        table[i] = table[i].wrapping_add(x);
        acc = acc.wrapping_add(table[(x >> 40) as usize & mask]);
    }
    let mut hist = [0u64; 4096];
    for pass in 0..10u64 {
        for &v in &table[..TABLE_WORDS / 4] {
            let h = (v ^ pass)
                .wrapping_mul(0xbf58_476d_1ce4_e5b9)
                .rotate_left(29);
            hist[(h >> 52) as usize] = hist[(h >> 52) as usize].wrapping_add(v);
        }
    }
    for i in 0..1u64 << 22 {
        x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (x >> 17) ^ i;
        if x & 7 == 3 {
            x = x.rotate_left(5);
        }
    }
    acc ^ x ^ hist.iter().fold(0, |a, &h| a ^ h)
}

/// One kernel run on all threads at once. Returns the slowest thread's
/// time.
fn kernel(tables: &mut [Vec<u64>]) -> f64 {
    std::thread::scope(|s| {
        let handles: Vec<_> = tables
            .iter_mut()
            .map(|table| {
                s.spawn(move || {
                    let start = Instant::now();
                    black_box(kernel_thread(table));
                    start.elapsed().as_secs_f64()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread panicked"))
            .fold(0.0, f64::max)
    })
}

/// The host's current slowdown: the kernel's median time over the
/// reference time (above 1 when the host is slower than the reference).
/// The tables are freed before it returns, so they add nothing to the
/// engine's resident set.
pub fn slowdown() -> f64 {
    let mut tables: Vec<Vec<u64>> = (0..THREADS)
        .map(|t| (0..TABLE_WORDS as u64).map(|i| i ^ t as u64).collect())
        .collect();
    let mut times: Vec<f64> = (0..REPS).map(|_| kernel(&mut tables)).collect();
    drop(tables);
    host::release_free_heap();
    times.sort_by(f64::total_cmp);
    times[REPS / 2] / REFERENCE_S
}

/// A measured phase, cut into slices with the host's slowdown measured
/// between them.
pub struct Scaled {
    /// Every query, with raw latencies; `wall` sums the slices' walls.
    pub phase: Phase,
    /// Charged latencies, sorted; a correct query's latency is divided by
    /// its slice's slowdown, a failed one counts at the deadline.
    pub latencies: Vec<f64>,
    /// Σ slice wall ÷ the slice's slowdown, in seconds.
    pub wall: f64,
    /// The slowdown measured before each slice and after the last.
    pub slowdowns: Vec<f64>,
    /// Peak resident set over the slices, in MiB; calibration excluded.
    pub rss_peak_mib: f64,
}

/// Run the closed loop for `seconds` in slices, calibrating between them.
/// A slice's slowdown is the mean of the calibrations on either side.
pub fn run(load: &Load, seconds: Duration) -> Scaled {
    let start = Instant::now();
    let mut slowdowns = vec![slowdown()];
    let (mut slices, mut rss_peak_mib) = (Vec::new(), 0.0_f64);
    while start.elapsed() < seconds {
        host::reset_peak_rss();
        slices.push(load.run(SLICE.min(seconds.saturating_sub(start.elapsed())), None));
        rss_peak_mib = rss_peak_mib.max(host::peak_rss_mib());
        slowdowns.push(slowdown());
    }
    let (mut records, mut latencies, mut wall, mut scaled_wall) =
        (Vec::new(), Vec::new(), Duration::ZERO, 0.0);
    for (i, slice) in slices.into_iter().enumerate() {
        let f = (slowdowns[i] + slowdowns[i + 1]) / 2.0;
        latencies.extend(slice.records.iter().map(|r| match r.outcome {
            Outcome::Correct => r.latency.as_secs_f64() / f,
            _ => DEADLINE.as_secs_f64(),
        }));
        wall += slice.wall;
        scaled_wall += slice.wall.as_secs_f64() / f;
        records.extend(slice.records);
    }
    latencies.sort_by(f64::total_cmp);
    Scaled {
        phase: Phase { records, wall },
        latencies,
        wall: scaled_wall,
        slowdowns,
        rss_peak_mib,
    }
}
