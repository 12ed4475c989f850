//! Seeded input generators: splitmix64, a zipf sampler, and the tables every
//! workload reads. Nothing here touches the program under test — the engine only
//! ever sees the files and frames these functions produce, and the same seed
//! always produces the same bytes.

use std::fmt::Write as _;

use df_core::dataframe::{Column, DataFrame};
use df_types::cell::Cell;
use df_types::domain::Domain;
use df_types::labels::Labels;

/// splitmix64 (Steele, Lea & Flood): one 64-bit state word, full period, and good
/// enough statistical quality for workload synthesis.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent stream for a named purpose, so adding a draw to one table
    /// does not shift every later table.
    pub fn fork(&self, stream: u64) -> Self {
        let mut child = SplitMix64(self.0 ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        child.next_u64();
        child
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for every `n`
    /// used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup: rank `r` is drawn with
/// probability proportional to `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(total);
        }
        for value in &mut cdf {
            *value /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Scatter zipf ranks over the key space with a fixed odd multiplier, so the hot
/// keys are not the numerically smallest ones (a range partitioner would otherwise
/// see them all in its first bucket). A bijection on `0..n` because the multiplier
/// is coprime to every `n` used (it is prime and larger than them).
pub fn scatter_rank(rank: usize, n: usize) -> usize {
    ((rank as u64 * 1_000_003) % n as u64) as usize
}

pub const EVENT_KEYS: u64 = 1_000;
pub const EVENT_CATS: u64 = 16;
/// The median of the uniform `x` column by construction; the ETL statement's first
/// filter keeps the half above it.
pub const EVENT_X_MEDIAN: f64 = 500.0;

/// `events.csv`: `rows` records × 10 columns. `id` is sorted (so a range filter on it
/// is chunk-skippable), `key` is uniform over 1 000 values, `cat` has 16 values,
/// `qty` is 2 % null, `note` is 5 % quoted-with-comma, and `pad` is never read by any
/// statement (what projection pushdown should never parse).
pub fn events_csv(seed: u64, rows: usize) -> String {
    let mut rng = SplitMix64::new(seed).fork(1);
    let mut out = String::with_capacity(rows * 72 + 64);
    out.push_str("id,ts,key,cat,flag,x,y,qty,note,pad\n");
    let mut ts: u64 = 1_600_000_000;
    for id in 0..rows {
        ts += rng.below(5);
        let key = rng.below(EVENT_KEYS);
        let cat = rng.below(EVENT_CATS);
        let flag = rng.chance(0.5);
        let x = rng.below(1_000_000) as f64 / 1000.0;
        let y = rng.below(200_000) as f64 / 100.0 - 1000.0;
        let _ = write!(out, "{id},{ts},{key},c{cat:02},{flag},{x:.3},{y:.2},");
        if !rng.chance(0.02) {
            let _ = write!(out, "{}", 1 + rng.below(100));
        }
        if rng.chance(0.05) {
            let _ = write!(out, ",\"n{}, rush\"", rng.below(1000));
        } else {
            let _ = write!(out, ",n{}", rng.below(1000));
        }
        let _ = writeln!(out, ",p{:011x}", rng.next_u64() & 0xFFF_FFFF_FFFF);
    }
    out
}

/// `dim.csv`: one row per event key with its `region` (8 values) and a `weight`.
pub fn dim_csv(seed: u64) -> String {
    let mut rng = SplitMix64::new(seed).fork(2);
    let mut out = String::from("key,region,weight\n");
    for key in 0..EVENT_KEYS {
        let _ = writeln!(
            out,
            "{key},r{},{:.2}",
            rng.below(8),
            rng.below(10_000) as f64 / 100.0
        );
    }
    out
}

fn typed(cells: Vec<Cell>, domain: Domain) -> Column {
    Column::with_domain(cells, domain)
}

fn frame(labels: Vec<&str>, columns: Vec<Column>) -> DataFrame {
    let rows = columns.first().map(Column::len).unwrap_or(0);
    DataFrame::from_parts(columns, Labels::positional(rows), Labels::from(labels))
        .expect("generated columns have equal lengths")
}

/// How the fact table's join key is distributed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Zipf with the given exponent: a few keys carry most rows.
    Zipf(f64),
    /// Every key equally likely — the control the skew penalty is measured against.
    Uniform,
}

/// The shuffle workloads' typed fact table: `rows` × 6 with `key` drawn from `dist`
/// over `keys` distinct values.
pub fn fact_frame(seed: u64, rows: usize, keys: usize, dist: KeyDist) -> DataFrame {
    let mut rng = SplitMix64::new(seed).fork(3);
    let zipf = match dist {
        KeyDist::Zipf(s) => Some(Zipf::new(keys, s)),
        KeyDist::Uniform => None,
    };
    let mut key = Vec::with_capacity(rows);
    let mut ts = Vec::with_capacity(rows);
    let mut amount = Vec::with_capacity(rows);
    let mut units = Vec::with_capacity(rows);
    let mut channel = Vec::with_capacity(rows);
    let mut ok = Vec::with_capacity(rows);
    let mut clock: i64 = 1_600_000_000;
    for _ in 0..rows {
        let rank = match &zipf {
            Some(z) => z.sample(&mut rng),
            None => rng.below(keys as u64) as usize,
        };
        key.push(Cell::Int(scatter_rank(rank, keys) as i64));
        clock += rng.below(4) as i64;
        ts.push(Cell::Int(clock));
        amount.push(Cell::Float(rng.below(100_000) as f64 / 100.0));
        units.push(Cell::Int(1 + rng.below(20) as i64));
        channel.push(Cell::Str(format!("ch{}", rng.below(6))));
        ok.push(Cell::Bool(rng.chance(0.9)));
    }
    frame(
        vec!["key", "ts", "amount", "units", "channel", "ok"],
        vec![
            typed(key, Domain::Int),
            typed(ts, Domain::Int),
            typed(amount, Domain::Float),
            typed(units, Domain::Int),
            typed(channel, Domain::Str),
            typed(ok, Domain::Bool),
        ],
    )
}

/// The shuffle workloads' dimension table: one row per key × 3 columns. Sized above
/// the engine's broadcast threshold so the join hash-shuffles both sides.
pub fn shuffle_dim_frame(seed: u64, keys: usize) -> DataFrame {
    let mut rng = SplitMix64::new(seed).fork(4);
    let key = (0..keys).map(|k| Cell::Int(k as i64)).collect();
    let segment = (0..keys)
        .map(|_| Cell::Str(format!("s{}", rng.below(12))))
        .collect();
    let rate = (0..keys)
        .map(|_| Cell::Float(rng.below(1_000) as f64 / 1000.0))
        .collect();
    frame(
        vec!["key", "segment", "rate"],
        vec![
            typed(key, Domain::Int),
            typed(segment, Domain::Str),
            typed(rate, Domain::Float),
        ],
    )
}

/// The wide frame: `rows` × `cols` floats, 1 % null, columns labelled `w0000…`.
pub fn wide_frame(seed: u64, rows: usize, cols: usize) -> DataFrame {
    let mut rng = SplitMix64::new(seed).fork(5);
    let labels: Vec<Cell> = (0..cols).map(|j| Cell::Str(format!("w{j:04}"))).collect();
    let columns = (0..cols)
        .map(|_| {
            let cells = (0..rows)
                .map(|_| {
                    if rng.chance(0.01) {
                        Cell::Null
                    } else {
                        Cell::Float(rng.below(2_000_000) as f64 / 1000.0 - 1000.0)
                    }
                })
                .collect();
            typed(cells, Domain::Float)
        })
        .collect();
    DataFrame::from_parts(columns, Labels::positional(rows), Labels::new(labels))
        .expect("generated columns have equal lengths")
}

/// One `service_mix` base table as CSV: `rows` × 6 with `id` sorted (so a range
/// predicate on it skips chunks). `variant` selects the stream, which changes the
/// values but not the shape, so every dashboard statement stays valid across a
/// refresh.
pub fn service_csv(seed: u64, rows: usize, table: u64, variant: u64) -> String {
    let mut rng = SplitMix64::new(seed).fork(16 + table * 4 + variant);
    let mut out = String::with_capacity(rows * 40 + 40);
    out.push_str("id,group,bucket,value,score,tag\n");
    for id in 0..rows {
        let _ = writeln!(
            out,
            "{id},{},b{},{:.2},{},t{}",
            rng.below(64),
            rng.below(12),
            rng.below(1_000_000) as f64 / 100.0,
            rng.below(1_000),
            rng.below(200)
        );
    }
    out
}

/// Every `every`-th row of `df` — the fixed sample the reference engine can afford.
pub fn sample_rows(df: &DataFrame, every: usize) -> DataFrame {
    let positions: Vec<usize> = (0..df.n_rows()).step_by(every.max(1)).collect();
    df.take_rows(&positions)
        .expect("sample positions are in range")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_the_reference_vector() {
        // First outputs for seed 1234567, from the reference C implementation.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let zipf = Zipf::new(1000, 1.1);
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..5000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let sample = draw(7);
        assert!(sample.iter().all(|&r| r < 1000));
        let top = sample.iter().filter(|&&r| r == 0).count();
        let tail = sample.iter().filter(|&&r| r == 999).count();
        // P(rank 0) ≈ 13 % at s = 1.1 over 1 000 ranks; rank 999 is ~2 000× rarer.
        assert!(top > 400 && top < 1000, "top rank drawn {top} times");
        assert!(tail < 10, "last rank drawn {tail} times");
    }

    #[test]
    fn scatter_is_a_bijection() {
        for n in [1_000usize, 50_000] {
            let mut seen = vec![false; n];
            for rank in 0..n {
                let key = scatter_rank(rank, n);
                assert!(!seen[key]);
                seen[key] = true;
            }
        }
    }

    #[test]
    fn generators_repeat_for_a_seed_and_differ_across_seeds() {
        assert_eq!(events_csv(3, 200), events_csv(3, 200));
        assert_ne!(events_csv(3, 200), events_csv(4, 200));
        let a = fact_frame(3, 500, 100, KeyDist::Zipf(1.1));
        assert!(a.same_data(&fact_frame(3, 500, 100, KeyDist::Zipf(1.1))));
        assert_eq!(a.shape(), (500, 6));
        assert_eq!(wide_frame(3, 20, 30).shape(), (20, 30));
        assert_eq!(service_csv(3, 50, 0, 0), service_csv(3, 50, 0, 0));
        assert_ne!(service_csv(3, 50, 0, 0), service_csv(3, 50, 0, 1));
        assert_ne!(service_csv(3, 50, 0, 0), service_csv(3, 50, 1, 0));
        assert_eq!(service_csv(3, 50, 0, 0).lines().count(), 51);
    }
}
