//! Synthetic NYC-taxi-like trip data.
//!
//! The paper's case study (§3.2) benchmarks MODIN against pandas on the New York City
//! taxicab dataset, "replicated 1 to 11 times to yield a dataset size between 20 to
//! 250 GB". That trace is not available here, so this module generates a synthetic
//! substitute with the same column mix and the statistical features the queries
//! depend on: a `passenger_count` column with a small number of distinct values plus
//! nulls (the groupby key), wide numeric fare/geo columns (the map target), string
//! vendor/payment columns, and timestamps. A `replication` knob mirrors the paper's
//! scale factor.
//!
//! Two variants are provided: [`generate_typed`] (already-parsed cells, as if the data
//! had been loaded by a typed reader) and [`generate_raw`] (every cell a raw string, as
//! if freshly read from CSV) — the latter is what the schema-induction experiments use.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use df_types::cell::Cell;
use df_types::domain::format_datetime_seconds;
use df_types::error::DfResult;

use df_core::dataframe::DataFrame;

/// Configuration for the synthetic taxi workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaxiConfig {
    /// Rows generated at replication factor 1.
    pub base_rows: usize,
    /// Replication factor (the paper uses 1–11).
    pub replication: usize,
    /// Fraction of `passenger_count` entries that are null.
    pub null_fraction: f64,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl Default for TaxiConfig {
    fn default() -> Self {
        TaxiConfig {
            base_rows: 10_000,
            replication: 1,
            null_fraction: 0.05,
            seed: 7,
        }
    }
}

impl TaxiConfig {
    /// Total number of rows this configuration generates.
    pub(crate) fn total_rows(&self) -> usize {
        self.base_rows * self.replication.max(1)
    }
}

/// The column labels of the synthetic trace (a subset of the real TLC schema, wide
/// enough to exercise the same code paths).
pub const TAXI_COLUMNS: [&str; 14] = [
    "vendor_id",
    "pickup_datetime",
    "dropoff_datetime",
    "passenger_count",
    "trip_distance",
    "pickup_longitude",
    "pickup_latitude",
    "dropoff_longitude",
    "dropoff_latitude",
    "payment_type",
    "fare_amount",
    "tip_amount",
    "tolls_amount",
    "total_amount",
];

/// Generate the trace with already-typed cells.
pub fn generate_typed(config: &TaxiConfig) -> DfResult<DataFrame> {
    build(config, false)
}

/// Generate the trace with raw (string) cells, as if read from an untyped CSV file.
pub fn generate_raw(config: &TaxiConfig) -> DfResult<DataFrame> {
    build(config, true)
}

fn build(config: &TaxiConfig, raw: bool) -> DfResult<DataFrame> {
    let rows = config.total_rows();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut columns: Vec<Vec<Cell>> = vec![Vec::with_capacity(rows); TAXI_COLUMNS.len()];
    let vendors = ["CMT", "VTS", "DDS"];
    let payments = ["CASH", "CREDIT", "DISPUTE", "NO CHARGE"];
    for _ in 0..rows {
        let vendor = vendors[rng.gen_range(0..vendors.len())];
        let pickup_secs: i64 = 1_560_000_000 + rng.gen_range(0..30 * 86_400);
        let duration: i64 = rng.gen_range(120..7_200);
        let passenger: Option<i64> = if rng.gen_bool(config.null_fraction) {
            None
        } else {
            Some(rng.gen_range(1..=6))
        };
        let distance: f64 = rng.gen_range(0.3..30.0);
        let fare: f64 = 2.5 + distance * 2.3 + rng.gen_range(0.0..5.0);
        let tip: f64 = if rng.gen_bool(0.6) {
            fare * rng.gen_range(0.05..0.3)
        } else {
            0.0
        };
        let tolls: f64 = if rng.gen_bool(0.1) { 6.12 } else { 0.0 };
        let payment = payments[rng.gen_range(0..payments.len())];
        let lon = -74.0 + rng.gen_range(-0.2..0.2);
        let lat = 40.75 + rng.gen_range(-0.2..0.2);
        let lon2 = -74.0 + rng.gen_range(-0.2..0.2);
        let lat2 = 40.75 + rng.gen_range(-0.2..0.2);
        let total = fare + tip + tolls;
        let values: [Cell; 14] = [
            Cell::Str(vendor.to_string()),
            Cell::Str(format_datetime_seconds(pickup_secs)),
            Cell::Str(format_datetime_seconds(pickup_secs + duration)),
            passenger.map(Cell::Int).unwrap_or(Cell::Null),
            Cell::Float(distance),
            Cell::Float(lon),
            Cell::Float(lat),
            Cell::Float(lon2),
            Cell::Float(lat2),
            Cell::Str(payment.to_string()),
            Cell::Float(fare),
            Cell::Float(tip),
            Cell::Float(tolls),
            Cell::Float(total),
        ];
        for (slot, value) in columns.iter_mut().zip(values) {
            let value = if raw {
                match value {
                    Cell::Null => Cell::Null,
                    other => Cell::Str(other.to_raw_string()),
                }
            } else {
                value
            };
            slot.push(value);
        }
    }
    DataFrame::from_columns(TAXI_COLUMNS.to_vec(), columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::domain::Domain;

    #[test]
    fn typed_generation_has_expected_shape_and_schema() {
        let config = TaxiConfig {
            base_rows: 200,
            replication: 2,
            ..TaxiConfig::default()
        };
        assert_eq!(config.total_rows(), 400);
        let mut df = generate_typed(&config).unwrap();
        assert_eq!(df.shape(), (400, 14));
        let schema = df.resolve_schema();
        assert_eq!(schema[3], Domain::Int); // passenger_count
        assert_eq!(schema[10], Domain::Float); // fare_amount
        assert_eq!(schema[0], Domain::Category); // vendor_id: 3 distinct strings
    }

    #[test]
    fn raw_generation_is_untyped_strings() {
        let df = generate_raw(&TaxiConfig {
            base_rows: 50,
            ..TaxiConfig::default()
        })
        .unwrap();
        assert_eq!(df.schema(), vec![None; 14]);
        // Every non-null cell is a string in the raw variant.
        assert!(df
            .columns()
            .iter()
            .flat_map(|c| c.cells())
            .all(|c| matches!(c, Cell::Str(_) | Cell::Null)));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = TaxiConfig {
            base_rows: 30,
            ..TaxiConfig::default()
        };
        let a = generate_typed(&config).unwrap();
        let b = generate_typed(&config).unwrap();
        assert!(a.same_data(&b));
        let c = generate_typed(&TaxiConfig { seed: 99, ..config }).unwrap();
        assert!(!a.same_data(&c));
    }

    #[test]
    fn null_fraction_controls_passenger_nulls() {
        let none = generate_typed(&TaxiConfig {
            base_rows: 300,
            null_fraction: 0.0,
            ..TaxiConfig::default()
        })
        .unwrap();
        assert_eq!(none.columns()[3].count_non_null(), 300);
        let half = generate_typed(&TaxiConfig {
            base_rows: 300,
            null_fraction: 0.5,
            ..TaxiConfig::default()
        })
        .unwrap();
        let non_null = half.columns()[3].count_non_null();
        assert!(non_null > 100 && non_null < 200, "non_null = {non_null}");
    }
}
