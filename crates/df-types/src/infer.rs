//! The schema induction function `S` and lazy-schema bookkeeping.
//!
//! Paper §4.2 defines `S : (Σ*)^m → Dom`, which maps an array of raw strings to a
//! domain, so that an unspecified entry of the schema vector `D_n` can be induced post
//! hoc from the column's contents. Paper §5.1 then argues that running `S` (and the
//! subsequent parsing) is one of the dominant costs in dataframe systems and must be
//! *deferred*, *cached* and *reused* whenever possible.
//!
//! This module provides:
//!
//! * [`induce_from_strings`] — the literal `S` over raw strings, used at CSV ingest.
//! * [`induce_domain`] — induction over already-typed cells (widening via
//!   [`Domain::unify`]), used when a derived column's domain must be recovered.
//! * [`InductionSummary`] — a *composable* form of the string scan: partitioned
//!   readers summarise each band independently, [`InductionSummary::merge`] the
//!   summaries in band order, and [`InductionSummary::finish`] to obtain exactly the
//!   domain a serial [`induce_from_strings`] over the concatenated column would have
//!   produced. This is what makes parallel CSV ingest's per-band schema induction
//!   reconcilable without a second scan over the data.
//! * [`SchemaSlot`] — a per-column slot that distinguishes *declared*, *induced* and
//!   *unknown* domains and counts how many induction scans were performed. Engines use
//!   the counter in the §5.1 ablation benchmark to show how many scans rewrite rules
//!   avoided.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::cell::Cell;
use crate::domain::{is_null_token, Domain};

/// Global counter of schema-induction scans, used by the ablation harness to attribute
/// cost to `S` without invasive plumbing. Incremented by [`induce_from_strings`] and
/// [`induce_domain`].
static INDUCTION_SCANS: AtomicU64 = AtomicU64::new(0);

/// Number of induction scans performed by the whole process so far.
pub fn induction_scan_count() -> u64 {
    INDUCTION_SCANS.load(Ordering::Relaxed)
}

/// Reset the global induction scan counter (test / benchmark helper).
pub fn reset_induction_scan_count() {
    INDUCTION_SCANS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
thread_local! {
    /// This thread's share of [`INDUCTION_SCANS`]: `cargo test` runs tests on parallel
    /// threads that all bump the process-wide counter, so an exact delta can only be
    /// asserted on a per-thread tally.
    static THREAD_SCANS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn note_scan() {
    INDUCTION_SCANS.fetch_add(1, Ordering::Relaxed);
    #[cfg(test)]
    THREAD_SCANS.with(|tally| tally.set(tally.get() + 1));
}

/// The schema induction function `S` over raw strings.
///
/// Scans the column once and returns the narrowest domain that every non-null entry
/// parses into, using the widening order bool → int → float → datetime → category/str.
/// A column whose non-null values are all drawn from a small set of repeated strings is
/// classified as `category` (mirroring pandas' heuristic use of categoricals); anything
/// else falls back to `Σ*`.
pub fn induce_from_strings<'a, I>(values: I) -> Domain
where
    I: IntoIterator<Item = &'a str>,
{
    note_scan();
    let mut candidate: Option<Domain> = None;
    let mut distinct: HashSet<&str> = HashSet::new();
    let mut non_null = 0usize;
    for raw in values {
        let trimmed = raw.trim();
        if is_null_token(trimmed) {
            continue;
        }
        non_null += 1;
        if distinct.len() < CATEGORY_DISTINCT_CAP {
            distinct.insert(trimmed);
        }
        let (this, _) = classify(trimmed);
        candidate = Some(match candidate {
            None => this,
            Some(prev) => prev.unify(this),
        });
    }
    match candidate {
        None => Domain::Str,
        Some(Domain::Str) => {
            if non_null >= CATEGORY_MIN_ROWS
                && distinct.len() < CATEGORY_DISTINCT_CAP
                && distinct.len() * CATEGORY_RATIO < non_null
            {
                Domain::Category
            } else {
                Domain::Str
            }
        }
        Some(domain) => domain,
    }
}

/// Induction over already-typed cells: widen the natural domains of all non-null cells.
pub fn induce_domain<'a, I>(cells: I) -> Domain
where
    I: IntoIterator<Item = &'a Cell>,
{
    note_scan();
    let mut candidate: Option<Domain> = None;
    for cell in cells {
        let Some(domain) = cell.natural_domain() else {
            continue;
        };
        candidate = Some(match candidate {
            None => domain,
            Some(prev) => prev.unify(domain),
        });
    }
    candidate.unwrap_or(Domain::Str)
}

/// Maximum number of distinct values a string column may have to be induced as
/// `category` rather than `Σ*`.
const CATEGORY_DISTINCT_CAP: usize = 32;
/// Minimum number of non-null rows before the category heuristic applies.
const CATEGORY_MIN_ROWS: usize = 16;
/// A column is categorical when `distinct * RATIO < non_null`.
const CATEGORY_RATIO: usize = 4;

/// The narrowest domain a single trimmed, non-null raw string belongs to, with the
/// `f64` it reads as when it is numeric — so a caller that also keeps numeric bounds
/// (the CSV statistics pass) parses each field once.
fn classify(trimmed: &str) -> (Domain, Option<f64>) {
    // Only the canonical spellings induce booleans. "Yes"/"No" style columns stay in
    // the string domains (pandas keeps them as Object too); Domain::Bool.parse still
    // accepts them when the user explicitly casts.
    if trimmed.eq_ignore_ascii_case("true") || trimmed.eq_ignore_ascii_case("false") {
        return (Domain::Bool, None);
    }
    // Every `i64` spelling is also an `f64` spelling, so one failed float parse rules
    // out both numeric domains.
    if let Ok(value) = trimmed.parse::<f64>() {
        let domain = if trimmed.parse::<i64>().is_ok() {
            Domain::Int
        } else {
            Domain::Float
        };
        return (domain, Some(value));
    }
    if crate::domain::parse_datetime_seconds(trimmed).is_some() {
        return (Domain::DateTime, None);
    }
    (Domain::Str, None)
}

/// Number of fold states an [`InductionSummary`] tracks: "no candidate yet" plus one
/// per domain in [`Domain::ALL`].
const STATE_COUNT: usize = 1 + Domain::ALL.len();

fn encode_state(domain: Option<Domain>) -> u8 {
    // `Domain::ALL` lists the variants in declaration order, so the discriminant is
    // the index (pinned by `domain_discriminants_index_domain_all`).
    domain.map_or(0, |domain| 1 + domain as u8)
}

fn decode_state(state: u8) -> Option<Domain> {
    match state {
        0 => None,
        index => Some(Domain::ALL[index as usize - 1]),
    }
}

/// `step_table()[d][s]` is the fold state after a value of domain `d` arrives in
/// state `s`: the whole `decode → unify → encode` step as one lookup, because
/// [`InductionSummary::observe`] takes it [`STATE_COUNT`] times per ingested field.
fn step_table() -> &'static [[u8; STATE_COUNT]; Domain::ALL.len()] {
    static TABLE: OnceLock<[[u8; STATE_COUNT]; Domain::ALL.len()]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [[0u8; STATE_COUNT]; Domain::ALL.len()];
        for (row, this) in table.iter_mut().zip(Domain::ALL) {
            for (state, next) in row.iter_mut().enumerate() {
                *next = encode_state(Some(match decode_state(state as u8) {
                    None => this,
                    Some(prev) => prev.unify(this),
                }));
            }
        }
        table
    })
}

/// `Domain::unify` over optional domains, `None` being the identity.
fn unify(a: Option<Domain>, b: Option<Domain>) -> Option<Domain> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.unify(b)),
        (a, b) => a.or(b),
    }
}

/// A composable summary of the schema induction scan over one *band* of a column.
///
/// [`induce_from_strings`] is a left fold with `Domain::unify` plus a category
/// heuristic over whole-column statistics (distinct count, non-null count). Neither
/// piece can be reconstructed from per-band *domains*: `unify` is not associative
/// (`(bool ⊔ datetime) ⊔ int ≠ bool ⊔ (datetime ⊔ int)`), and a band can fail the
/// category thresholds that the whole column passes. A partitioned reader therefore
/// summarises each band as
///
/// * the fold's **transition map** — for every possible incoming widening state, the
///   state after folding this band's values (left folds compose exactly:
///   `fold(s, A ++ B) = fold(fold(s, A), B)`);
/// * the **distinct-value set**, capped at the category threshold (the cap preserves
///   the only fact the heuristic reads — whether the count stays below it);
/// * the **non-null count** (additive).
///
/// A band of cells ([`InductionSummary::of_cells`]) also records what decides between
/// the string scan and [`induce_domain`] for a whole column: whether it has string
/// cells, and the unify-fold of its other cells' natural domains. Those domains (bool,
/// int, float, str, composite) widen along one chain, so that fold is associative.
///
/// Merging summaries in band order and finishing reproduces the serial scan's answer
/// bit-for-bit, which is what lets parallel CSV ingest keep its promise of being
/// cell-for-cell identical to the serial reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InductionSummary {
    /// `transition[s]` is the fold state after scanning the summarised values starting
    /// from incoming state `s` (see [`encode_state`]).
    transition: [u8; STATE_COUNT],
    /// Distinct trimmed non-null values, capped at the category distinct threshold.
    distinct: HashSet<String>,
    /// Non-null values seen.
    non_null: usize,
    /// Whether any summarised cell is a string.
    has_str: bool,
    /// The unify-fold of the natural domains of the non-null cells that are not
    /// strings; `None` when there are none.
    other: Option<Domain>,
}

impl Default for InductionSummary {
    fn default() -> Self {
        InductionSummary::empty()
    }
}

impl InductionSummary {
    /// The identity summary (a band with no values).
    pub(crate) fn empty() -> Self {
        let mut transition = [0u8; STATE_COUNT];
        for (index, state) in transition.iter_mut().enumerate() {
            *state = index as u8;
        }
        InductionSummary {
            transition,
            distinct: HashSet::new(),
            non_null: 0,
            has_str: false,
            other: None,
        }
    }

    /// Start summarising one band of a column value by value (see
    /// [`InductionSummary::observe`]). Counts as one induction scan, like the serial
    /// [`induce_from_strings`] it stands in for.
    pub fn begin() -> Self {
        note_scan();
        InductionSummary::empty()
    }

    /// Fold one raw value into the summary. Returns the `f64` the value reads as when
    /// it is non-null and numeric (NaN spellings included — the caller filters).
    pub fn observe(&mut self, raw: &str) -> Option<f64> {
        let trimmed = raw.trim();
        if is_null_token(trimmed) {
            return None;
        }
        self.non_null += 1;
        if self.distinct.len() < CATEGORY_DISTINCT_CAP && !self.distinct.contains(trimmed) {
            self.distinct.insert(trimmed.to_string());
        }
        let (this, numeric) = classify(trimmed);
        let step = &step_table()[this as usize];
        for state in self.transition.iter_mut() {
            *state = step[*state as usize];
        }
        numeric
    }

    /// Summarise one band of a column's cells, raw strings and typed cells alike: the
    /// per-band half of the induction a column with no known domain runs.
    pub fn of_cells(cells: &[Cell]) -> Self {
        let mut summary = InductionSummary::begin();
        for cell in cells {
            match cell {
                Cell::Str(raw) => {
                    summary.has_str = true;
                    summary.observe(raw);
                }
                other => summary.other = unify(summary.other, other.natural_domain()),
            }
        }
        summary
    }

    /// Append a later band's summary: `self` then `later`, in column order.
    pub fn merge(&mut self, later: &InductionSummary) {
        for state in self.transition.iter_mut() {
            *state = later.transition[*state as usize];
        }
        // The capped union detects "distinct >= cap" exactly: a band that hit the cap
        // contributes cap elements on its own, and uncapped bands carry their exact
        // sets, so the union's size crosses the cap iff the true count does.
        for value in &later.distinct {
            if self.distinct.len() >= CATEGORY_DISTINCT_CAP {
                break;
            }
            self.distinct.insert(value.clone());
        }
        self.non_null += later.non_null;
        self.has_str |= later.has_str;
        self.other = unify(self.other, later.other);
    }

    /// The domain the serial scan would have induced for the concatenated column: the
    /// string scan when every non-null cell is a string, and otherwise the unify-fold
    /// of all natural domains.
    pub fn finish(&self) -> Domain {
        if let Some(other) = self.other {
            return if self.has_str {
                other.unify(Domain::Str)
            } else {
                other
            };
        }
        match decode_state(self.transition[0]) {
            None => Domain::Str,
            Some(Domain::Str) => {
                if self.non_null >= CATEGORY_MIN_ROWS
                    && self.distinct.len() < CATEGORY_DISTINCT_CAP
                    && self.distinct.len() * CATEGORY_RATIO < self.non_null
                {
                    Domain::Category
                } else {
                    Domain::Str
                }
            }
            Some(domain) => domain,
        }
    }
}

/// Per-column schema slot implementing the paper's "lazily induced schema".
///
/// A slot is in one of three states: *declared* (the user or an upstream operator fixed
/// the domain — no induction needed), *induced* (a previous scan computed and cached the
/// domain), or *unknown* (induction will run on first demand).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchemaSlot {
    declared: Option<Domain>,
    induced: Option<Domain>,
}

impl SchemaSlot {
    /// A slot with no domain information; induction will run on demand.
    pub fn unknown() -> Self {
        SchemaSlot::default()
    }

    /// A slot whose domain was declared a priori (relational-style) or fixed by an
    /// operator with a known output type (e.g. a MAP whose UDF always returns ints).
    pub fn declared(domain: Domain) -> Self {
        SchemaSlot {
            declared: Some(domain),
            induced: None,
        }
    }

    /// The domain if it is already known (declared or previously induced), without
    /// triggering an induction scan.
    pub fn known(&self) -> Option<Domain> {
        self.declared.or(self.induced)
    }

    /// Resolve the domain, running the provided induction thunk if necessary and
    /// caching its result (paper §5.1.2: reuse of type information).
    pub fn resolve_with(&mut self, induce: impl FnOnce() -> Domain) -> Domain {
        if let Some(domain) = self.known() {
            return domain;
        }
        let domain = induce();
        self.induced = Some(domain);
        domain
    }

    /// Forget any induced (but not declared) domain; used after operators that may have
    /// changed the column's contents in a way the rewrite rules could not reason about.
    pub fn invalidate(&mut self) {
        self.induced = None;
    }

    /// Declare the domain, overriding any cached induction.
    pub fn declare(&mut self, domain: Domain) {
        self.declared = Some(domain);
        self.induced = None;
    }

    /// Cache an induction result computed externally — e.g. a partitioned reader's
    /// cross-band reconciliation, where the scan ran over summaries rather than
    /// through [`SchemaSlot::resolve_with`]. The slot ends up exactly as if it had
    /// run `S` itself: the domain is *induced*, not declared, so a later content
    /// mutation invalidates it like any other cached induction. A declared slot is
    /// left untouched.
    pub fn note_induced(&mut self, domain: Domain) {
        if self.declared.is_none() {
            self.induced = Some(domain);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::cell;

    #[test]
    fn induces_int_float_bool_columns() {
        assert_eq!(induce_from_strings(["1", "2", "3"]), Domain::Int);
        assert_eq!(induce_from_strings(["1", "2.5"]), Domain::Float);
        assert_eq!(induce_from_strings(["true", "false", "true"]), Domain::Bool);
        assert_eq!(
            induce_from_strings(["2020-01-01", "2020-02-01"]),
            Domain::DateTime
        );
    }

    #[test]
    fn nulls_are_ignored_and_all_null_defaults_to_str() {
        assert_eq!(induce_from_strings(["", "NA", "3"]), Domain::Int);
        assert_eq!(induce_from_strings(["", "NA", "null"]), Domain::Str);
    }

    #[test]
    fn mixed_numeric_and_text_widen_to_str() {
        assert_eq!(induce_from_strings(["1", "abc"]), Domain::Str);
        assert_eq!(induce_from_strings(["2.5", "2020-01-01"]), Domain::Str);
    }

    #[test]
    fn repeated_small_vocabulary_becomes_category() {
        let values: Vec<String> = (0..40)
            .map(|i| if i % 2 == 0 { "SUV" } else { "sedan" }.to_string())
            .collect();
        let refs: Vec<&str> = values.iter().map(String::as_str).collect();
        assert_eq!(induce_from_strings(refs), Domain::Category);
    }

    #[test]
    fn large_vocabulary_stays_str() {
        let values: Vec<String> = (0..200).map(|i| format!("value-{i}")).collect();
        let refs: Vec<&str> = values.iter().map(String::as_str).collect();
        assert_eq!(induce_from_strings(refs), Domain::Str);
    }

    #[test]
    fn induce_domain_over_cells_widens() {
        assert_eq!(induce_domain(&[cell(1), cell(2.5)]), Domain::Float);
        assert_eq!(induce_domain(&[cell(true), cell(false)]), Domain::Bool);
        assert_eq!(induce_domain(&[Cell::Null, Cell::Null]), Domain::Str);
        assert_eq!(induce_domain(&[cell(1), cell("x")]), Domain::Str);
    }

    #[test]
    fn schema_slot_declared_skips_induction() {
        let mut slot = SchemaSlot::declared(Domain::Int);
        assert_eq!(slot.known(), Some(Domain::Int));
        let domain = slot.resolve_with(|| panic!("induction must not run"));
        assert_eq!(domain, Domain::Int);
    }

    #[test]
    fn schema_slot_caches_induced_domain() {
        let mut slot = SchemaSlot::unknown();
        assert_eq!(slot.known(), None);
        assert_eq!(slot.resolve_with(|| Domain::Float), Domain::Float);
        // Second resolve must not run the thunk again.
        assert_eq!(slot.resolve_with(|| panic!("cached")), Domain::Float);
        slot.invalidate();
        assert_eq!(slot.known(), None);
    }

    #[test]
    fn schema_slot_declare_overrides_cache() {
        let mut slot = SchemaSlot::unknown();
        slot.resolve_with(|| Domain::Str);
        slot.declare(Domain::Int);
        assert_eq!(slot.known(), Some(Domain::Int));
    }

    #[test]
    fn induction_counter_increments() {
        // Other tests induce concurrently on their own threads: this thread's tally
        // moves by exactly what it did, the process-wide counter by at least that.
        let before = induction_scan_count();
        let mine = THREAD_SCANS.with(std::cell::Cell::get);
        induce_from_strings(["1", "2"]);
        induce_domain(&[cell(1)]);
        InductionSummary::of_cells(&[cell("x")]);
        assert_eq!(THREAD_SCANS.with(std::cell::Cell::get), mine + 3);
        assert!(induction_scan_count() >= before + 3);
    }

    #[test]
    fn domain_discriminants_index_domain_all() {
        for (index, domain) in Domain::ALL.into_iter().enumerate() {
            assert_eq!(domain as usize, index);
            assert_eq!(decode_state(encode_state(Some(domain))), Some(domain));
        }
        assert_eq!(decode_state(encode_state(None)), None);
    }

    #[test]
    fn classify_reads_numbers_once_and_keeps_the_widening_order() {
        assert_eq!(classify("TRUE"), (Domain::Bool, None));
        assert_eq!(classify("007"), (Domain::Int, Some(7.0)));
        assert_eq!(classify("-0"), (Domain::Int, Some(-0.0)));
        assert_eq!(classify("1e3"), (Domain::Float, Some(1000.0)));
        assert_eq!(classify("inf"), (Domain::Float, Some(f64::INFINITY)));
        assert_eq!(classify("2020"), (Domain::Int, Some(2020.0)));
        assert_eq!(classify("2020-01-01"), (Domain::DateTime, None));
        assert_eq!(classify("yes"), (Domain::Str, None));
        let (domain, value) = classify("-NaN");
        assert_eq!(domain, Domain::Float);
        assert!(value.is_some_and(f64::is_nan));
    }

    fn strs(values: &[&str]) -> Vec<Cell> {
        values.iter().map(|v| cell(*v)).collect()
    }

    #[test]
    fn summaries_of_typed_and_mixed_cells_match_whole_column_induction() {
        let bands: [&[&[Cell]]; 5] = [
            &[&[cell("1"), cell("2")], &[cell("x"), cell("y")]],
            &[&[cell(1)], &[cell("x")]],
            &[&[cell(1), Cell::Null], &[cell(2.5)]],
            &[&[cell(true)], &[Cell::Null], &[cell(3)]],
            &[&[cell("NA")], &[cell(4)]],
        ];
        for split in bands {
            let whole: Vec<Cell> = split.concat();
            // What `Column::resolve_domain` runs over the whole column.
            let expected = if whole.iter().any(|c| matches!(c, Cell::Str(_)))
                && whole.iter().all(|c| matches!(c, Cell::Str(_) | Cell::Null))
            {
                induce_from_strings(whole.iter().filter_map(Cell::as_str))
            } else {
                induce_domain(whole.iter())
            };
            let mut merged = InductionSummary::empty();
            for band in split {
                merged.merge(&InductionSummary::of_cells(band));
            }
            assert_eq!(merged.finish(), expected, "{split:?}");
        }
    }

    /// Split `values` at every position (and at a few multi-way splits) and check the
    /// merged summaries agree with the serial scan.
    fn assert_summaries_match_serial(values: &[&str]) {
        let serial = induce_from_strings(values.iter().copied());
        for split in 0..=values.len() {
            let mut merged = InductionSummary::of_cells(&strs(&values[..split]));
            merged.merge(&InductionSummary::of_cells(&strs(&values[split..])));
            assert_eq!(
                merged.finish(),
                serial,
                "two-way split at {split} diverged for {values:?}"
            );
        }
        for chunk in [1usize, 2, 3, 7] {
            let mut merged = InductionSummary::empty();
            for band in values.chunks(chunk.max(1)) {
                merged.merge(&InductionSummary::of_cells(&strs(band)));
            }
            assert_eq!(
                merged.finish(),
                serial,
                "{chunk}-chunk split diverged for {values:?}"
            );
        }
    }

    #[test]
    fn summaries_reproduce_the_serial_scan_on_order_sensitive_inputs() {
        // unify is not associative: bool ⊔ datetime = Σ* but (bool ⊔ int) ⊔ datetime
        // = int. A naive per-band-domain join gets these wrong at some split.
        assert_summaries_match_serial(&["true", "2020-01-01", "7"]);
        assert_summaries_match_serial(&["2020-01-01", "true", "7"]);
        assert_summaries_match_serial(&["7", "true", "2020-01-01"]);
        assert_summaries_match_serial(&["true", "7", "2020-01-01", "false"]);
        assert_summaries_match_serial(&["1", "2.5", "x", "3"]);
        assert_summaries_match_serial(&["", "NA", "3", "null", "4"]);
        assert_summaries_match_serial(&[]);
        assert_summaries_match_serial(&["", "NA"]);
    }

    #[test]
    fn summaries_reproduce_the_category_heuristic_across_bands() {
        // 40 rows of a 2-value vocabulary: the whole column is Category, but every
        // band of < CATEGORY_MIN_ROWS rows on its own would induce Σ*.
        let values: Vec<String> = (0..40)
            .map(|i| if i % 2 == 0 { "SUV" } else { "sedan" }.to_string())
            .collect();
        let refs: Vec<&str> = values.iter().map(String::as_str).collect();
        assert_summaries_match_serial(&refs);
        // A large vocabulary must stay Σ* no matter how the cap interacts with bands.
        let many: Vec<String> = (0..100).map(|i| format!("value-{i}")).collect();
        let refs: Vec<&str> = many.iter().map(String::as_str).collect();
        assert_summaries_match_serial(&refs);
        // Exactly the cap, and one below it.
        for distinct in [CATEGORY_DISTINCT_CAP - 1, CATEGORY_DISTINCT_CAP] {
            let values: Vec<String> = (0..distinct * 5)
                .map(|i| format!("v{}", i % distinct))
                .collect();
            let refs: Vec<&str> = values.iter().map(String::as_str).collect();
            assert_summaries_match_serial(&refs);
        }
    }

    #[test]
    fn summary_randomised_splits_match_serial() {
        // A deterministic pseudo-random sweep over mixed vocabularies: every domain
        // class appears, nulls included, across many band layouts.
        let vocab = [
            "1",
            "-3",
            "2.5",
            "true",
            "false",
            "2020-01-01",
            "x",
            "NA",
            "",
            "0042",
            "1e3",
            "inf",
            "sedan",
            "SUV",
        ];
        let mut state = 0x2545f4914f6cdd1du64;
        for len in [0usize, 1, 2, 5, 16, 33, 64, 200] {
            let values: Vec<&str> = (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    vocab[(state >> 33) as usize % vocab.len()]
                })
                .collect();
            assert_summaries_match_serial(&values);
        }
    }
}
