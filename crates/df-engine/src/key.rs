//! [`PlanKey`], the key of the §6.2.2 result cache.
//!
//! Reusing one statement's result for another is sound only if equal keys mean equal
//! plans. The key is the logical plan's canonical typed byte encoding, written by the
//! value encoders that also put band tasks on the wire, and compared and hashed as
//! bytes: cells of different types or bits (`1` and `"1"`, `0.0` and `-0.0`, two NaN
//! payloads) never share a key. Literal, handle and closure leaves are written by
//! address. The key holds the plan it was written from, so every address it names
//! stays allocated, and so cannot be reused by another value, exactly as long as the
//! key lives.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

use df_core::algebra::AlgebraExpr;
use df_core::ScanCsv;
use df_storage::spill::ByteWriter;

use crate::backend::{enc_node, enc_plan, enc_scan_source, enc_scan_state};

/// The cache key of a logical plan: equal keys name the same plan over the same leaf
/// allocations. Cloning shares the bytes and the plan.
///
/// ```
/// use df_core::algebra::{AlgebraExpr, MapFunc};
/// use df_core::dataframe::DataFrame;
/// use df_engine::PlanKey;
/// use df_types::cell::cell;
///
/// let df = DataFrame::from_columns(vec!["v"], vec![vec![cell(1), cell(2)]])?;
/// let base = AlgebraExpr::literal(df);
/// let zeros = base.clone().map(MapFunc::FillNull(cell(0)));
/// let texts = base.clone().map(MapFunc::FillNull(cell("0")));
/// assert_eq!(PlanKey::of(&zeros), PlanKey::of(&base.map(MapFunc::FillNull(cell(0)))));
/// assert_ne!(PlanKey::of(&zeros), PlanKey::of(&texts));
/// # Ok::<(), df_types::error::DfError>(())
/// ```
#[derive(Clone)]
pub struct PlanKey {
    bytes: Arc<[u8]>,
    plan: Arc<AlgebraExpr>,
}

impl PlanKey {
    /// The key of `plan`. It keeps a copy of the plan's root node, which shares
    /// everything below it.
    pub fn of(plan: &AlgebraExpr) -> PlanKey {
        let mut e = ByteWriter::default();
        enc_plan(&mut e, plan);
        PlanKey {
            bytes: e.finish().into(),
            plan: Arc::new(plan.clone()),
        }
    }

    /// The logical plan this key names.
    pub(crate) fn plan(&self) -> &Arc<AlgebraExpr> {
        &self.plan
    }

    /// The bytes this key compares and hashes as.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The key bytes of every sub-plan of this key's plan, the plan itself first, in
    /// pre-order, each with the number of nodes in its subtree (so the sub-plans below
    /// one are skipped by stepping over that many). The encoding writes each node
    /// before its children, so a sub-plan's key is a run of this key's bytes: nothing
    /// is copied, and each node is encoded once more only to measure it.
    pub(crate) fn sub_plans(&self) -> Vec<(&[u8], usize)> {
        fn walk(plan: &AlgebraExpr, at: &mut usize, out: &mut Vec<(Range<usize>, usize)>) {
            let (slot, start) = (out.len(), *at);
            out.push((start..start, 1));
            let mut e = ByteWriter::default();
            enc_node(&mut e, plan);
            *at += e.finish().len();
            for child in plan.children() {
                walk(child, at, out);
            }
            out[slot] = (start..*at, out.len() - slot);
        }
        let mut spans = Vec::new();
        walk(&self.plan, &mut 0, &mut spans);
        spans
            .into_iter()
            .map(|(span, size)| (&self.bytes[span], size))
            .collect()
    }

    /// For the key of a bare CSV scan (one without pushdowns), the leading bytes that
    /// name its file and parse options, and the longer run that adds the file's state.
    /// Every scan of the same file and options, pushdowns or not, starts with the
    /// first; those of the same file state start with the second too.
    pub(crate) fn scan_prefixes(&self) -> Option<(Vec<u8>, Vec<u8>)> {
        let AlgebraExpr::ScanCsv(scan) = self.plan.as_ref() else {
            return None;
        };
        if scan.projection.is_some() || scan.predicate.is_some() || scan.limit.is_some() {
            return None;
        }
        let prefix = |enc: fn(&mut ByteWriter, &ScanCsv)| {
            let mut e = ByteWriter::default();
            e.str(self.plan.name());
            enc(&mut e, scan);
            e.finish()
        };
        Some((prefix(enc_scan_source), prefix(enc_scan_state)))
    }

    pub(crate) fn starts_with(&self, prefix: &[u8]) -> bool {
        self.bytes.starts_with(prefix)
    }
}

impl PartialEq for PlanKey {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for PlanKey {}

/// A key hashes and compares as its bytes, so the cache can be probed with a
/// sub-plan's bytes (`PlanKey::sub_plans`) without building a key for it.
impl Borrow<[u8]> for PlanKey {
    fn borrow(&self) -> &[u8] {
        &self.bytes
    }
}

impl Hash for PlanKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.bytes.hash(state);
    }
}

impl fmt::Debug for PlanKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PlanKey({}, {} bytes)",
            self.plan.name(),
            self.bytes.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_core::algebra::{MapFunc, Predicate};
    use df_core::dataframe::DataFrame;
    use df_core::handle::FrameHandle;
    use df_core::ScanOptions;
    use df_types::cell::{cell, Cell};

    fn frame() -> DataFrame {
        DataFrame::from_columns(vec!["a"], vec![vec![cell(1), cell(2)]]).unwrap()
    }

    #[test]
    fn literals_handles_and_closures_are_named_by_address() {
        let df = Arc::new(frame());
        let over = |leaf: AlgebraExpr| PlanKey::of(&leaf.select(Predicate::True));
        let lit = || AlgebraExpr::literal_arc(Arc::clone(&df));
        assert_eq!(over(lit()), over(lit()));
        assert_ne!(over(lit()), over(AlgebraExpr::literal(frame())));
        assert_ne!(over(lit()), PlanKey::of(&lit().transpose()));
        let handle = FrameHandle::from_dataframe(frame());
        let fresh = FrameHandle::from_dataframe(frame());
        assert_eq!(
            over(AlgebraExpr::handle(handle.clone())),
            over(AlgebraExpr::handle(handle.clone()))
        );
        assert_ne!(
            over(AlgebraExpr::handle(handle)),
            over(AlgebraExpr::handle(fresh))
        );
        let per_cell = |func: &Arc<dyn Fn(&Cell) -> Cell + Send + Sync>| {
            PlanKey::of(&lit().map(MapFunc::PerCell {
                name: "f".into(),
                func: Arc::clone(func),
            }))
        };
        let f: Arc<dyn Fn(&Cell) -> Cell + Send + Sync> = Arc::new(|c| c.clone());
        let g: Arc<dyn Fn(&Cell) -> Cell + Send + Sync> = Arc::new(|c| c.clone());
        assert_eq!(per_cell(&f), per_cell(&f));
        assert_ne!(per_cell(&f), per_cell(&g));
    }

    #[test]
    fn sub_plan_keys_are_runs_of_the_plan_key() {
        let left = AlgebraExpr::literal(frame()).select(Predicate::True);
        let right = AlgebraExpr::literal(frame()).map(MapFunc::IsNullMask);
        let plan = left.clone().union(right.clone()).transpose();
        let key = PlanKey::of(&plan);
        let union = left.clone().union(right.clone());
        let expected = [
            &plan,
            &union,
            &left,
            left.children()[0],
            &right,
            right.children()[0],
        ];
        let sub_plans = key.sub_plans();
        assert_eq!(sub_plans.len(), expected.len());
        for ((bytes, _), sub_plan) in sub_plans.iter().zip(expected) {
            assert_eq!(*bytes, PlanKey::of(sub_plan).bytes());
        }
        let sizes: Vec<usize> = sub_plans.iter().map(|(_, size)| *size).collect();
        assert_eq!(sizes, [6, 5, 2, 1, 2, 1]);
    }

    #[test]
    fn a_key_holds_the_leaves_it_names() {
        let df = Arc::new(frame());
        let key = PlanKey::of(&AlgebraExpr::literal_arc(Arc::clone(&df)));
        assert_eq!(Arc::strong_count(&df), 2);
        drop(key);
        assert_eq!(Arc::strong_count(&df), 1);
    }

    #[test]
    fn scans_are_named_by_source_state_and_pushdowns() {
        let scan = |path: &str, state: &str| ScanCsv::new(path, ScanOptions::default(), state);
        let key = |scan: ScanCsv| PlanKey::of(&AlgebraExpr::scan_csv(scan));
        let base = scan("f.csv", "v1");
        assert_eq!(key(base.clone()), key(scan("f.csv", "v1")));
        for other in [
            scan("f.csv", "v2"),
            base.with_projection(vec![cell("a")]),
            base.with_predicate(Predicate::True),
            base.with_limit(10, false),
            base.with_limit(10, true),
        ] {
            assert_ne!(key(base.clone()), key(other));
        }
        // Every state of one path and options shares the source prefix, pushdowns or
        // not; a path that merely starts with the same characters does not. Only
        // scans of the same file state share the state prefix.
        let (source, state) = key(base.clone()).scan_prefixes().unwrap();
        let pushed = key(base.with_predicate(Predicate::True));
        assert!(pushed.starts_with(&source) && pushed.starts_with(&state));
        let newer = key(scan("f.csv", "v2").with_limit(10, false));
        assert!(newer.starts_with(&source) && !newer.starts_with(&state));
        assert!(!key(scan("f.csv", "v10")).starts_with(&state));
        assert!(!key(scan("f.csv.bak", "v1")).starts_with(&source));
        let typed = ScanOptions {
            infer_schema: true,
            ..ScanOptions::default()
        };
        assert!(!key(ScanCsv::new("f.csv", typed, "v1")).starts_with(&source));
        assert!(
            pushed.scan_prefixes().is_none(),
            "only a bare scan supersedes"
        );
        assert!(PlanKey::of(&AlgebraExpr::literal(frame()))
            .scan_prefixes()
            .is_none());
    }
}
