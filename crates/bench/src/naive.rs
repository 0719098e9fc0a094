//! The seed data layout of `epq_relalg::Relation`, kept as a measured
//! baseline.
//!
//! This is the nested-`Vec` relation the workspace shipped before the
//! flat arena layout landed: `Vec<Vec<u32>>` rows (one heap allocation
//! per row), hash joins keyed on per-row `Vec<u32>` keys (one more
//! allocation per build *and* probe row), linear schema-intersection
//! scans per column, and a union that clones every row and re-sorts the
//! whole set. The `P3` experiment runs it head-to-head against the
//! flat layout on identical inputs: the naive-layout P3 rows of
//! `BENCH.json` come from here, and any row-set disagreement fails the
//! experiment — the baseline doubles as a correctness oracle for the
//! rewrite.
//!
//! Deliberately **not** optimized. Fixes belong in `epq_relalg`; this
//! module only changes if the seed semantics were wrong.

use std::collections::{BTreeSet, HashMap};

/// The seed relation: schema plus sorted, deduplicated nested-`Vec`
/// rows.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NaiveRelation {
    schema: Vec<u32>,
    rows: Vec<Vec<u32>>,
}

impl NaiveRelation {
    /// Builds a relation, deduplicating and sorting rows.
    ///
    /// # Panics
    /// Panics if the schema has duplicate columns or a row has the
    /// wrong width.
    pub fn new(schema: Vec<u32>, mut rows: Vec<Vec<u32>>) -> Self {
        let unique: BTreeSet<u32> = schema.iter().copied().collect();
        assert_eq!(unique.len(), schema.len(), "duplicate column in schema");
        for row in &rows {
            assert_eq!(row.len(), schema.len(), "row width mismatch");
        }
        rows.sort_unstable();
        rows.dedup();
        NaiveRelation { schema, rows }
    }

    /// Column identifiers.
    pub fn schema(&self) -> &[u32] {
        &self.schema
    }

    /// The rows (sorted, deduplicated).
    pub fn rows(&self) -> &[Vec<u32>] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Natural join on shared columns — the seed hash join: per-column
    /// `contains` scans to find the shared schema, then a key `Vec`
    /// allocated per build row and per probe row, and a cloned output
    /// row per match.
    pub fn join(&self, other: &NaiveRelation) -> NaiveRelation {
        let (build, probe) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        let shared: Vec<u32> = build
            .schema
            .iter()
            .copied()
            .filter(|c| probe.schema.contains(c))
            .collect();
        let build_key: Vec<usize> = shared
            .iter()
            .map(|c| build.schema.iter().position(|x| x == c).unwrap())
            .collect();
        let probe_key: Vec<usize> = shared
            .iter()
            .map(|c| probe.schema.iter().position(|x| x == c).unwrap())
            .collect();
        let probe_extra: Vec<usize> = (0..probe.schema.len())
            .filter(|&i| !shared.contains(&probe.schema[i]))
            .collect();
        let mut schema = build.schema.clone();
        schema.extend(probe_extra.iter().map(|&i| probe.schema[i]));

        let mut table: HashMap<Vec<u32>, Vec<&Vec<u32>>> = HashMap::new();
        for row in &build.rows {
            let key: Vec<u32> = build_key.iter().map(|&i| row[i]).collect();
            table.entry(key).or_default().push(row);
        }
        let mut rows = Vec::new();
        for row in &probe.rows {
            let key: Vec<u32> = probe_key.iter().map(|&i| row[i]).collect();
            if let Some(matches) = table.get(&key) {
                for b in matches {
                    let mut out = (*b).clone();
                    out.extend(probe_extra.iter().map(|&i| row[i]));
                    rows.push(out);
                }
            }
        }
        NaiveRelation::new(schema, rows)
    }

    /// Projection onto `columns` (with deduplication).
    ///
    /// # Panics
    /// Panics if a requested column is absent.
    pub fn project(&self, columns: &[u32]) -> NaiveRelation {
        let positions: Vec<usize> = columns
            .iter()
            .map(|c| {
                self.schema
                    .iter()
                    .position(|x| x == c)
                    .unwrap_or_else(|| panic!("column {c} not in schema"))
            })
            .collect();
        let rows = self
            .rows
            .iter()
            .map(|row| positions.iter().map(|&i| row[i]).collect())
            .collect();
        NaiveRelation::new(columns.to_vec(), rows)
    }

    /// Set union — the seed version: clone every row of `self`, append
    /// the reordered rows of `other`, and re-sort the whole set.
    ///
    /// # Panics
    /// Panics if a column of `self` is absent from `other`.
    pub fn union(&self, other: &NaiveRelation) -> NaiveRelation {
        let reordered = other.project(&self.schema);
        let mut rows = self.rows.clone();
        rows.extend(reordered.rows);
        NaiveRelation::new(self.schema.clone(), rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_semantics_hold() {
        let r = NaiveRelation::new(vec![0, 1], vec![vec![1, 2], vec![3, 4], vec![1, 2]]);
        assert_eq!(r.len(), 2);
        let s = NaiveRelation::new(vec![1, 2], vec![vec![2, 5], vec![2, 6]]);
        let j = r.join(&s);
        assert_eq!(j.schema(), &[0, 1, 2]);
        assert_eq!(j.rows(), &[vec![1, 2, 5], vec![1, 2, 6]]);
        assert_eq!(j.project(&[0]).rows(), &[vec![1]]);
        assert!(!j.union(&j).is_empty());
    }
}
