//! Table rows: shared, immutable values.
//!
//! A committed row is held by many tables at once: on a receiving peer the
//! shard store, the assembled copy, the source, the baseline and the
//! baseline's shard shadow, plus every inverse delta and log record that
//! mentions it. [`Row`] is therefore a reference-counted handle: `clone`
//! bumps a count, and every holder reads the same cells.
//!
//! **Copy-on-write.** The cells never change under a reader. The one
//! mutator, [`Row::get_mut`], detaches the row first (through
//! [`Arc::make_mut`], which copies the cells only when another holder
//! exists), so the other holders keep the cells they had.
//!
//! **Leaf memo.** Each row memoizes its Merkle leaf digest,
//! `merkle::leaf_hash(&row.encode())`, on the first call of
//! [`Row::leaf_digest`]. The table and shard hash caches read it from
//! there, so a row shared by five tables is leaf-hashed once. The memo
//! travels with the cells: a clone shares it, and [`Row::get_mut`]
//! clears it on the copy it edits (never on the other holders).
//!
//! Sharing changes no bytes: [`Row::encode`], the serde form and every
//! hash are those of the plain cell vector.

use crate::value::Value;
use medledger_crypto::{merkle, Hash256};
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Index;
use std::sync::{Arc, OnceLock};

/// A row: one value per schema column, in schema order. Cloning shares
/// the cells (see the module docs).
#[derive(Clone)]
pub struct Row(Arc<Cells>);

/// The shared payload of a [`Row`].
#[derive(Clone)]
struct Cells {
    values: Vec<Value>,
    /// Memoized `merkle::leaf_hash(&encode())`; empty until first asked
    /// for and after every edit.
    leaf: OnceLock<Hash256>,
}

// Rows cross the fan-out and shard-apply worker threads.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<Row>();
};

impl Row {
    /// Builds a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row(Arc::new(Cells {
            values,
            leaf: OnceLock::new(),
        }))
    }

    /// The cells, in schema order.
    pub fn values(&self) -> &[Value] {
        &self.0.values
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.0.values.len()
    }

    /// True iff the row has no cells.
    pub fn is_empty(&self) -> bool {
        self.0.values.is_empty()
    }

    /// The cell at `idx`, if present.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.0.values.get(idx)
    }

    /// Mutable access to the cell at `idx`. Copy-on-write: a row shared
    /// with other holders is copied first, and this row's leaf memo is
    /// cleared; the other holders are unaffected.
    pub fn get_mut(&mut self, idx: usize) -> Option<&mut Value> {
        if idx >= self.len() {
            return None;
        }
        let cells = Arc::make_mut(&mut self.0);
        cells.leaf = OnceLock::new();
        cells.values.get_mut(idx)
    }

    /// Iterates over the cells.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.0.values.iter()
    }

    /// Canonical byte encoding (cell count, then each cell's encoding).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&(self.len() as u64).to_be_bytes());
        for v in self.iter() {
            v.encode_into(&mut out);
        }
        out
    }

    /// Length of [`Row::encode`], without building it.
    pub fn encoded_len(&self) -> usize {
        8 + self.iter().map(Value::encoded_len).sum::<usize>()
    }

    /// The row's Merkle leaf digest, `merkle::leaf_hash(&self.encode())`,
    /// computed once and shared by every clone.
    pub fn leaf_digest(&self) -> Hash256 {
        *self
            .0
            .leaf
            .get_or_init(|| merkle::leaf_hash(&self.encode()))
    }

    /// Extracts the sub-row at the given column indexes.
    pub fn project(&self, idxs: &[usize]) -> Row {
        idxs.iter().map(|&i| self[i].clone()).collect()
    }
}

impl Default for Row {
    fn default() -> Self {
        Row::new(Vec::new())
    }
}

impl PartialEq for Row {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.values() == other.values()
    }
}

impl Eq for Row {}

impl PartialOrd for Row {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Row {
    fn cmp(&self, other: &Self) -> Ordering {
        self.values().cmp(other.values())
    }
}

impl Hash for Row {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

/// Serialized as the bare cell sequence, like the `Vec<Value>` it wraps.
impl Serialize for Row {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.values().serialize(s)
    }
}

impl<'de> Deserialize<'de> for Row {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Vec::<Value>::deserialize(d).map(Row::new)
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Row[")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl Index<usize> for Row {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.0.values[idx]
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Row::new(iter.into_iter().collect())
    }
}

/// Builds a row from heterogeneous literals: `row![188, "Ibuprofen", 1.5]`.
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::Row::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_macro_builds_values() {
        let r = row![188i64, "Ibuprofen", true, 1.5];
        assert_eq!(r.len(), 4);
        assert_eq!(r[0], Value::Int(188));
        assert_eq!(r[1], Value::text("Ibuprofen"));
        assert_eq!(r[2], Value::Bool(true));
        assert_eq!(r[3], Value::Float(1.5));
    }

    #[test]
    fn project_extracts_columns() {
        let r = row![1i64, "a", "b"];
        let p = r.project(&[2, 0]);
        assert_eq!(p, row!["b", 1i64]);
    }

    #[test]
    fn encode_differs_for_different_rows() {
        assert_ne!(row![1i64, "a"].encode(), row![1i64, "b"].encode());
        assert_ne!(row![1i64].encode(), row![1i64, "a"].encode());
        // Count prefix distinguishes [("a")] + [("b")] from [("a","b")].
        let mut concat = row!["a"].encode();
        concat.extend(row!["b"].encode());
        assert_ne!(concat, row!["a", "b"].encode());
    }

    #[test]
    fn get_and_get_mut() {
        let mut r = row![1i64, 2i64];
        assert_eq!(r.get(1), Some(&Value::Int(2)));
        assert_eq!(r.get(2), None);
        *r.get_mut(0).expect("cell") = Value::Int(9);
        assert_eq!(r[0], Value::Int(9));
    }
}
