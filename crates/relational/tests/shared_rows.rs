//! Properties of shared rows: clones share cells and the memoized leaf
//! digest, edits copy on write, and sharing changes no byte of any
//! encoding.

use medledger_crypto::merkle;
use medledger_relational::{Row, Value};
use medledger_storage::codec::put_seq;
use medledger_storage::{Decode, Encode};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<u64>().prop_map(|bits| Value::Float(f64::from_bits(bits))),
        proptest::collection::vec(0u8..128, 0..40)
            .prop_map(|b| Value::Text(b.into_iter().map(char::from).collect())),
        proptest::collection::vec(any::<u8>(), 0..40).prop_map(Value::Bytes),
    ]
}

fn arb_cells() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(arb_value(), 0..12)
}

/// One edit: which copy (`false` = original, `true` = clone), a cell
/// position (reduced modulo the row width) and the new value.
fn arb_edits() -> impl Strategy<Value = Vec<(bool, usize, Value)>> {
    proptest::collection::vec((any::<bool>(), 0usize..64, arb_value()), 0..8)
}

fn fresh_leaf(cells: &[Value]) -> medledger_crypto::Hash256 {
    merkle::leaf_hash(&Row::new(cells.to_vec()).encode())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The allocation-free length agrees with the encoding it measures.
    #[test]
    fn encoded_len_matches_encode(cells in arb_cells()) {
        let row = Row::new(cells);
        prop_assert_eq!(row.encoded_len(), row.encode().len());
        for v in row.iter() {
            prop_assert_eq!(v.encoded_len(), v.encode().len());
        }
    }

    /// The memoized digest is the leaf hash of the encoding, on the
    /// original and on a clone.
    #[test]
    fn leaf_digest_matches_leaf_hash(cells in arb_cells()) {
        let row = Row::new(cells);
        let want = merkle::leaf_hash(&row.encode());
        prop_assert_eq!(row.leaf_digest(), want);
        let copy = row.clone();
        prop_assert_eq!(copy.leaf_digest(), want);
        prop_assert_eq!(row.leaf_digest(), want);
    }

    /// Copy-on-write: an edit through `get_mut` on either copy resets
    /// that copy's memo and leaves the other copy's cells and digest as
    /// they were.
    #[test]
    fn edits_copy_on_write_and_reset_the_memo(cells in arb_cells(), edits in arb_edits()) {
        let mut original = Row::new(cells.clone());
        let mut copy = original.clone();
        let mut models = [cells.clone(), cells];
        for (on_copy, pos, value) in edits {
            // Memoize both digests first, so a stale memo would show.
            let before = [original.leaf_digest(), copy.leaf_digest()];
            let width = models[0].len();
            if width == 0 {
                prop_assert!(original.get_mut(pos).is_none());
                prop_assert!(copy.get_mut(pos).is_none());
                continue;
            }
            let idx = pos % width;
            let (edited, which) = if on_copy { (&mut copy, 1) } else { (&mut original, 0) };
            *edited.get_mut(idx).expect("in range") = value.clone();
            models[which][idx] = value;
            let other = 1 - which;
            let rows = [&original, &copy];
            prop_assert_eq!(rows[which].values(), &models[which][..]);
            prop_assert_eq!(rows[which].leaf_digest(), fresh_leaf(&models[which]));
            prop_assert_eq!(rows[other].values(), &models[other][..]);
            prop_assert_eq!(rows[other].leaf_digest(), before[other]);
        }
        prop_assert_eq!(original.leaf_digest(), fresh_leaf(&models[0]));
        prop_assert_eq!(copy.leaf_digest(), fresh_leaf(&models[1]));
    }

    /// A row's serde JSON and its storage codec bytes are those of its
    /// cells as a plain `Vec<Value>`, and both decode back to the row.
    #[test]
    fn row_bytes_equal_plain_cell_bytes(cells in arb_cells()) {
        let row = Row::new(cells.clone());
        let json = serde_json::to_string(&row).expect("json");
        prop_assert_eq!(&json, &serde_json::to_string(&cells).expect("json"));
        let back: Row = serde_json::from_str(&json).expect("parse");
        prop_assert_eq!(back.values(), &cells[..]);

        let mut plain = Vec::new();
        put_seq(&mut plain, &cells);
        let bytes = row.encoded();
        prop_assert_eq!(&bytes, &plain);
        prop_assert_eq!(Row::decode(&bytes).expect("decode"), row);
    }
}
