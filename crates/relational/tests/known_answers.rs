//! Known-answer vectors pinning the relational layer's bytes.
//!
//! Content hashes travel in blocks and acks, and table deltas are what the
//! WAL stores, so a durable store written by an earlier build only keeps
//! recovering while these bytes stay put. The table is shaped like the
//! shared half of a 152-field encrypted patient record: the key plus 75
//! text fields of 32 hex characters, 256 rows. These values may only
//! change together with the row, delta or content-hash format.

use medledger_crypto::{sha256, Prg};
use medledger_relational::{diff_tables, Column, Row, Schema, ShardMap, Table, Value, ValueType};
use medledger_storage::Encode;

const ROWS: i64 = 256;
const FIELDS: usize = 76;

fn hex_cell(prg: &mut Prg) -> Value {
    let mut bytes = [0u8; 16];
    prg.fill(&mut bytes);
    Value::text(bytes.iter().map(|b| format!("{b:02x}")).collect::<String>())
}

fn wide_row(id: i64, prg: &mut Prg) -> Row {
    let mut values = vec![Value::Int(id)];
    values.extend((1..FIELDS).map(|_| hex_cell(prg)));
    Row::new(values)
}

fn wide_table() -> Table {
    let mut columns = vec![Column::new("patient_id", ValueType::Int)];
    columns.extend((1..FIELDS).map(|i| Column::new(format!("f{i:03}"), ValueType::Text)));
    let schema = Schema::new(columns, &["patient_id"]).expect("schema");
    let mut prg = Prg::from_label("relational-kat-table");
    let mut table = Table::new(schema);
    for id in 0..ROWS {
        table.insert(wide_row(id, &mut prg)).expect("insert");
    }
    table
}

/// The table after a fixed edit: two fields of 16 rows rewritten, three
/// rows deleted, four rows inserted.
fn edited(table: &Table) -> Table {
    let mut prg = Prg::from_label("relational-kat-delta");
    let mut out = table.clone();
    for id in (0..ROWS).step_by(16) {
        let a = format!("f{:03}", 1 + (id as usize % 37));
        let b = format!("f{:03}", 40 + (id as usize % 31));
        out.update(
            &[Value::Int(id)],
            &[
                (a.as_str(), hex_cell(&mut prg)),
                (b.as_str(), hex_cell(&mut prg)),
            ],
        )
        .expect("update");
    }
    for id in [5i64, 77, 200] {
        out.delete(&[Value::Int(id)]).expect("delete");
    }
    for id in ROWS..ROWS + 4 {
        out.insert(wide_row(id, &mut prg)).expect("insert");
    }
    out
}

#[test]
fn table_content_hash_after_delta_is_pinned() {
    let mut table = wide_table();
    assert_eq!(
        table.content_hash().to_hex(),
        "4c3abd279ef39a7c935badb1098bf6e6af3a9b5c9c1b2632d4bb3a5d1fecab11"
    );
    let delta = diff_tables(&table, &edited(&table));
    table.apply_delta(&delta).expect("apply");
    assert_eq!(
        table.content_hash().to_hex(),
        "abf988054371d7cb36ca684946377e4a153c0be2d25486a1b405dac9da643df8"
    );
}

#[test]
fn delta_codec_bytes_are_pinned() {
    let table = wide_table();
    let delta = diff_tables(&table, &edited(&table));
    assert_eq!(delta.row_count(), 23);
    let bytes = delta.encoded();
    assert_eq!(bytes.len(), 51393);
    assert_eq!(
        sha256(&bytes).to_hex(),
        "e64a8b7cabc76cc54a8c4b0be8fd4a286a5a82b2815ca94e64cc7b464abaa493"
    );
}

#[test]
fn shard_map_fold_at_four_shards_is_pinned() {
    let table = wide_table();
    let delta = diff_tables(&table, &edited(&table));
    let mut map = ShardMap::from_table(&table, 4);
    assert_eq!(map.content_hash(), table.content_hash());
    let inverse = map.apply_delta(&delta).expect("apply");
    assert_eq!(
        map.content_hash().to_hex(),
        "abf988054371d7cb36ca684946377e4a153c0be2d25486a1b405dac9da643df8"
    );
    assert_eq!(
        sha256(&inverse.encoded()).to_hex(),
        "df225440a2376d56def4940d9d1c417a36b7d703ce3efb0ff33ce01918992025"
    );
}
