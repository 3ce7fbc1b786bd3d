//! The deployments the workloads run against, and the inputs they feed
//! them. Everything here is generated from the run's seed; the program
//! under test only ever sees the generated tables and writes.

use std::path::Path;

use medledger_bx::LensSpec;
use medledger_core::{MedLedger, MedLedgerBuilder};
use medledger_crypto::Prg;
use medledger_engine::LedgerService;
use medledger_node::wire::WireWrite;
use medledger_node::{Deployment, GatewayConfig};
use medledger_relational::{Column, Row, Schema, Table, Value, ValueType, WriteOp};
use medledger_telemetry::Recorder;
use medledger_workload::{EhrGenerator, UpdateKind, UpdateStream};

/// Simulated PBFT block interval (virtual ms; costs no wall-clock time).
const BLOCK_INTERVAL_MS: u64 = 100;
/// Full snapshot every this many wave flushes on durable deployments.
pub const SNAPSHOT_EVERY: u64 = 8;

/// Patients in the `ward` share, and how many of them are hot.
pub const WARD_PATIENTS: usize = 64;
pub const WARD_HOT_ROWS: usize = 8;

/// The wide share: rows, total fields per row (key included, like the
/// 152-field encrypted patient record), receivers and shards.
pub const WIDE_ROWS: usize = 256;
pub const WIDE_FIELDS: usize = 152;
pub const WIDE_RECEIVERS: usize = 4;
pub const WIDE_SHARDS: usize = 4;
/// Rows one wide submission edits, and shared fields edited per row.
pub const WIDE_BATCH_ROWS: usize = 16;
const WIDE_EDITED_FIELDS: usize = 2;
/// Bytes of one generated wide-table text cell (a 16-byte ciphertext
/// in hex).
const WIDE_CELL_HEX: usize = 32;

/// Which share a deployment serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Fig. 1 doctor + patient `ward` share.
    Ward,
    /// One hub sharing half of a 152-field table with four receivers.
    Wide,
}

impl Shape {
    pub fn table(self) -> &'static str {
        match self {
            Shape::Ward => "ward",
            Shape::Wide => "wide",
        }
    }
}

/// One generated submission: who submits which writes, and how many
/// rows they edit.
#[derive(Clone, Debug)]
pub struct Job {
    pub peer: &'static str,
    pub table: &'static str,
    pub writes: Vec<WireWrite>,
    pub rows: u64,
}

/// Executor and fan-out threads: the host's parallelism, at most 2.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// The builder every deployment of one seed shares (recovery must use
/// the same configuration as the deployment that wrote the store).
pub fn builder(seed: &str, shape: Shape, keys: usize, store: Option<&Path>) -> MedLedgerBuilder {
    let mut b = MedLedger::builder()
        .seed(format!("{seed}-{}", shape.table()))
        .pbft(BLOCK_INTERVAL_MS)
        .peer_key_capacity(keys)
        .fanout_workers(threads());
    if shape == Shape::Wide {
        b = b.shards_per_table(WIDE_SHARDS);
    }
    if let Some(dir) = store {
        b = b.durable(dir).snapshot_every(SNAPSHOT_EVERY);
    }
    b
}

/// Builds the share's ledger: keygen, table generation, share creation.
pub fn ledger(
    seed: &str,
    shape: Shape,
    keys: usize,
    store: Option<&Path>,
) -> Result<MedLedger, String> {
    let ledger = builder(seed, shape, keys, store)
        .build()
        .map_err(|e| format!("boot: {e}"))?;
    match shape {
        Shape::Ward => populate_ward(ledger, seed),
        Shape::Wide => populate_wide(ledger, seed),
    }
    .map_err(|e| format!("populate: {e}"))
}

const WARD_SHARED: [&str; 4] = ["patient_id", "medication_name", "clinical_data", "dosage"];

/// The source table and lens through which `peer` binds the share.
pub fn binding(shape: Shape, peer: &str) -> (&'static str, LensSpec) {
    match (shape, peer) {
        (Shape::Ward, "Doctor") => (
            "D3",
            LensSpec::project_with_defaults(
                &WARD_SHARED,
                &["patient_id"],
                &[("mechanism_of_action", Value::text("unknown"))],
            ),
        ),
        (Shape::Ward, _) => ("P1", LensSpec::project(&WARD_SHARED, &["patient_id"])),
        (Shape::Wide, peer) => {
            let shared = wide_shared_columns();
            let shared: Vec<&str> = shared.iter().map(String::as_str).collect();
            let source = if peer == "Hub" { "H" } else { "R" };
            (source, LensSpec::project(&shared, &["patient_id"]))
        }
    }
}

fn populate_ward(mut ledger: MedLedger, seed: &str) -> medledger_core::Result<MedLedger> {
    let doctor = ledger.add_peer("Doctor")?;
    let patient = ledger.add_peer("Patient")?;
    let full = EhrGenerator::new(seed).full_records(WARD_PATIENTS);
    let mut doctor_cols = WARD_SHARED.to_vec();
    doctor_cols.push("mechanism_of_action");
    let (d_src, d_lens) = binding(Shape::Ward, "Doctor");
    let (p_src, p_lens) = binding(Shape::Ward, "Patient");
    ledger
        .session(doctor)
        .load_source(d_src, full.project(&doctor_cols, &["patient_id"])?)?;
    ledger
        .session(patient)
        .load_source(p_src, full.project(&WARD_SHARED, &["patient_id"])?)?;
    ledger
        .session(doctor)
        .share("ward")
        .bind(d_src, d_lens)
        .with(patient, p_src, p_lens)
        .writers("patient_id", &[doctor])
        .writers("medication_name", &[doctor])
        .writers("dosage", &[doctor])
        .writers("clinical_data", &[doctor, patient])
        .create()?;
    Ok(ledger)
}

/// Column names of the wide table: `patient_id`, then `f001`…`f151`.
fn wide_columns() -> Vec<String> {
    let mut cols = vec!["patient_id".to_string()];
    cols.extend((1..WIDE_FIELDS).map(|i| format!("f{i:03}")));
    cols
}

/// The shared half: the key plus every odd field.
fn wide_shared_columns() -> Vec<String> {
    wide_columns()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| *i == 0 || i % 2 == 1)
        .map(|(_, c)| c)
        .collect()
}

fn hex_cell(prg: &mut Prg) -> Value {
    let mut bytes = [0u8; WIDE_CELL_HEX / 2];
    prg.fill(&mut bytes);
    Value::text(bytes.iter().map(|b| format!("{b:02x}")).collect::<String>())
}

/// The hub's full wide table, generated from the seed.
fn wide_table(seed: &str) -> medledger_core::Result<Table> {
    let cols = wide_columns();
    let mut columns = vec![Column::new("patient_id", ValueType::Int)];
    columns.extend(cols[1..].iter().map(|c| Column::new(c, ValueType::Text)));
    let mut table = Table::new(Schema::new(columns, &["patient_id"])?);
    let mut prg = Prg::from_label(&format!("perfbench-wide-{seed}"));
    for r in 0..WIDE_ROWS {
        let mut values = vec![Value::Int(r as i64)];
        values.extend((1..WIDE_FIELDS).map(|_| hex_cell(&mut prg)));
        table.insert(Row::new(values))?;
    }
    Ok(table)
}

fn populate_wide(mut ledger: MedLedger, seed: &str) -> medledger_core::Result<MedLedger> {
    let hub = ledger.add_peer("Hub")?;
    let receivers = (0..WIDE_RECEIVERS)
        .map(|i| ledger.add_peer(&format!("Clinic{i}")))
        .collect::<medledger_core::Result<Vec<_>>>()?;
    let full = wide_table(seed)?;
    let shared = wide_shared_columns();
    let shared: Vec<&str> = shared.iter().map(String::as_str).collect();
    let view = full.project(&shared, &["patient_id"])?;
    let (h_src, h_lens) = binding(Shape::Wide, "Hub");
    let (r_src, r_lens) = binding(Shape::Wide, "Clinic");
    ledger.session(hub).load_source(h_src, full)?;
    for r in &receivers {
        ledger.session(*r).load_source(r_src, view.clone())?;
    }
    let mut session = ledger.session(hub);
    let mut share = session.share("wide").bind(h_src, h_lens);
    for r in &receivers {
        share = share.with(*r, r_src, r_lens.clone());
    }
    for col in &shared {
        share = share.writers(*col, &[hub]);
    }
    share.create()?;
    Ok(ledger)
}

/// Starts the gateway over `ledger` with auto pump.
pub fn deploy(ledger: MedLedger, recorder: Option<Recorder>) -> Result<Deployment, String> {
    let mut cfg = GatewayConfig::default().threads(threads());
    if let Some(r) = recorder {
        cfg = cfg.recorder(r);
    }
    Deployment::start(LedgerService::new(ledger), cfg).map_err(|e| format!("start: {e}"))
}

/// `n` ward submissions: doctor dosage edits and patient clinical-note
/// edits on hotspot patients. Every value is unique so no submission
/// is a no-op.
pub fn ward_jobs(seed: &str, n: usize) -> Vec<Job> {
    let ids: Vec<i64> = (0..WARD_PATIENTS as i64).map(|i| 1000 + i).collect();
    let mut stream = UpdateStream::hotspot(&format!("perfbench-{seed}"), ids, WARD_HOT_ROWS);
    (0..n)
        .map(|i| {
            let u = stream.next_update();
            let (peer, attr) = match u.kind {
                UpdateKind::Dosage => ("Doctor", "dosage"),
                _ => ("Patient", "clinical_data"),
            };
            let value = match &u.new_value {
                Value::Text(s) => Value::text(format!("{s} #{i}")),
                other => other.clone(),
            };
            Job {
                peer,
                table: "ward",
                writes: vec![WireWrite::Shared(WriteOp::Update {
                    key: vec![u.target],
                    assignments: vec![(attr.into(), value)],
                })],
                rows: 1,
            }
        })
        .collect()
}

/// `n` hub submissions, each editing two shared fields of 64 distinct
/// rows.
pub fn wide_jobs(seed: &str, n: usize) -> Vec<Job> {
    let shared = wide_shared_columns();
    let mut prg = Prg::from_label(&format!("perfbench-wide-jobs-{seed}"));
    (0..n)
        .map(|_| {
            let mut rows: Vec<i64> = (0..WIDE_ROWS as i64).collect();
            let mut writes = Vec::with_capacity(WIDE_BATCH_ROWS);
            for _ in 0..WIDE_BATCH_ROWS {
                let pick = prg.next_below(rows.len() as u64) as usize;
                let key = rows.swap_remove(pick);
                let mut cols: Vec<usize> = (1..shared.len()).collect();
                let assignments = (0..WIDE_EDITED_FIELDS)
                    .map(|_| {
                        let pick = prg.next_below(cols.len() as u64) as usize;
                        (shared[cols.swap_remove(pick)].clone(), hex_cell(&mut prg))
                    })
                    .collect();
                writes.push(WireWrite::Shared(WriteOp::Update {
                    key: vec![Value::Int(key)],
                    assignments,
                }));
            }
            Job {
                peer: "Hub",
                table: "wide",
                writes,
                rows: WIDE_BATCH_ROWS as u64,
            }
        })
        .collect()
}
