//! The traced run's per-layer view: the program's own telemetry
//! (`wave.*`, `gateway.*`, `chain.*`, `storage.*`), and a replay that
//! times each public primitive a wave calls on the workload's own
//! captured data. Multiplying each primitive by its operations per wave
//! predicts the wave time, printed next to the measured one.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use medledger_consensus::{PbftConfig, PbftRound};
use medledger_core::MedLedger;
use medledger_crypto::{sha256, KeyPair};
use medledger_ledger::{Block, Chain};
use medledger_network::LatencyModel;
use medledger_node::wire::{duplex, Envelope, Message, WireWrite, DEFAULT_PIPE_CAPACITY};
use medledger_node::Runtime;
use medledger_relational::{delta_from_write_op, diff_tables, ShardMap, Table, TableDelta};
use medledger_storage::{DurableStore, Encode, StorageBackend};
use medledger_telemetry::Snapshot;

use crate::stats::{median, time_per_call};
use crate::world::{self, Job, Shape};
use crate::Metric;

/// Time budget per replayed primitive.
const BUDGET: Duration = Duration::from_millis(120);

/// µs per call of each replayed primitive.
#[derive(Debug, Default)]
pub struct Replay {
    pub sha256_block_us: f64,
    pub sign_us: f64,
    pub verify_us: f64,
    pub keygen_us_per_key: f64,
    pub put_delta_us_per_row: f64,
    pub shard_apply_us_per_row: f64,
    pub content_hash_us: f64,
    pub encode_us_per_kb: f64,
    pub decode_us_per_kb: f64,
    pub wal_append_sync_us: f64,
    pub snapshot_us: f64,
    pub chain_append_us_per_block: f64,
    pub chain_append_us_per_tx: f64,
    pub round_us: f64,
    pub wire_roundtrip_us: f64,
}

/// Median µs of `op` timed call by call, `setup` (untimed) before each.
fn time_each<S>(min_calls: usize, mut setup: impl FnMut() -> S, mut op: impl FnMut(S)) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_calls || start.elapsed() < BUDGET {
        let input = setup();
        let t = Instant::now();
        op(input);
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

/// The view delta `job` makes on `view`.
fn job_delta(view: &Table, job: &Job) -> Result<TableDelta, String> {
    let mut edited = view.clone();
    for w in &job.writes {
        if let WireWrite::Shared(op) = w {
            let d = delta_from_write_op(&edited, op).map_err(|e| e.to_string())?;
            edited.apply_delta(&d).map_err(|e| e.to_string())?;
        }
    }
    Ok(diff_tables(view, &edited))
}

/// A table, sharded the way the workload's peers store it.
enum Stored {
    Plain(Table),
    Sharded(ShardMap),
}

impl Stored {
    fn apply(&mut self, d: &TableDelta) -> TableDelta {
        match self {
            Stored::Plain(t) => t.apply_delta(d),
            Stored::Sharded(m) => m.apply_delta(d),
        }
        .expect("the captured delta applies to the table it was made on")
    }

    fn hash(&self) -> medledger_crypto::Hash256 {
        match self {
            Stored::Plain(t) => t.content_hash(),
            Stored::Sharded(m) => m.content_hash(),
        }
    }
}

/// Times every primitive on data captured from `ledger` after the
/// workload ran: `job`'s delta on the submitting peer's view and
/// source, the committed chain's blocks, and a store under `dir`.
pub fn replay(ledger: &MedLedger, shape: Shape, job: &Job, dir: &Path) -> Result<Replay, String> {
    let err = |e: medledger_core::CoreError| e.to_string();
    let peer = ledger.peer_id(job.peer).map_err(err)?;
    let view = ledger.reader(peer).read(shape.table()).map_err(err)?;
    let (source_name, lens) = world::binding(shape, job.peer);
    let source = ledger.reader(peer).source(source_name).map_err(err)?;
    let delta = job_delta(&view, job)?;
    let rows = (delta.inserts.len() + delta.updates.len() + delta.deletes.len()).max(1) as f64;
    let mut r = Replay::default();

    let block_msg = [0x42u8; 55];
    r.sha256_block_us = time_per_call(BUDGET, 9, 1000, || {
        black_box(sha256(black_box(&block_msg)));
    });
    r.keygen_us_per_key = time_each(
        3,
        || (),
        |()| {
            black_box(KeyPair::generate("perfbench-keygen", 64));
        },
    ) / 64.0;
    let msg = delta.encoded();
    let mut signer = KeyPair::generate("perfbench-sign", 256);
    let public = signer.public();
    let mut signatures = Vec::new();
    let mut sign_us = Vec::new();
    let start = Instant::now();
    while signer.remaining() > 0 && (sign_us.len() < 9 || start.elapsed() < BUDGET) {
        let t = Instant::now();
        let sig = signer.sign(&msg).map_err(|e| format!("sign: {e:?}"))?;
        sign_us.push(t.elapsed().as_secs_f64() * 1e6);
        signatures.push(sig);
    }
    r.sign_us = median(&sign_us);
    let mut next = 0usize;
    r.verify_us = time_each(
        9,
        || {
            next += 1;
            &signatures[next % signatures.len()]
        },
        |sig| assert!(sig.verify(&public, &msg), "own signature verifies"),
    );

    r.put_delta_us_per_row = time_per_call(BUDGET, 9, 1, || {
        black_box(
            medledger_bx::put_delta(&lens, &source, &delta).expect("captured delta puts back"),
        );
    }) / rows;
    let mut stored = if shape == Shape::Wide {
        Stored::Sharded(ShardMap::from_table(&view, world::WIDE_SHARDS))
    } else {
        Stored::Plain(view.clone())
    };
    r.shard_apply_us_per_row = time_per_call(BUDGET, 9, 1, || {
        let inverse = stored.apply(&delta);
        stored.apply(&inverse);
    }) / 2.0
        / rows;
    // Hash right after an apply, as a wave does; the applies are not
    // timed.
    let mut hashes = Vec::new();
    let start = Instant::now();
    while hashes.len() < 9 || start.elapsed() < BUDGET {
        let inverse = stored.apply(&delta);
        let t = Instant::now();
        black_box(stored.hash());
        hashes.push(t.elapsed().as_secs_f64() * 1e6);
        stored.apply(&inverse);
    }
    r.content_hash_us = median(&hashes);

    let blocks: Vec<Block> = ledger.chain().blocks()[1..].to_vec();
    let mut encoded: Vec<Vec<u8>> = blocks.iter().rev().take(64).map(Encode::encoded).collect();
    encoded.push(delta.encoded());
    let kb = encoded.iter().map(Vec::len).sum::<usize>() as f64 / 1024.0;
    let sample: Vec<Block> = blocks.iter().rev().take(64).cloned().collect();
    r.encode_us_per_kb = time_per_call(BUDGET, 9, 1, || {
        for b in &sample {
            black_box(b.encoded());
        }
        black_box(delta.encoded());
    }) / kb;
    r.decode_us_per_kb = time_per_call(BUDGET, 9, 1, || {
        let (delta_bytes, block_bytes) = encoded.split_last().expect("delta encoded last");
        for b in block_bytes {
            black_box(<Block as medledger_storage::Decode>::decode(b).expect("block decodes"));
        }
        black_box(
            <TableDelta as medledger_storage::Decode>::decode(delta_bytes).expect("delta decodes"),
        );
    }) / kb;

    let mut store = DurableStore::open(dir.join("replay-store")).map_err(|e| e.to_string())?;
    r.wal_append_sync_us = time_each(
        9,
        || (),
        |()| {
            store.append("replay", &msg).expect("WAL append");
            store.sync().expect("WAL sync");
        },
    );
    let mut snapshot = view.encoded();
    snapshot.extend(source.encoded());
    let mut id = 0;
    r.snapshot_us = time_each(
        5,
        || {
            id += 1;
            id
        },
        |id| store.write_snapshot(id, &snapshot).expect("snapshot write"),
    );

    let chain = ledger.chain();
    let genesis = chain.blocks()[0].header.proposer;
    let t = Instant::now();
    let mut replayed = Chain::new(chain.membership().clone(), genesis);
    for b in blocks.iter().cloned() {
        replayed
            .append(b)
            .map_err(|e| format!("chain replay: {e:?}"))?;
    }
    let us = t.elapsed().as_secs_f64() * 1e6;
    let txs: usize = blocks.iter().map(|b| b.txs.len()).sum();
    r.chain_append_us_per_block = us / blocks.len().max(1) as f64;
    r.chain_append_us_per_tx = us / txs.max(1) as f64;

    let last = blocks.last().unwrap_or(&chain.blocks()[0]);
    let round = PbftRound::new(PbftConfig {
        n: 4,
        latency: LatencyModel::lan(),
        drop_rate: 0.0,
        timeout_ms: 2_000,
        seed: "perfbench-pbft".into(),
    })
    .payload_bytes(last.encoded_len().max(64));
    let digest = Block::tx_root(&last.txs);
    r.round_us = time_per_call(BUDGET, 9, 1, || {
        black_box(round.run(last.header.height, digest, 3_600_000));
    });

    let rt = Runtime::new(1);
    let (mut a, mut b) = duplex(DEFAULT_PIPE_CAPACITY);
    let env = Envelope {
        corr: 1,
        body: Message::Submit {
            peer: job.peer.into(),
            table: job.table.into(),
            writes: job.writes.clone(),
        },
    };
    r.wire_roundtrip_us = time_per_call(BUDGET, 9, 1, || {
        rt.block_on(async {
            a.send(&env).await.expect("send");
            let got = b.recv().await.expect("recv").expect("frame");
            b.send(&got).await.expect("echo");
            black_box(a.recv().await.expect("recv echo"));
        })
    });
    rt.shutdown();
    Ok(r)
}

/// Operation counts of the traced run that the prediction needs.
pub struct Counts {
    /// One-time keys used by every peer during the traced run.
    pub keys_used: f64,
    pub committed: f64,
    pub rows_committed: f64,
    pub receivers: f64,
    pub wire_bytes: f64,
}

fn hist_mean(s: &Snapshot, name: &str) -> f64 {
    s.histogram(name)
        .map_or(0.0, |h| h.sum as f64 / h.count.max(1) as f64)
}

fn hist_p(s: &Snapshot, name: &str, p: u8) -> f64 {
    s.histogram(name).map_or(0.0, |h| match p {
        50 => h.p50,
        _ => h.p99,
    } as f64)
}

fn counter(s: &Snapshot, name: &str) -> f64 {
    s.counter(name).unwrap_or(0) as f64
}

/// The per-layer metrics, and the predicted-vs-measured wave table as
/// text.
pub fn per_layer(snap: &Snapshot, c: &Counts, r: &Replay) -> (Vec<Metric>, String) {
    let waves = counter(snap, "chain.waves").max(1.0);
    let per_wave = |name: &str| counter(snap, name) / waves;
    let blocks = per_wave("chain.blocks");
    let txs = per_wave("chain.txs");
    let signs = c.keys_used / waves;
    let ack_shares = (signs - txs).max(0.0);
    let members = 1.0;
    let rows = c.rows_committed / waves;
    let flushes = per_wave("storage.flushes");
    let snapshots = per_wave("storage.snapshots");
    let log_bytes = counter(snap, "storage.wal_bytes") + counter(snap, "storage.chain_bytes");
    let wal_kb = log_bytes / waves / 1024.0;
    let total_p50 = hist_p(snap, "wave.total_us", 50);
    // Operation counts are means per wave, so the prediction is held
    // against the mean wave; the p50 is printed beside it.
    let total_mean = hist_mean(snap, "wave.total_us").max(1.0);

    // Operations per wave × µs per operation. Chain append verifies
    // each transaction's signature, and its cost grows with the
    // transactions a block holds, so it is counted per transaction;
    // the verifies counted apart are the off-chain ack-share checks.
    let table = [
        ("crypto sign", signs, r.sign_us),
        ("crypto verify (ack shares)", ack_shares, r.verify_us),
        (
            "ledger chain append (per tx)",
            txs,
            r.chain_append_us_per_tx,
        ),
        ("consensus PBFT round", blocks, r.round_us),
        (
            "bx put_delta (rows × peers)",
            rows * (1.0 + c.receivers),
            r.put_delta_us_per_row,
        ),
        (
            "relational apply (rows × peers)",
            rows * (1.0 + c.receivers),
            r.shard_apply_us_per_row,
        ),
        (
            "relational content hash",
            members * (1.0 + c.receivers),
            r.content_hash_us,
        ),
        ("storage encode (WAL KB)", wal_kb, r.encode_us_per_kb),
        ("storage append+sync", flushes, r.wal_append_sync_us),
        ("storage snapshot", snapshots, r.snapshot_us),
    ];
    let predicted: f64 = table.iter().map(|(_, n, us)| n * us).sum();
    let mut text = format!(
        "{:<34} {:>10} {:>10} {:>11} {:>8}\n",
        "layer primitive", "ops/wave", "µs/op", "µs/wave", "share"
    );
    for (name, n, us) in &table {
        text.push_str(&format!(
            "{name:<34} {n:>10.2} {us:>10.2} {:>11.1} {:>7.1}%\n",
            n * us,
            100.0 * n * us / total_mean
        ));
    }
    let unexplained = 1.0 - predicted / total_mean;
    text.push_str(&format!(
        "{:<34} {predicted:>33.1} {:>7.1}%\n{:<34} {total_mean:>33.1}\n{:<34} {total_p50:>33.1}\n",
        "predicted wave",
        100.0 * predicted / total_mean,
        "measured wave.total_us mean",
        "measured wave.total_us p50",
    ));
    text.push_str("measured phase means (µs/wave):");
    for phase in ["screen", "prepare", "consensus", "fanout", "ack", "cascade"] {
        text.push_str(&format!(
            " {phase} {:.0}",
            hist_mean(snap, &format!("wave.phase.{phase}_us"))
        ));
    }
    text.push('\n');

    let m = |name: &str, value: f64, unit: &'static str| Metric {
        name: name.into(),
        value,
        unit,
    };
    let metrics = vec![
        m("crypto.sign_us", r.sign_us, "us"),
        m("crypto.verify_us", r.verify_us, "us"),
        m("crypto.sha256_block_us", r.sha256_block_us, "us"),
        m("crypto.signs_per_wave", signs, "count"),
        m("crypto.verifies_per_wave", txs + ack_shares, "count"),
        m("crypto.keygen_us_per_key", r.keygen_us_per_key, "us"),
        m(
            "crypto.keys_used_per_commit",
            c.keys_used / c.committed.max(1.0),
            "count",
        ),
        m("bx.put_delta_us_per_row", r.put_delta_us_per_row, "us"),
        m(
            "relational.shard_apply_us_per_row",
            r.shard_apply_us_per_row,
            "us",
        ),
        m("relational.content_hash_us", r.content_hash_us, "us"),
        m(
            "network.fanout_us",
            hist_p(snap, "wave.phase.fanout_us", 50),
            "us",
        ),
        m(
            "network.p2p_bytes_per_wave",
            per_wave("chain.p2p_bytes"),
            "B",
        ),
        m("storage.encode_us_per_kb", r.encode_us_per_kb, "us/KiB"),
        m("storage.decode_us_per_kb", r.decode_us_per_kb, "us/KiB"),
        m("storage.wal_append_sync_us", r.wal_append_sync_us, "us"),
        m(
            "storage.wal_bytes_per_commit",
            log_bytes / c.committed.max(1.0),
            "B",
        ),
        m("storage.snapshot_us", r.snapshot_us, "us"),
        m(
            "ledger.chain_append_us_per_block",
            r.chain_append_us_per_block,
            "us",
        ),
        m("ledger.blocks_per_wave", blocks, "count"),
        m("ledger.txs_per_wave", txs, "count"),
        m("consensus.round_us", r.round_us, "us"),
        m(
            "consensus.msgs_per_wave",
            per_wave("chain.consensus_msgs"),
            "count",
        ),
        m(
            "consensus.bytes_per_wave",
            per_wave("chain.consensus_bytes"),
            "B",
        ),
        m("core.wave_total_us_p50", total_p50, "us"),
        m(
            "core.wave_total_us_p99",
            hist_p(snap, "wave.total_us", 99),
            "us",
        ),
        m(
            "core.phase.screen_us",
            hist_mean(snap, "wave.phase.screen_us"),
            "us",
        ),
        m(
            "core.phase.prepare_us",
            hist_mean(snap, "wave.phase.prepare_us"),
            "us",
        ),
        m(
            "core.phase.consensus_us",
            hist_mean(snap, "wave.phase.consensus_us"),
            "us",
        ),
        m(
            "core.phase.fanout_us",
            hist_mean(snap, "wave.phase.fanout_us"),
            "us",
        ),
        m(
            "core.phase.ack_us",
            hist_mean(snap, "wave.phase.ack_us"),
            "us",
        ),
        m(
            "core.phase.cascade_us",
            hist_mean(snap, "wave.phase.cascade_us"),
            "us",
        ),
        m("core.wave_predicted_us", predicted, "us"),
        m("core.wave_unexplained_ratio", unexplained, "ratio"),
        m(
            "engine.submissions_per_wave",
            counter(snap, "gateway.submissions") / waves,
            "count",
        ),
        m(
            "engine.queue_wait_us",
            hist_mean(snap, "gateway.ticket_wait_us") - hist_mean(snap, "wave.total_us"),
            "us",
        ),
        m(
            "node.ticket_wait_us_p50",
            hist_p(snap, "gateway.ticket_wait_us", 50),
            "us",
        ),
        m(
            "node.ticket_wait_us_p99",
            hist_p(snap, "gateway.ticket_wait_us", 99),
            "us",
        ),
        m(
            "node.queue_high_water",
            snap.gauge("gateway.queue_high_water").unwrap_or(0) as f64,
            "count",
        ),
        m(
            "node.wire_bytes_per_commit",
            c.wire_bytes / c.committed.max(1.0),
            "B",
        ),
        m("node.wire_roundtrip_us", r.wire_roundtrip_us, "us"),
    ];
    (metrics, text)
}
