//! The three workloads. Each fixes its work from `--seconds` (sized so
//! the seed commit takes about that long to measure), sets every
//! deployment's key budget from the work it plans, and checks the
//! outputs: identical slices on every peer, every ticket resolved,
//! keys left over, and recovery to exactly the closed ledger's state.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use medledger_core::MedLedger;
use medledger_crypto::Hash256;
use medledger_engine::LedgerService;
use medledger_node::Deployment;
use medledger_telemetry::{Recorder, Registry};

use crate::drive::{closed_loop, open_loop, Phase};
use crate::layers::{self, Counts};
use crate::stats::{median, quantile};
use crate::world::{self, Job, Shape};
use crate::{env, Metric};

/// `ward`'s open-loop rate: about a quarter of what the seed commit
/// sustains with 32 closed-loop sessions on a 2-core machine (about
/// 600/s). A shared machine's speed can halve for minutes; at half of
/// capacity the open loop would then run near saturation and its
/// latencies would measure the neighbours rather than the program.
const WARD_OPEN_RATE: f64 = 150.0;
/// Share of `--seconds` the `ward` open loops run.
const WARD_OPEN_SHARE: f64 = 0.66;
/// `ward` closed-loop sessions, and closed-loop jobs per `--second`.
const WARD_SESSIONS: usize = 32;
const WARD_CLOSED_PER_S: f64 = 180.0;
/// Submissions a `ward` wave combines at 32 sessions, at the least,
/// for the key plan (the seed combines about 16).
const WARD_MIN_PER_WAVE: usize = 4;
/// `wide-fanout`: closed-loop sessions and jobs per `--second`.
const WIDE_SESSIONS: usize = 4;
const WIDE_PER_S: f64 = 20.0;
/// `durable-recover`: closed-loop sessions and jobs per `--second`.
const DURABLE_SESSIONS: usize = 8;
const DURABLE_PER_S: f64 = 75.0;
/// Share of `--seconds` spent on repeated `durable-recover` recoveries.
const DURABLE_RECOVER_SHARE: f64 = 0.35;
/// Unmeasured closed-loop submissions before each measured phase.
const WARM_JOBS: usize = 32;
/// Every gated timing is scaled to this reference-compression time
/// (µs), the uncontended speed of the reference loop on the 2-core
/// machine the benchmark was tuned on: set-ups and recoveries by
/// reference timings right before and after them, load phases by a
/// sampler running alongside. Most of the work is SHA-256, whose speed
/// on a shared machine swings with the neighbours' load.
const REF_NOMINAL_US: f64 = 0.30;
const REF_PROBE: Duration = Duration::from_millis(20);
/// The recovery probe of the non-durable workloads: jobs, and the
/// share of `--seconds` spent on its repeated recoveries.
const PROBE_JOBS: usize = 48;
const PROBE_RECOVER_SHARE: f64 = 0.15;
/// No peer submits more than this share of a workload's jobs (`ward`'s
/// doctor submits 70% on average), for seed-independent key budgets.
const MAX_PEER_SHARE: f64 = 0.8;
/// Capacity and rows per second are medians over this many stretches
/// of each closed-loop phase, and the commit latency percentiles are
/// medians over this many slices of each phase's submissions, so a
/// stall of the shared machine moves them little.
const RATE_PARTS: usize = 10;
const LATENCY_SLICES: usize = 5;

pub const WORKLOADS: [&str; 3] = ["ward", "wide-fanout", "durable-recover"];

/// What one run needs to know.
pub struct RunCfg {
    pub seed: String,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for stores, inside the checkout.
    pub tmp: PathBuf,
}

/// Correctness checks, by description.
#[derive(Default)]
pub struct Checks(pub Vec<(String, bool)>);

impl Checks {
    fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.0.push((what.into(), ok));
    }
}

/// A finished run.
pub struct Outcome {
    pub checks: Checks,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub text: String,
}

/// Tallies phases into the run's attempted/failed counts.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, label: &str, p: &Phase) {
        self.attempted += p.attempted();
        self.failed += p.failed();
        for (reason, n) in &p.failures {
            self.failures.push(format!("{label}: {n} × {reason}"));
        }
    }
}

/// A deployment that served its phases and was shut down.
struct Finished {
    service: LedgerService,
    wire_bytes: u64,
    keys_used: u64,
}

/// One-time keys used by every peer, and the fewest any peer has left.
fn keys(ledger: &MedLedger) -> (u64, u64) {
    ledger
        .peers()
        .iter()
        .fold((0, u64::MAX), |(used, left), p| {
            let node = ledger.system().peer(*p).expect("listed peers exist");
            (used + node.keys.used(), left.min(node.keys.remaining()))
        })
}

/// Runs `f` and times it: seconds as measured, and scaled to the
/// nominal reference speed by reference timings right before and after.
fn timed<T>(f: impl FnOnce() -> T) -> (T, (f64, f64)) {
    let ref_before = env::ref_sha256_block_us(REF_PROBE);
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    let ref_us = (ref_before + env::ref_sha256_block_us(REF_PROBE)) / 2.0;
    (out, (secs, secs * REF_NOMINAL_US / ref_us))
}

/// Builds a ledger and starts it, timing both; also returns the keys
/// the peers used before traffic.
fn start(
    cfg: &RunCfg,
    shape: Shape,
    keys_cap: usize,
    store: Option<&Path>,
    recorder: Option<Recorder>,
) -> Result<(Deployment, (f64, f64), u64), String> {
    let (started, secs) = timed(|| {
        let ledger = world::ledger(&cfg.seed, shape, keys_cap, store)?;
        let used = keys(&ledger).0;
        Ok::<_, String>((world::deploy(ledger, recorder)?, used))
    });
    let (dep, used) = started?;
    Ok((dep, secs, used))
}

fn finish(
    dep: Deployment,
    keys_before: u64,
    checks: &mut Checks,
    label: &str,
) -> Result<Finished, String> {
    let wire_bytes = dep.wire_bytes();
    let service = dep
        .shutdown()
        .map_err(|e| format!("{label}: shutdown: {e}"))?;
    let ledger = service.ledger();
    checks.check(
        format!("{label}: every peer holds the same shared slice"),
        ledger.check_consistency().is_ok(),
    );
    let (used, left) = keys(ledger);
    checks.check(
        format!("{label}: signing keys remain on every peer"),
        left > 0,
    );
    Ok(Finished {
        service,
        wire_bytes,
        keys_used: used - keys_before,
    })
}

/// What recovery must reproduce: chain height, and the shared table's
/// content hash on chain and in every peer's copy.
fn fingerprint(ledger: &MedLedger, shape: Shape) -> Result<(u64, Vec<Hash256>), String> {
    let table = shape.table();
    let mut hashes = vec![
        ledger
            .share_meta(table)
            .map_err(|e| e.to_string())?
            .content_hash,
    ];
    for p in ledger.peers() {
        hashes.push(
            ledger
                .reader(p)
                .read(table)
                .map_err(|e| e.to_string())?
                .content_hash(),
        );
    }
    Ok((ledger.chain().height(), hashes))
}

/// Closes a durable deployment's service, keeping what recovery must
/// reproduce.
fn close(service: LedgerService, shape: Shape) -> Result<(u64, Vec<Hash256>), String> {
    let fp = fingerprint(service.ledger(), shape)?;
    service.close().map_err(|e| format!("close: {e}"))?;
    Ok(fp)
}

/// Cold recovery of the store at `dir`, timed as [`timed`] does, until
/// the ledger is ready to serve; checked against `expected`.
fn recover(
    cfg: &RunCfg,
    shape: Shape,
    keys_cap: usize,
    dir: &Path,
    expected: &(u64, Vec<Hash256>),
    checks: &mut Checks,
) -> Result<(f64, f64), String> {
    let label = dir
        .file_name()
        .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
    let (ledger, secs) = timed(|| world::builder(&cfg.seed, shape, keys_cap, Some(dir)).build());
    let ledger = ledger.map_err(|e| format!("recovery: {e}"))?;
    checks.check(
        format!("{label}: recovery restores chain height and content hashes"),
        &fingerprint(&ledger, shape)? == expected,
    );
    checks.check(
        format!("{label}: recovered slices identical"),
        ledger.check_consistency().is_ok(),
    );
    Ok(secs)
}

/// Stores recovered cold in turn, between the workload's rounds, so the
/// recoveries spread over the whole run.
struct Recoveries {
    shape: Shape,
    keys_cap: usize,
    stores: Vec<(PathBuf, (u64, Vec<Hash256>))>,
    /// Measured and reference-scaled recovery times.
    times: Vec<(f64, f64)>,
}

impl Recoveries {
    /// Median reference-scaled recovery time, and the line that lists
    /// every recovery.
    fn summary(&self) -> (f64, String) {
        let scaled: Vec<f64> = self.times.iter().map(|t| t.1).collect();
        let raw: Vec<String> = self.times.iter().map(|t| format!("{:.3}", t.0)).collect();
        let line = format!(
            "{} recoveries, measured s: {}; median measured {:.4} s\n",
            raw.len(),
            raw.join(" "),
            median(&self.times.iter().map(|t| t.0).collect::<Vec<_>>())
        );
        (median(&scaled), line)
    }

    /// Recovers the stores round-robin, at least `min` times and until
    /// `budget_s` has passed.
    fn run(
        &mut self,
        cfg: &RunCfg,
        budget_s: f64,
        min: usize,
        checks: &mut Checks,
    ) -> Result<(), String> {
        let t = Instant::now();
        let mut n = 0;
        while !self.stores.is_empty() && (n < min || t.elapsed().as_secs_f64() < budget_s) {
            let (dir, expected) = &self.stores[self.times.len() % self.stores.len()];
            let secs = recover(cfg, self.shape, self.keys_cap, dir, expected, checks)?;
            self.times.push(secs);
            n += 1;
        }
        Ok(())
    }
}

/// A small durable deployment of `shape` fed `jobs` and closed: the
/// store whose recovery gives a non-durable workload's `recover_s`.
fn probe_store(
    cfg: &RunCfg,
    shape: Shape,
    jobs: Vec<Job>,
    sessions: usize,
    checks: &mut Checks,
    tally: &mut Tally,
) -> Result<Recoveries, String> {
    let dir = cfg.tmp.join(format!("probe-{}", shape.table()));
    let keys_cap = key_capacity(jobs.len(), jobs.len());
    let (dep, _, before) = start(cfg, shape, keys_cap, Some(&dir), None)?;
    let phase = closed_loop(&dep, &Arc::new(jobs), sessions);
    tally.add("recovery probe", &phase);
    let done = finish(dep, before, checks, "recovery probe")?;
    let expected = close(done.service, shape)?;
    Ok(Recoveries {
        shape,
        keys_cap,
        stores: vec![(dir, expected)],
        times: Vec::new(),
    })
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Latency that fell on a failed submission: reported as 10⁹ ms, far
/// beyond any run, since JSON has no infinity.
fn finite(ms: f64) -> f64 {
    if ms.is_finite() {
        ms
    } else {
        1e9
    }
}

/// How a round's measured phase offers load.
#[derive(Clone, Copy)]
enum Load {
    /// One submission due every `1/rate` seconds.
    Open(f64),
    /// This many sessions, each waiting for its previous outcome.
    Closed(usize),
}

/// A workload: rounds of identically configured deployments, each
/// running warm-up jobs and then its measured phase.
struct Plan {
    shape: Shape,
    durable: bool,
    /// Per round: load, warm-up jobs, measured jobs.
    rounds: Vec<(Load, usize, usize)>,
    /// Sessions of the unmeasured warm-up.
    warm_sessions: usize,
    keys_cap: usize,
}

/// Key capacity for `jobs` submissions in at most `waves` waves: a
/// peer signs each of its submissions plus one key per wave (the
/// lead's aggregated ack or a receiver's ack share). It depends on the
/// job count only, so every seed gets the same budget.
fn key_capacity(jobs: usize, waves: usize) -> usize {
    (MAX_PEER_SHARE * jobs as f64).ceil() as usize + waves + 16
}

/// Checks a round's jobs against the budget's assumption.
fn check_share(jobs: &[Job], checks: &mut Checks) {
    let mut per_peer: std::collections::BTreeMap<&str, usize> = Default::default();
    for job in jobs {
        *per_peer.entry(job.peer).or_insert(0) += 1;
    }
    let max = per_peer.values().max().copied().unwrap_or(0);
    checks.check(
        "no peer submits more than the key budget assumes",
        max as f64 <= MAX_PEER_SHARE * jobs.len() as f64 || per_peer.len() == 1,
    );
}

/// What the rounds of a plan produced.
#[derive(Default)]
struct Executed {
    /// Set-up times, measured and reference-scaled.
    setups: Vec<(f64, f64)>,
    /// Measured phases of untraced and of traced rounds.
    untraced: Vec<Phase>,
    traced: Vec<Phase>,
    /// Warm-up phases of traced rounds (their waves are in the registry).
    traced_warm: Vec<Phase>,
    traced_keys: u64,
    traced_wire_bytes: u64,
    replay: Option<layers::Replay>,
}

/// Runs every round of `plan` over consecutive slices of `jobs`, and
/// after each round spends `recover_s` seconds on `recoveries` (a
/// durable round first adds its own store). In a traced run the odd
/// rounds carry the recorder (the even ones are the untraced baseline
/// of the tracing overhead), and the last traced round's ledger is
/// replayed layer by layer.
fn execute(
    cfg: &RunCfg,
    plan: &Plan,
    jobs: Vec<Job>,
    recoveries: &mut Recoveries,
    recover_s: f64,
    checks: &mut Checks,
    tally: &mut Tally,
) -> Result<(Executed, Option<Arc<Registry>>), String> {
    let (registry, recorder) = if cfg.trace {
        let reg = Registry::shared();
        let rec = Recorder::new(&reg);
        (Some(reg), Some(rec))
    } else {
        (None, None)
    };
    let last_traced = (plan.rounds.len() / 2) * 2 - 1;
    let mut jobs = jobs.into_iter();
    let mut ex = Executed::default();
    for (i, &(load, n_warm, n_measured)) in plan.rounds.iter().enumerate() {
        let warm: Arc<Vec<Job>> = Arc::new(jobs.by_ref().take(n_warm).collect());
        let measured: Arc<Vec<Job>> = Arc::new(jobs.by_ref().take(n_measured).collect());
        check_share(&[&warm[..], &measured[..]].concat(), checks);
        let traced = cfg.trace && i % 2 == 1;
        let dir = plan.durable.then(|| cfg.tmp.join(format!("store-{i}")));
        let (dep, setup, before) = start(
            cfg,
            plan.shape,
            plan.keys_cap,
            dir.as_deref(),
            if traced { recorder.clone() } else { None },
        )?;
        ex.setups.push(setup);
        let warm_phase = closed_loop(&dep, &warm, plan.warm_sessions);
        tally.add("warm-up", &warm_phase);
        let sampler = env::SpeedSampler::start();
        let mut phase = match load {
            Load::Open(rate) => open_loop(&dep, &measured, rate, Duration::from_secs(20)),
            Load::Closed(sessions) => closed_loop(&dep, &measured, sessions),
        };
        phase.ref_us = sampler.finish();
        tally.add(&format!("round {i}"), &phase);
        let done = finish(dep, before, checks, &format!("round {i}"))?;
        if traced {
            ex.traced_keys += done.keys_used;
            ex.traced_wire_bytes += done.wire_bytes;
            ex.traced_warm.push(warm_phase);
            if i == last_traced {
                ex.replay = Some(layers::replay(
                    done.service.ledger(),
                    plan.shape,
                    &measured[0],
                    &cfg.tmp,
                )?);
            }
            ex.traced.push(phase);
        } else {
            ex.untraced.push(phase);
        }
        if let Some(dir) = dir {
            recoveries
                .stores
                .push((dir, close(done.service, plan.shape)?));
        }
        recoveries.run(cfg, recover_s / plan.rounds.len() as f64, 2, checks)?;
    }
    Ok((ex, registry))
}

/// The phases behind the commit latencies: the open-loop ones if
/// there are any, else the closed-loop ones.
fn latency_phases(phases: &[Phase]) -> Vec<&Phase> {
    let open: Vec<&Phase> = phases.iter().filter(|p| p.open_loop).collect();
    if open.is_empty() {
        phases.iter().collect()
    } else {
        open
    }
}

/// Median over slices of the per-slice p50 and p99 commit latency,
/// each phase's scaled to the nominal reference speed when `scaled`.
fn latency(phases: &[Phase], scaled: bool) -> (f64, f64, usize) {
    let from = latency_phases(phases);
    let slices: Vec<(f64, f64)> = from
        .iter()
        .flat_map(|p| {
            let k = if scaled {
                REF_NOMINAL_US / p.ref_us
            } else {
                1.0
            };
            p.slice_percentiles(LATENCY_SLICES)
                .into_iter()
                .map(move |(a, b)| (a * k, b * k))
        })
        .collect();
    let p50: Vec<f64> = slices.iter().map(|s| s.0).collect();
    let p99: Vec<f64> = slices.iter().map(|s| s.1).collect();
    let n = from.iter().map(|p| p.samples.len()).sum();
    (median(&p50), median(&p99), n)
}

/// The metrics of a finished workload: end-to-end from an untraced run,
/// per-layer from a traced one.
fn measured(
    plan: &Plan,
    ex: Executed,
    registry: Option<Arc<Registry>>,
    recover_s: f64,
) -> Measured {
    let Some(registry) = registry else {
        let closed: Vec<&Phase> = ex.untraced.iter().filter(|p| !p.open_loop).collect();
        let windows: Vec<(f64, f64)> = closed
            .iter()
            .flat_map(|p| {
                let k = p.ref_us / REF_NOMINAL_US;
                p.part_rates(RATE_PARTS)
                    .into_iter()
                    .map(move |(n, rows)| (n * k, rows * k))
            })
            .collect();
        let raw_rates: Vec<f64> = closed
            .iter()
            .flat_map(|p| p.part_rates(RATE_PARTS))
            .map(|r| r.0)
            .collect();
        let capacity: Vec<f64> = windows.iter().map(|w| w.0).collect();
        let rows: Vec<f64> = windows.iter().map(|w| w.1).collect();
        let (p50, p99, samples) = latency(&ex.untraced, true);
        let raw = latency(&ex.untraced, false);
        let metrics = vec![
            metric(
                "setup_s",
                median(&ex.setups.iter().map(|t| t.1).collect::<Vec<_>>()),
                "s",
            ),
            metric("commit_p50_ms", finite(p50), "ms"),
            metric("capacity_commits_per_s", median(&capacity), "1/s"),
            metric("rows_per_s", median(&rows), "1/s"),
            metric("recover_s", recover_s, "s"),
        ];
        let late: Vec<f64> = ex.untraced.iter().flat_map(|p| p.late_ms.clone()).collect();
        let slices: Vec<String> = latency_phases(&ex.untraced)
            .iter()
            .flat_map(|p| p.slice_percentiles(LATENCY_SLICES))
            .map(|(p50, p99)| format!("{p50:.2}/{p99:.2}"))
            .collect();
        let text = format!(
            "measured (unscaled): set-up {:.4} s, commit p50 {:.4} ms, capacity {:.4}/s\ncommit_p99_ms {:.4} (ungated)\n{samples} latency samples; slice p50/p99 ms: {}\n{} rate stretches; harness late p99 {:.3} ms; peak RSS {:.1} MiB\n",
            median(&ex.setups.iter().map(|t| t.0).collect::<Vec<_>>()),
            finite(raw.0),
            median(&raw_rates),
            finite(p99),
            slices.join(" "),
            windows.len(),
            quantile(&late, 0.99),
            env::peak_rss_mb()
        );
        return (metrics, text);
    };
    let phases: Vec<&Phase> = ex.traced.iter().chain(&ex.traced_warm).collect();
    let counts = Counts {
        keys_used: ex.traced_keys as f64,
        committed: phases.iter().map(|p| p.committed()).sum::<u64>() as f64,
        rows_committed: phases.iter().map(|p| p.rows_committed()).sum::<u64>() as f64,
        receivers: match plan.shape {
            Shape::Ward => 1.0,
            Shape::Wide => world::WIDE_RECEIVERS as f64,
        },
        wire_bytes: ex.traced_wire_bytes as f64,
    };
    let replay = ex
        .replay
        .expect("a traced run replays its last traced round");
    let (mut metrics, text) = layers::per_layer(&registry.snapshot(), &counts, &replay);
    metrics.push(metric("node.peak_rss_mb", env::peak_rss_mb(), "MiB"));
    metrics.push(metric(
        "node.commit_p99_ms",
        finite(latency(&ex.untraced, true).1),
        "ms",
    ));
    let late: Vec<f64> = ex.traced.iter().flat_map(|p| p.late_ms.clone()).collect();
    metrics.push(metric(
        "bench.generator_late_p99_ms",
        quantile(&late, 0.99),
        "ms",
    ));
    metrics.push(metric(
        "bench.trace_overhead_ratio",
        latency(&ex.traced, true).0 / latency(&ex.untraced, true).0,
        "ratio",
    ));
    (metrics, text)
}

pub fn run(workload: &str, cfg: &RunCfg) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.tmp).map_err(|e| format!("scratch dir: {e}"))?;
    let mut checks = Checks::default();
    let mut tally = Tally::default();
    let result = match workload {
        "ward" => ward(cfg, &mut checks, &mut tally),
        "wide-fanout" => wide(cfg, &mut checks, &mut tally),
        "durable-recover" => durable(cfg, &mut checks, &mut tally),
        other => Err(format!("unknown workload `{other}`")),
    };
    let _ = std::fs::remove_dir_all(&cfg.tmp);
    let (metrics, text) = result?;
    checks.check(
        "every ticket resolved",
        tally.failures.iter().all(|f| !f.contains("unresolved")),
    );
    Ok(Outcome {
        checks,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        metrics,
        text,
    })
}

type Measured = (Vec<Metric>, String);

/// `ward`: two rounds of an open loop at a pinned rate give the commit
/// latencies, two rounds of a 32-session closed loop give capacity.
/// The key budget must stay within 2048 keys per peer: set-up time
/// grows with it in powers of two.
fn ward(cfg: &RunCfg, checks: &mut Checks, tally: &mut Tally) -> Result<Measured, String> {
    let n_open = (WARD_OPEN_RATE * WARD_OPEN_SHARE * cfg.seconds / 2.0).round() as usize;
    let n_closed = (WARD_CLOSED_PER_S * cfg.seconds / 2.0).round() as usize;
    let open_keys = key_capacity(WARM_JOBS + n_open, WARM_JOBS + n_open);
    let closed_keys = key_capacity(
        WARM_JOBS + n_closed,
        WARM_JOBS + n_closed / WARD_MIN_PER_WAVE,
    );
    let plan = Plan {
        shape: Shape::Ward,
        durable: false,
        // Open loops first and last, so each kind of phase spans the
        // run; in a traced run rounds 1 and 3 carry the recorder.
        rounds: vec![
            (Load::Open(WARD_OPEN_RATE), WARM_JOBS, n_open),
            (Load::Closed(WARD_SESSIONS), WARM_JOBS, n_closed),
            (Load::Closed(WARD_SESSIONS), WARM_JOBS, n_closed),
            (Load::Open(WARD_OPEN_RATE), WARM_JOBS, n_open),
        ],
        warm_sessions: 8,
        keys_cap: open_keys.max(closed_keys),
    };
    let total = 2 * (2 * WARM_JOBS + n_open + n_closed);
    let mut jobs = world::ward_jobs(&cfg.seed, total + PROBE_JOBS);
    let probe = jobs.split_off(total);
    let mut recoveries = probe_store(cfg, Shape::Ward, probe, 8, checks, tally)?;
    let budget = PROBE_RECOVER_SHARE * cfg.seconds;
    let (ex, registry) = execute(cfg, &plan, jobs, &mut recoveries, budget, checks, tally)?;
    let (recover_s, line) = recoveries.summary();
    let (metrics, mut text) = measured(&plan, ex, registry, recover_s);
    text.push_str(&line);
    Ok((metrics, text))
}

/// `wide-fanout`: three rounds of 4 closed-loop sessions submitting
/// 16-row edits to a wide, sharded share with 4 receivers.
fn wide(cfg: &RunCfg, checks: &mut Checks, tally: &mut Tally) -> Result<Measured, String> {
    let per_round = (WIDE_PER_S * cfg.seconds / 3.0).round() as usize;
    let warm = WIDE_SESSIONS;
    let plan = Plan {
        shape: Shape::Wide,
        durable: false,
        rounds: vec![(Load::Closed(WIDE_SESSIONS), warm, per_round); 3],
        warm_sessions: WIDE_SESSIONS,
        keys_cap: key_capacity(warm + per_round, warm + per_round),
    };
    let total = 3 * (warm + per_round);
    let mut jobs = world::wide_jobs(&cfg.seed, total + PROBE_JOBS / 4);
    let probe = jobs.split_off(total);
    let mut recoveries = probe_store(cfg, Shape::Wide, probe, WIDE_SESSIONS, checks, tally)?;
    let budget = PROBE_RECOVER_SHARE * cfg.seconds;
    let (ex, registry) = execute(cfg, &plan, jobs, &mut recoveries, budget, checks, tally)?;
    let (recover_s, line) = recoveries.summary();
    let (metrics, mut text) = measured(&plan, ex, registry, recover_s);
    text.push_str(&line);
    Ok((metrics, text))
}

/// `durable-recover`: the `ward` share on durable stores (sync at every
/// wave flush, a snapshot every `SNAPSHOT_EVERY` flushes), three rounds
/// committing a fixed number of submissions in an 8-session closed
/// loop; after each round the stores so far are recovered cold in turn.
fn durable(cfg: &RunCfg, checks: &mut Checks, tally: &mut Tally) -> Result<Measured, String> {
    let per_round = (DURABLE_PER_S * cfg.seconds / 3.0).round() as usize;
    let plan = Plan {
        shape: Shape::Ward,
        durable: true,
        rounds: vec![(Load::Closed(DURABLE_SESSIONS), 0, per_round); 3],
        warm_sessions: DURABLE_SESSIONS,
        keys_cap: key_capacity(per_round, per_round),
    };
    let jobs = world::ward_jobs(&cfg.seed, 3 * per_round);
    let mut recoveries = Recoveries {
        shape: Shape::Ward,
        keys_cap: plan.keys_cap,
        stores: Vec::new(),
        times: Vec::new(),
    };
    let budget = DURABLE_RECOVER_SHARE * cfg.seconds;
    let (ex, registry) = execute(cfg, &plan, jobs, &mut recoveries, budget, checks, tally)?;
    let (recover_s, line) = recoveries.summary();
    let (metrics, mut text) = measured(&plan, ex, registry, recover_s);
    text.push_str(&format!(
        "{per_round} committed submissions per store; snapshot every {} wave flushes, sync at every flush\n",
        world::SNAPSHOT_EVERY
    ));
    text.push_str(&line);
    Ok((metrics, text))
}
