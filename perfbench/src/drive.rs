//! Load generators against the gateway: an open loop (submissions due
//! on a fixed schedule, each timed from when it was due) and a closed
//! loop (a fixed number of sessions, each sending its next submission
//! when the previous one resolved).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use medledger_node::{Deployment, GatewayClient, SubmitReply};

use crate::stats::quantile;
use crate::world::Job;

/// What one submission came to.
#[derive(Debug)]
pub struct Sample {
    /// The job's index in the phase (its order of sending).
    pub seq: usize,
    /// Due (open loop) or sent (closed loop) to outcome received, in
    /// ms; `None` when the submission failed.
    pub latency_ms: Option<f64>,
    pub rows: u64,
    /// When the outcome arrived.
    pub done: Instant,
}

/// The outcome of one load phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    /// Failure reasons and their counts (sheds, typed rejections, wire
    /// errors, unresolved tickets).
    pub failures: BTreeMap<String, u64>,
    /// How late the harness sent each submission, in ms: behind its due
    /// time (open loop), or after the session's previous outcome arrived
    /// (closed loop).
    pub late_ms: Vec<f64>,
    /// When the first submission was sent.
    pub start: Option<Instant>,
    /// Whether the phase was an open loop.
    pub open_loop: bool,
    /// Median reference compression time (µs) while the phase ran.
    pub ref_us: f64,
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64 + self.failures_unsampled()
    }

    fn failures_unsampled(&self) -> u64 {
        self.failures.get(UNRESOLVED).copied().unwrap_or(0)
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    pub fn committed(&self) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.latency_ms.is_some())
            .count() as u64
    }

    pub fn rows_committed(&self) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.latency_ms.is_some())
            .map(|s| s.rows)
            .sum()
    }

    /// The 50th and 99th latency percentiles of each of `slices`
    /// consecutive runs of submissions, failures counting as infinite.
    pub fn slice_percentiles(&self, slices: usize) -> Vec<(f64, f64)> {
        let mut by_seq: Vec<(usize, f64)> = self
            .samples
            .iter()
            .map(|s| (s.seq, s.latency_ms.unwrap_or(f64::INFINITY)))
            .collect();
        by_seq.sort_by_key(|s| s.0);
        let mut lat: Vec<f64> = by_seq.into_iter().map(|s| s.1).collect();
        lat.extend((0..self.failures_unsampled()).map(|_| f64::INFINITY));
        let per = lat.len() / slices.max(1);
        if per == 0 {
            return Vec::new();
        }
        lat.chunks_exact(per)
            .map(|c| (quantile(c, 0.5), quantile(c, 0.99)))
            .collect()
    }

    /// Commits and rows committed per second over `parts` consecutive
    /// stretches of the phase, each holding an equal share of its
    /// commits (the first stretch starts at the first submission).
    pub fn part_rates(&self, parts: usize) -> Vec<(f64, f64)> {
        let Some(start) = self.start else {
            return Vec::new();
        };
        let mut done: Vec<(Instant, u64)> = self
            .samples
            .iter()
            .filter(|s| s.latency_ms.is_some())
            .map(|s| (s.done, s.rows))
            .collect();
        done.sort_by_key(|d| d.0);
        let per_part = done.len() / parts.max(1);
        if per_part == 0 {
            return Vec::new();
        }
        let mut from = start;
        done.chunks_exact(per_part)
            .map(|part| {
                let to = part[part.len() - 1].0;
                let secs = (to - from).as_secs_f64().max(1e-9);
                from = to;
                let rows: u64 = part.iter().map(|d| d.1).sum();
                (part.len() as f64 / secs, rows as f64 / secs)
            })
            .collect()
    }

    fn fail(&mut self, reason: String) {
        *self.failures.entry(reason).or_insert(0) += 1;
    }
}

/// Sessions an open loop opens up front; more only when all are busy.
const OPEN_POOL: usize = 64;

const UNRESOLVED: &str = "unresolved when the run ended";

/// Submits one job on `client` and waits for its outcome.
async fn run_job(client: &mut GatewayClient, job: &Job) -> Result<(), String> {
    match client.submit(job.peer, job.table, job.writes.clone()).await {
        Ok(SubmitReply::Accepted { ticket }) => match client.wait(ticket).await {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(reject)) => Err(format!("rejected: {:?}", reject.kind)),
            Err(e) => Err(format!("wire error: {e}")),
        },
        Ok(SubmitReply::Overloaded { .. }) => Err("overloaded".into()),
        Ok(SubmitReply::Rejected(reject)) => Err(format!("rejected: {:?}", reject.kind)),
        Err(e) => Err(format!("wire error: {e}")),
    }
}

type Shared<T> = Arc<Mutex<T>>;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("a benchmark task panicked while holding a lock")
}

/// Sends every job, one due each `1/rate` seconds, through a pool of
/// gateway sessions that grows only when every session is busy. Each
/// submission is timed from when it was due; submissions still
/// unresolved `drain` after the last one was due count as failed.
pub fn open_loop(dep: &Deployment, jobs: &Arc<Vec<Job>>, rate: f64, drain: Duration) -> Phase {
    let pool: Shared<Vec<GatewayClient>> =
        Arc::new(Mutex::new((0..OPEN_POOL).map(|_| dep.connect()).collect()));
    let phase: Shared<Phase> = Arc::new(Mutex::new(Phase::default()));
    let in_flight = Arc::new(AtomicUsize::new(0));
    let mut late_ms = Vec::new();
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    for idx in 0..jobs.len() {
        let due = start + interval * idx as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        let mut client = lock(&pool).pop().unwrap_or_else(|| dep.connect());
        let (pool, phase, in_flight) = (pool.clone(), phase.clone(), in_flight.clone());
        let jobs = jobs.clone();
        // ordering: a statistic; the phase lock publishes the results.
        in_flight.fetch_add(1, Ordering::Relaxed);
        dep.spawn(async move {
            let result = run_job(&mut client, &jobs[idx]).await;
            let done = Instant::now();
            {
                let mut p = lock(&phase);
                match result {
                    Ok(()) => p.samples.push(Sample {
                        seq: idx,
                        latency_ms: Some((done - due).as_secs_f64() * 1e3),
                        rows: jobs[idx].rows,
                        done,
                    }),
                    Err(reason) => {
                        p.fail(reason);
                        p.samples.push(Sample {
                            seq: idx,
                            latency_ms: None,
                            rows: jobs[idx].rows,
                            done,
                        })
                    }
                }
            }
            lock(&pool).push(client);
            in_flight.fetch_sub(1, Ordering::Relaxed);
        });
    }
    let deadline = Instant::now() + drain;
    while in_flight.load(Ordering::Relaxed) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let unresolved = in_flight.load(Ordering::Relaxed) as u64;
    let mut p = std::mem::take(&mut *lock(&phase));
    if unresolved > 0 {
        p.failures.insert(UNRESOLVED.into(), unresolved);
    }
    p.late_ms = late_ms;
    p.start = Some(start);
    p.open_loop = true;
    p
}

/// Runs `sessions` closed-loop sessions until every job was sent and
/// resolved. The job count fixes the work, so keys, memory and chain
/// length are planned; a faster program finishes it sooner.
pub fn closed_loop(dep: &Deployment, jobs: &Arc<Vec<Job>>, sessions: usize) -> Phase {
    let next = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    let handles: Vec<_> = (0..sessions)
        .map(|_| {
            let mut client = dep.connect();
            let (jobs, next) = (jobs.clone(), next.clone());
            dep.spawn(async move {
                let mut phase = Phase::default();
                let mut last_done: Option<Instant> = None;
                loop {
                    // ordering: the job cursor publishes no data.
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= jobs.len() {
                        break;
                    }
                    let sent = Instant::now();
                    if let Some(done) = last_done {
                        phase.late_ms.push((sent - done).as_secs_f64() * 1e3);
                    }
                    let result = run_job(&mut client, &jobs[idx]).await;
                    let done = Instant::now();
                    let latency_ms = match result {
                        Ok(()) => Some((done - sent).as_secs_f64() * 1e3),
                        Err(reason) => {
                            phase.fail(reason);
                            None
                        }
                    };
                    phase.samples.push(Sample {
                        seq: idx,
                        latency_ms,
                        rows: jobs[idx].rows,
                        done,
                    });
                    last_done = Some(done);
                }
                phase
            })
        })
        .collect();
    let mut all = Phase::default();
    for h in handles {
        let p = dep.block_on(h);
        all.samples.extend(p.samples);
        all.late_ms.extend(p.late_ms);
        for (k, v) in p.failures {
            *all.failures.entry(k).or_insert(0) += v;
        }
    }
    all.start = Some(start);
    all
}
