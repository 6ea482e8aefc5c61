//! `kb-durable`: closed-loop durable commits with replica reads.
//!
//! A durable primary (group commit on, default flush interval and
//! snapshot cadence) and one `--replicate-from` replica. The writer keeps
//! a window of commits in flight on one connection, each to a different
//! KB and guarded by `if_seq` from that KB's previous ack; the reader
//! GETs the most recently acked KB at the replica with
//! `X-Arbitrex-Min-Seq` set to that ack, retrying `412` as `Retry-After`
//! says. Set-up restarts the primary over a state directory seeded
//! earlier, so recovery is part of the timed set-up.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use arbitrex_core::FaultPlan;
use arbitrex_logic::{parse, Sig};
use arbitrex_server::json::{self, Json};
use arbitrex_server::kb::{DurabilityOptions, KbStore};
use arbitrex_server::recovery::RecoverMode;
use arbitrex_server::wal::{Wal, WalRecord};
use arbitrex_server::{ServerConfig, ServiceState};

use crate::client::{self, request_bytes, Conn, Node};
use crate::gen::{self, Rng};
use crate::stats::{self, median, ratio};
use crate::trace::Tracer;
use crate::{Ctx, RunResult};

const KBS: usize = 64;
/// Commits made while seeding the state directory the primary recovers.
const SEED_COMMITS: usize = 600;
/// Commits the writer keeps in flight (each to a different KB): enough
/// that the primary's workers always have one queued, so the figures
/// follow the commit path's cost rather than how fast an idle machine
/// wakes a thread.
pub const WINDOW: usize = 32;
/// The reader's gap between reads and the shortest gap between a `412`
/// and its retry. A reader that never pauses would take half the machine
/// from the writer, in a share that changes from run to run.
pub const READ_PACING: Duration = Duration::from_millis(1);
const VARS: &[&str] = &["A", "B", "C", "D", "E", "F"];
const TRACE_SAMPLE: usize = 400;

fn kb_name(k: usize) -> String {
    format!("kb{k:02}")
}

/// One commit: `put` a fresh theory or `arbitrate` new information in.
#[derive(Clone)]
struct Op {
    kb: usize,
    action: &'static str,
    formula: String,
}

impl Op {
    fn body(&self, if_seq: Option<u64>) -> String {
        match if_seq {
            Some(seq) => format!(
                "{{\"action\": \"{}\", \"formula\": \"{}\", \"if_seq\": {seq}}}",
                self.action, self.formula
            ),
            None => format!(
                "{{\"action\": \"{}\", \"formula\": \"{}\"}}",
                self.action, self.formula
            ),
        }
    }

    fn wire(&self, if_seq: Option<u64>) -> Vec<u8> {
        request_bytes(
            "POST",
            &format!("/v1/kb/{}", kb_name(self.kb)),
            Some(&self.body(if_seq)),
            &[],
        )
    }
}

fn random_formula(rng: &mut Rng) -> String {
    let names: Vec<String> = VARS.iter().map(|v| v.to_string()).collect();
    let lits = 2 + rng.below(2);
    gen::render(&gen::dnf(rng, VARS.len(), 2, lits), &names)
}

/// The latest durable ack, published by the writer for the reader.
#[derive(Clone, Copy)]
struct Ack {
    rseq: u64,
    at: Instant,
    kb: usize,
    seq: u64,
}

/// The writer's view of every KB plus the acked history the final check
/// replays.
struct Writer {
    rng: Rng,
    seq: Vec<u64>,
    in_flight: Vec<bool>,
    /// Every acked op, in ack order.
    acked: Vec<Op>,
    /// (ack time, latency ms) of every window write.
    latencies_ms: Vec<(Instant, f64)>,
    /// (client latency µs, op) of window writes, for the traced replay.
    window_ops: Vec<(f64, Op)>,
    failures: u64,
    attempted: u64,
    first_error: Option<String>,
}

impl Writer {
    fn new(seed: u64) -> Writer {
        Writer {
            rng: Rng::new(seed).fork(7),
            seq: vec![0; KBS],
            in_flight: vec![false; KBS],
            acked: Vec::new(),
            latencies_ms: Vec::new(),
            window_ops: Vec::new(),
            failures: 0,
            attempted: 0,
            first_error: None,
        }
    }

    fn next_op(&mut self) -> Op {
        let free: Vec<usize> = (0..KBS).filter(|&k| !self.in_flight[k]).collect();
        let kb = free[self.rng.below(free.len())];
        let action = if self.seq[kb] == 0 || self.rng.below(5) == 0 {
            "put"
        } else {
            "arbitrate"
        };
        Op {
            kb,
            action,
            formula: random_formula(&mut self.rng),
        }
    }

    /// Closed loop until `deadline` (or `max_ops` acks): keep `WINDOW`
    /// commits in flight, each guarded by its KB's last acked seq.
    fn drive(
        &mut self,
        addr: &str,
        deadline: Instant,
        max_ops: usize,
        record: bool,
        publish: Option<&Mutex<Option<Ack>>>,
    ) -> Result<(), String> {
        let mut conn = Conn::connect(addr).map_err(|e| format!("writer connect: {e}"))?;
        let mut pending: std::collections::VecDeque<(Op, Instant)> = Default::default();
        let mut issued = 0usize;
        loop {
            while pending.len() < WINDOW && Instant::now() < deadline && issued < max_ops {
                let op = self.next_op();
                let guard = (self.seq[op.kb] > 0).then_some(self.seq[op.kb]);
                conn.send(&op.wire(guard))
                    .map_err(|e| format!("writer send: {e}"))?;
                self.in_flight[op.kb] = true;
                pending.push_back((op, Instant::now()));
                issued += 1;
            }
            let Some((op, sent)) = pending.pop_front() else {
                break;
            };
            let resp = conn.recv().map_err(|e| format!("writer recv: {e}"))?;
            let now = Instant::now();
            self.in_flight[op.kb] = false;
            if record {
                self.attempted += 1;
            }
            let doc = resp.json().unwrap_or(Json::Null);
            let seq = doc.get("seq").and_then(Json::as_u64);
            let committed =
                op.action == "put" || doc.get("committed").and_then(Json::as_bool) == Some(true);
            match (resp.status, seq, committed) {
                (200, Some(seq), true) if seq == self.seq[op.kb] + 1 => {
                    self.seq[op.kb] = seq;
                    let rseq = resp
                        .header("x-arbitrex-seq")
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(0);
                    if let Some(p) = publish {
                        *p.lock().expect("the reader never panics holding the ack") = Some(Ack {
                            rseq,
                            at: now,
                            kb: op.kb,
                            seq,
                        });
                    }
                    if record {
                        let ms = now.duration_since(sent).as_secs_f64() * 1e3;
                        self.latencies_ms.push((now, ms));
                        self.window_ops.push((ms * 1e3, op.clone()));
                    }
                    self.acked.push(op);
                }
                _ => {
                    self.failures += 1;
                    if self.first_error.is_none() {
                        self.first_error = Some(format!(
                            "write {} to {} (if_seq {}) answered {}: {}",
                            op.action,
                            kb_name(op.kb),
                            self.seq[op.kb],
                            resp.status,
                            resp.text()
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[derive(Default)]
struct Reader {
    /// (answer time, latency ms including 412 retries) of every read.
    latencies_ms: Vec<(Instant, f64)>,
    lags_ms: Vec<f64>,
    retries: u64,
    ok: u64,
    failures: u64,
    first_error: Option<String>,
}

/// GET the latest acked KB at the replica with its read-your-writes
/// watermark until `done` is set.
fn read_loop(addr: &str, latest: &Mutex<Option<Ack>>, done: &AtomicBool) -> Result<Reader, String> {
    let mut r = Reader::default();
    let mut conn = Conn::connect(addr).map_err(|e| format!("reader connect: {e}"))?;
    let mut last_lag_rseq = 0;
    while !done.load(Ordering::Relaxed) {
        let Some(ack) = *latest
            .lock()
            .expect("the writer never panics holding the ack")
        else {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        let path = format!("/v1/kb/{}", kb_name(ack.kb));
        let min_seq = ack.rseq.to_string();
        let wire = request_bytes("GET", &path, None, &[("X-Arbitrex-Min-Seq", &min_seq)]);
        let start = Instant::now();
        let resp = loop {
            conn.send(&wire).map_err(|e| format!("reader send: {e}"))?;
            let resp = conn.recv().map_err(|e| format!("reader recv: {e}"))?;
            if resp.status != 412 {
                break resp;
            }
            r.retries += 1;
            // Honour `Retry-After`, but pace retries at least
            // `READ_PACING` apart so a `0` does not become a busy loop.
            let wait: u64 = resp
                .header("retry-after")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            std::thread::sleep(Duration::from_secs(wait).max(READ_PACING));
        };
        let now = Instant::now();
        let seq = resp
            .json()
            .ok()
            .and_then(|d| d.get("seq").and_then(Json::as_u64));
        if resp.status == 200 && seq.is_some_and(|s| s >= ack.seq) {
            r.ok += 1;
            r.latencies_ms
                .push((now, now.duration_since(start).as_secs_f64() * 1e3));
            if ack.rseq > last_lag_rseq {
                last_lag_rseq = ack.rseq;
                r.lags_ms
                    .push(now.duration_since(ack.at).as_secs_f64() * 1e3);
            }
        } else {
            r.failures += 1;
            if r.first_error.is_none() {
                r.first_error = Some(format!(
                    "replica read of {} (min seq {}, acked seq {}) answered {}: {}",
                    kb_name(ack.kb),
                    ack.rseq,
                    ack.seq,
                    resp.status,
                    resp.text()
                ));
            }
        }
        std::thread::sleep(READ_PACING);
    }
    Ok(r)
}

fn primary_args(dir: &Path) -> Vec<String> {
    let mut args: Vec<String> = [
        "--addr",
        "127.0.0.1:0",
        "--threads",
        crate::SERVER_THREADS,
        "--group-commit",
        "on",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    args.push("--state-dir".to_string());
    args.push(dir.display().to_string());
    args
}

fn replica_args(dir: &Path, primary: &str) -> Vec<String> {
    let mut args = primary_args(dir);
    args.push("--replicate-from".to_string());
    args.push(primary.to_string());
    args
}

fn status(addr: &str) -> Result<Json, String> {
    client::call(addr, "GET", "/v1/replication/status", None)
        .map_err(|e| format!("status at {addr}: {e}"))?
        .json()
}

/// Wait until the replica has applied everything the primary logged.
fn await_catch_up(primary: &str, replica: &str, limit: Duration) -> Result<(), String> {
    let head = status(primary)?
        .get("head")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let start = Instant::now();
    loop {
        let visible = status(replica)
            .ok()
            .and_then(|s| s.get("visible").and_then(Json::as_u64))
            .unwrap_or(0);
        if visible >= head {
            return Ok(());
        }
        if start.elapsed() > limit {
            return Err(format!("replica stuck at {visible} of primary head {head}"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Replay every acked op in-process and return `(name, seq, hash)` per KB,
/// rendered as `/v1/kbs` renders them. KBs are independent, so the two
/// halves of them replay on two threads, each on its own service.
fn replay_digest(acked: &[Op]) -> Result<Vec<(String, u64, String)>, String> {
    let replay = |half: usize| -> Result<Vec<(String, u64, String)>, String> {
        let state = ServiceState::new(ServerConfig::default()).map_err(|e| e.to_string())?;
        for op in acked.iter().filter(|op| op.kb % 2 == half) {
            let mut t = Tracer::new();
            let resp = crate::trace_http(&mut t, 0, &state, &op.wire(None))?;
            if resp.status != 200 {
                return Err(format!(
                    "in-process replay of {} answered {}",
                    kb_name(op.kb),
                    resp.status
                ));
            }
        }
        Ok(state
            .kbs
            .digest()
            .into_iter()
            .map(|(name, seq, hash)| (name, seq, format!("{hash:016x}")))
            .collect())
    };
    let (odd, even) = std::thread::scope(|s| {
        let odd = s.spawn(|| replay(1));
        let even = replay(0);
        (odd.join().expect("replay thread"), even)
    });
    let mut all = even?;
    all.extend(odd?);
    all.sort();
    Ok(all)
}

fn listed(addr: &str) -> Result<Vec<(String, u64, String)>, String> {
    let doc = client::call(addr, "GET", "/v1/kbs", None)
        .map_err(|e| e.to_string())?
        .json()?;
    let kbs = doc
        .get("kbs")
        .and_then(Json::as_array)
        .ok_or("no kbs listing")?;
    Ok(kbs
        .iter()
        .map(|k| {
            (
                k.get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                k.get("seq").and_then(Json::as_u64).unwrap_or(0),
                k.get("hash")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect())
}

const PRIMARY_COUNTERS: &[&str] = &[
    "telemetry.group_commit.commits",
    "telemetry.group_commit.fsyncs",
    "telemetry.wal.bytes_appended",
    "telemetry.wal.records_appended",
    "telemetry.wal.snapshots_written",
    "telemetry.replication.frames_shipped",
    "telemetry.replication.batches_served",
    "telemetry.cache.cache_hits",
    "telemetry.cache.cache_misses",
    "telemetry.server.requests",
    "telemetry.event_loop.pipelined_requests",
    "telemetry.server.rejected",
];

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    let mut writer = Writer::new(ctx.seed);

    // Seed a state directory: every KB created, then a history of
    // commits, then the primary is killed without a clean shutdown.
    let seeded = ctx.scratch.join("seeded");
    {
        let node = Node::start(&ctx.arbx, &primary_args(&seeded))?;
        writer.drive(
            &node.addr,
            Instant::now() + Duration::from_secs(60),
            KBS,
            false,
            None,
        )?;
        writer.drive(
            &node.addr,
            Instant::now() + Duration::from_secs(60),
            SEED_COMMITS,
            false,
            None,
        )?;
    }
    if writer.failures > 0 {
        return Err(format!(
            "seeding failed: {}",
            writer.first_error.clone().unwrap_or_default()
        ));
    }
    let seeded_ops = writer.acked.len();

    let primary_dir = ctx.scratch.join("primary");
    let replica_dir = ctx.scratch.join("replica");
    let mut recovery_ms = Vec::new();
    let mut recovery_records = 0;
    let prepare = || {
        copy_dir(&seeded, &primary_dir)?;
        let _ = std::fs::remove_dir_all(&replica_dir);
        Ok(())
    };
    let (primary, replica) = crate::timed_setups(&mut out, prepare, || {
        let primary = Node::start(&ctx.arbx, &primary_args(&primary_dir))?;
        recovery_ms.push(primary.startup.as_secs_f64() * 1e3);
        recovery_records = primary.banner_field("wal-records").unwrap_or(0);
        let replica = Node::start(&ctx.arbx, &replica_args(&replica_dir, &primary.addr))?;
        await_catch_up(&primary.addr, &replica.addr, Duration::from_secs(30))?;
        Ok((primary, replica))
    })?;
    out.note(format!(
        "kb-durable: primary `arbx serve {}` (group commit on, default --flush-interval-us 0 and --snapshot-every 256) + replica `--replicate-from`; nproc {}; {KBS} KBs, {seeded_ops} seeded commits, write window {WINDOW}",
        primary_args(Path::new("<dir>")).join(" "),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0),
    ));

    let before = vec![client::metrics(&primary.addr)?];
    let latest: Mutex<Option<Ack>> = Mutex::new(None);
    let done = AtomicBool::new(false);
    // The writer keeps `WINDOW` commits in flight; the reader runs beside it.
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(ctx.seconds);
    let (write_result, reader) = std::thread::scope(|s| {
        let reader = s.spawn(|| read_loop(&replica.addr, &latest, &done));
        let w = writer.drive(&primary.addr, until, usize::MAX, true, Some(&latest));
        done.store(true, Ordering::Relaxed);
        (w, reader.join().expect("reader thread"))
    });
    write_result?;
    let reader = reader?;
    let after = vec![client::metrics(&primary.addr)?];
    let (rss_p, rss_r) = (primary.peak_rss_mb(), replica.peak_rss_mb());
    out.set("peak_rss_mb", rss_p + rss_r);
    out.note(format!(
        "peak RSS: primary {rss_p:.1} MiB, replica {rss_r:.1} MiB"
    ));

    // Final check: both nodes must list exactly the in-process replay.
    await_catch_up(&primary.addr, &replica.addr, Duration::from_secs(30))?;
    let want = replay_digest(&writer.acked)?;
    let mut mismatched = 0u64;
    for (who, addr) in [("primary", &primary.addr), ("replica", &replica.addr)] {
        let got = listed(addr)?;
        if got != want {
            let bad = want.iter().filter(|w| !got.contains(w)).count().max(1);
            mismatched += bad as u64;
            out.note(format!(
                "{who} /v1/kbs differs from the in-process replay on {bad} KBs"
            ));
        }
    }
    drop(primary);
    drop(replica);

    // Better quartiles over slices of the window (see `stats::Sliced`).
    let slice = ctx.seconds / 40.0;
    let writes = stats::sliced(&writer.latencies_ms, start, ctx.seconds, slice);
    let reads = stats::sliced(&reader.latencies_ms, start, ctx.seconds, slice);
    let (goodput, w50, w99, r50, r99) = (writes.rate, writes.p50, writes.p99, reads.p50, reads.p99);
    out.note(writes.line("write"));
    out.note(reads.line("read"));
    out.set("goodput_ops_s", goodput);
    out.set("p50_ms", w50);
    out.set("client.p99_ms", w99);
    out.attempted = writer.attempted + reader.ok + reader.failures;
    out.failed = writer.failures + reader.failures + mismatched;
    for e in [&writer.first_error, &reader.first_error]
        .into_iter()
        .flatten()
    {
        out.note(e.clone());
    }
    out.note(format!(
        "better quartile over {} slices: goodput_ops_s {goodput:.1} durable commits/s, write_p50_ms {w50:.4} ms, write_p99_ms {w99:.4} ms ({} durable acks in all); read_p50_ms {r50:.4} ms, read_p99_ms {r99:.4} ms, {:.1} replica reads/s ({} replica reads, {} 412 retries); fail_frac {:.6}",
        writes.slices,
        writer.latencies_ms.len(),
        reads.rate,
        reader.ok,
        reader.retries,
        ratio(out.failed as f64, out.attempted as f64)
    ));

    if ctx.trace {
        let d = |p: &str| client::delta(&before, &after, p);
        out.set("kb.write_p50_ms", w50);
        out.set("kb.write_p99_ms", w99);
        out.set("replication.read_p50_ms", r50);
        out.set("replication.read_p99_ms", r99);
        out.set("replication.visible_lag_ms", median(&reader.lags_ms));
        out.set("replication.read_retries", reader.retries as f64);
        out.set(
            "replication.frames_per_batch",
            ratio(d(PRIMARY_COUNTERS[5]), d(PRIMARY_COUNTERS[6])),
        );
        out.set(
            "kb.commits_per_fsync",
            ratio(d(PRIMARY_COUNTERS[0]), d(PRIMARY_COUNTERS[1])),
        );
        out.set(
            "wal.bytes_per_commit",
            ratio(d(PRIMARY_COUNTERS[2]), d(PRIMARY_COUNTERS[3])),
        );
        out.set("wal.snapshots", d(PRIMARY_COUNTERS[4]));
        out.set(
            "cache.hit_ratio",
            ratio(
                d(PRIMARY_COUNTERS[7]),
                d(PRIMARY_COUNTERS[7]) + d(PRIMARY_COUNTERS[8]),
            ),
        );
        out.set(
            "server.pipelined_share",
            ratio(d(PRIMARY_COUNTERS[10]), d(PRIMARY_COUNTERS[9])),
        );
        out.set("server.rejected", d(PRIMARY_COUNTERS[11]));
        out.set("recovery.replay_ms", median(&recovery_ms));
        out.set("recovery.records", recovery_records as f64);
        trace_layers(
            ctx,
            &mut out,
            &writer.acked[..seeded_ops],
            &writer.window_ops,
        )?;
    }
    Ok(out)
}

/// In-process timings: the write path on a durable scratch service, and
/// the store and WAL calls beneath it.
fn trace_layers(
    ctx: &Ctx,
    out: &mut RunResult,
    seed_ops: &[Op],
    window: &[(f64, Op)],
) -> Result<(), String> {
    // Each fresh service gets its own durable state directory, seeded
    // with the same history.
    let made = std::cell::Cell::new(0);
    let fresh = || -> Result<ServiceState, String> {
        made.set(made.get() + 1);
        let state = ServiceState::new(ServerConfig {
            threads: 2,
            state_dir: Some(ctx.scratch.join(format!("traced-{}", made.get()))),
            ..ServerConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let mut scratch = Tracer::new();
        for op in seed_ops {
            crate::trace_http(&mut scratch, 0, &state, &op.wire(None))?;
        }
        Ok(state)
    };
    let state = fresh()?;
    let mut tracer = Tracer::new();
    let mut client_us = HashMap::new();
    let step = (window.len() / TRACE_SAMPLE).max(1);
    let mut sample = Vec::new();
    for (id, (us, op)) in window.iter().enumerate().step_by(step) {
        let id = id as u64;
        client_us.insert(id, *us);
        sample.push(op.wire(None));
        crate::trace_http(&mut tracer, id, &state, &op.wire(None))?;
        let body = op.body(None);
        let parent = Some("routes.dispatch");
        tracer
            .time(id, "json.parse", parent, || json::parse(&body))
            .map_err(|e| e.to_string())?;
        let mut sig = Sig::new();
        tracer
            .time(id, "logic.parse", parent, || parse(&mut sig, &op.formula))
            .map_err(|e| e.to_string())?;
    }
    crate::http_layer_metrics(out, &tracer, &client_us);
    out.set("json.parse_us", median(&tracer.durations_us("json.parse")));
    out.set(
        "logic.parse_us",
        median(&tracer.durations_us("logic.parse")),
    );
    tracer
        .write_jsonl(&ctx.scratch.join("spans.jsonl"))
        .map_err(|e| e.to_string())?;
    drop(state);
    crate::tracing_overhead_us(out, fresh, &sample)?;

    // KbStore::put, durable (group commit) against in-memory: the gap is
    // the wait for the shared flush.
    let store_dir = ctx.scratch.join("store");
    let (durable, _) = KbStore::open_durable(DurabilityOptions {
        dir: store_dir,
        snapshot_every: 256,
        recover: RecoverMode::Strict,
        fault: None::<FaultPlan>,
        group_commit: true,
        flush_interval: Duration::ZERO,
        initial_epoch: None,
        replica: false,
    })
    .map_err(|e| e.to_string())?;
    let memory = KbStore::new();
    let mut rng = Rng::new(ctx.seed).fork(11);
    let mut put_us = |store: &KbStore| -> Result<Vec<f64>, String> {
        let mut v = Vec::new();
        for i in 0..300 {
            let mut sig = Sig::new();
            let f = parse(&mut sig, &random_formula(&mut rng)).map_err(|e| e.to_string())?;
            let t = Instant::now();
            store
                .put(&kb_name(i % KBS), sig, f, None)
                .map_err(|e| format!("{e:?}"))?;
            v.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok(v)
    };
    let durable_us = median(&put_us(&durable)?);
    let memory_us = median(&put_us(&memory)?);
    out.set("kb.commit_us", durable_us);
    out.set("kb.flush_wait_us", durable_us - memory_us);
    drop(durable);

    // Wal::sync after one appended record.
    let wal_path: PathBuf = ctx.scratch.join("probe.wal");
    let mut wal =
        Wal::open(&wal_path, arbitrex_core::Budget::unlimited()).map_err(|e| e.to_string())?;
    let mut fsync_us = Vec::new();
    for i in 0..200u64 {
        let rec = WalRecord::Delete {
            name: format!("probe{i}"),
        };
        wal.append_unsynced(1, i + 1, &rec)
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        wal.sync().map_err(|e| e.to_string())?;
        fsync_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let _ = std::fs::remove_file(&wal_path);
    out.set("wal.fsync_us", median(&fsync_us));
    Ok(())
}
