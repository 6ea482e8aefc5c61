//! `routed`: closed-loop reads through the entry node of a two-node
//! in-memory `--shard-ring`.
//!
//! A preloaded KB set is read, Zipf-skewed, over two connections to one
//! node; the KBs the other node owns (about half) are proxied. This is
//! the only workload on the shard proxy leg; cache, kernel and WAL stay
//! idle. Every body must equal the owner's direct answer.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use arbitrex_server::json::Json;
use arbitrex_server::shard::ShardRing;
use arbitrex_server::{ServerConfig, ServiceState};

use crate::client::{self, request_bytes, Conn, Node};
use crate::gen::{self, Rng, Zipf};
use crate::stats::{self, median, ratio};
use crate::trace::Tracer;
use crate::{Ctx, RunResult};

const KBS: usize = 256;
const TRACE_SAMPLE: usize = 1000;
const PROXY_PROBES: usize = 300;

fn kb_name(k: usize) -> String {
    format!("r{k:03}")
}

fn node_args() -> Vec<String> {
    [
        "--addr",
        "127.0.0.1:0",
        "--threads",
        crate::SERVER_THREADS,
        "--shard-ring",
        "auto",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// The formula KB `k` is preloaded with.
fn formulas(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed).fork(21);
    let names: Vec<String> = ["A", "B", "C", "D", "E", "F"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    (0..KBS)
        .map(|_| {
            let lits = 2 + rng.below(3);
            gen::render(&gen::dnf(&mut rng, names.len(), 3, lits), &names)
        })
        .collect()
}

/// Two ring members, joined, preloaded and read once each.
struct Ring {
    entry: Node,
    other: Node,
    /// Per KB: whether the entry node owns it, and the owner's direct body.
    owned_by_entry: Vec<bool>,
    expected: Vec<Vec<u8>>,
    /// KBs by popularity rank, alternating entry-owned and other-owned,
    /// so the proxied share of traffic does not depend on where the ring
    /// (which hashes the nodes' ephemeral ports) happened to place the
    /// hottest names.
    by_rank: Vec<usize>,
}

fn interleave(owned_by_entry: &[bool]) -> Vec<usize> {
    let (mut local, mut remote): (Vec<usize>, Vec<usize>) =
        (0..owned_by_entry.len()).partition(|&k| owned_by_entry[k]);
    local.reverse();
    remote.reverse();
    let mut out = Vec::with_capacity(owned_by_entry.len());
    while !local.is_empty() || !remote.is_empty() {
        out.extend(remote.pop());
        out.extend(local.pop());
    }
    out
}

fn form_ring(ctx: &Ctx, formulas: &[String]) -> Result<Ring, String> {
    let entry = Node::start(&ctx.arbx, &node_args())?;
    let other = Node::start(&ctx.arbx, &node_args())?;
    let joined = client::call(
        &entry.addr,
        "POST",
        "/v1/cluster/join",
        Some(&format!("{{\"addr\": \"{}\"}}", other.addr)),
    )
    .map_err(|e| e.to_string())?;
    if joined.status != 200 {
        return Err(format!(
            "join answered {}: {}",
            joined.status,
            joined.text()
        ));
    }
    // Both members must route by the two-member ring before preloading.
    let deadline = Instant::now() + Duration::from_secs(10);
    let ring = loop {
        let doc = client::call(&other.addr, "GET", "/v1/cluster/ring", None)
            .map_err(|e| e.to_string())?
            .json()?;
        let members: Vec<String> = doc
            .get("members")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| m.as_str().map(str::to_string))
            .collect();
        if members.len() == 2 {
            let vnodes = doc.get("vnodes").and_then(Json::as_u64).unwrap_or(0);
            let epoch = doc.get("epoch").and_then(Json::as_u64).unwrap_or(0);
            break ShardRing::new(members, vnodes as u32, epoch);
        }
        if Instant::now() > deadline {
            return Err("the second member never adopted the ring".to_string());
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    // The same work whatever ports the ring hashed: each KB is put at its
    // owner (placed in-process by the ring the nodes route by, so no 307
    // is followed), read there directly, and read through both nodes
    // (once locally, once proxied).
    let owned_by_entry: Vec<bool> = (0..KBS)
        .map(|k| ring.owner_of(&kb_name(k)) == Some(entry.addr.as_str()))
        .collect();
    let mut at_entry = Conn::connect(&entry.addr).map_err(|e| e.to_string())?;
    let mut at_other = Conn::connect(&other.addr).map_err(|e| e.to_string())?;
    for (k, f) in formulas.iter().enumerate() {
        let path = format!("/v1/kb/{}", kb_name(k));
        let body = format!("{{\"action\": \"put\", \"formula\": \"{f}\"}}");
        let owner = if owned_by_entry[k] {
            &mut at_entry
        } else {
            &mut at_other
        };
        let resp = owner
            .call("POST", &path, Some(&body), &[])
            .map_err(|e| e.to_string())?;
        if resp.status != 200 {
            return Err(format!(
                "preload of {} at its owner answered {}: {}",
                kb_name(k),
                resp.status,
                resp.text()
            ));
        }
    }
    let mut expected = Vec::with_capacity(KBS);
    for (k, &local) in owned_by_entry.iter().enumerate() {
        let path = format!("/v1/kb/{}", kb_name(k));
        let owner = if local { &mut at_entry } else { &mut at_other };
        let direct = owner
            .call("GET", &path, None, &[])
            .map_err(|e| e.to_string())?;
        for conn in [&mut at_entry, &mut at_other] {
            let routed = conn
                .call("GET", &path, None, &[])
                .map_err(|e| e.to_string())?;
            if direct.status != 200 || routed.status != 200 || routed.body != direct.body {
                return Err(format!(
                    "warm-up read of {} answered {} directly and {} routed, or bodies differ",
                    kb_name(k),
                    direct.status,
                    routed.status
                ));
            }
        }
        expected.push(direct.body);
    }
    Ok(Ring {
        entry,
        other,
        by_rank: interleave(&owned_by_entry),
        owned_by_entry,
        expected,
    })
}

#[derive(Default)]
struct Reads {
    /// (kb, answer time, latency ms) of every correct read.
    ok: Vec<(usize, Instant, f64)>,
    failed: u64,
    first_error: Option<String>,
}

/// One closed-loop reader: GET, check against the owner's body, repeat,
/// until `deadline`.
fn read_loop(addr: &str, ring: &Ring, seed: u64, deadline: Instant) -> Result<Reads, String> {
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let zipf = Zipf::new(KBS, 1.1);
    let mut rng = Rng::new(seed);
    let wires: Vec<Vec<u8>> = (0..KBS)
        .map(|k| request_bytes("GET", &format!("/v1/kb/{}", kb_name(k)), None, &[]))
        .collect();
    let mut r = Reads::default();
    while Instant::now() < deadline {
        let k = ring.by_rank[zipf.sample(&mut rng)];
        let start = Instant::now();
        conn.send(&wires[k]).map_err(|e| e.to_string())?;
        let resp = conn.recv().map_err(|e| e.to_string())?;
        let now = Instant::now();
        let ms = now.duration_since(start).as_secs_f64() * 1e3;
        if resp.status == 200 && resp.body == ring.expected[k] {
            r.ok.push((k, now, ms));
        } else {
            r.failed += 1;
            if r.first_error.is_none() {
                r.first_error = Some(format!(
                    "read of {} answered {} with a body unlike the owner's: {}",
                    kb_name(k),
                    resp.status,
                    resp.text()
                ));
            }
        }
    }
    Ok(r)
}

/// p50 of `n` sequential GETs of the given KBs at `addr`, in µs.
fn probe_us(addr: &str, kbs: &[usize], n: usize) -> Result<f64, String> {
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let mut v = Vec::with_capacity(n);
    for i in 0..n {
        let path = format!("/v1/kb/{}", kb_name(kbs[i % kbs.len()]));
        let start = Instant::now();
        let resp = conn
            .call("GET", &path, None, &[])
            .map_err(|e| e.to_string())?;
        if resp.status != 200 {
            return Err(format!("probe read answered {}", resp.status));
        }
        v.push(start.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&v))
}

const COUNTERS: &[&str] = &[
    "telemetry.server.requests",
    "telemetry.event_loop.pipelined_requests",
    "telemetry.server.rejected",
    "telemetry.sharding.proxied_reads",
    "telemetry.sharding.proxy_failures",
    "telemetry.cache.cache_hits",
    "telemetry.cache.cache_misses",
];

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    let formulas = formulas(ctx.seed);
    let ring = crate::timed_setups(&mut out, || Ok(()), || form_ring(ctx, &formulas))?;
    let proxied_kbs = ring.owned_by_entry.iter().filter(|o| !**o).count();
    out.note(format!(
        "routed: 2 in-memory nodes `arbx serve {}`, joined into one ring; nproc {}; {KBS} KBs ({proxied_kbs} owned by the other node); 2 closed-loop connections to the entry node",
        node_args().join(" "),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0),
    ));

    let addrs = [ring.entry.addr.clone(), ring.other.addr.clone()];
    let snapshot =
        || -> Result<Vec<Json>, String> { addrs.iter().map(|a| client::metrics(a)).collect() };
    let before = snapshot()?;
    let tw_before = crate::time_wait_sockets();
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(ctx.seconds);
    let (a, b) = std::thread::scope(|s| {
        let ha = s.spawn(|| read_loop(&ring.entry.addr, &ring, ctx.seed ^ 0xa, until));
        let b = read_loop(&ring.entry.addr, &ring, ctx.seed ^ 0xb, until);
        (ha.join().expect("reader thread"), b)
    });
    let tw_delta = crate::time_wait_sockets() as f64 - tw_before as f64;
    let after = snapshot()?;
    let (mut a, b) = (a?, b?);
    let (rss_e, rss_o) = (ring.entry.peak_rss_mb(), ring.other.peak_rss_mb());
    out.set("peak_rss_mb", rss_e + rss_o);
    out.note(format!(
        "peak RSS: entry node {rss_e:.1} MiB, other node {rss_o:.1} MiB"
    ));

    // Better quartiles over slices of the window (see `stats::Sliced`).
    let done: Vec<(Instant, f64)> =
        a.ok.iter()
            .chain(&b.ok)
            .map(|&(_, t, ms)| (t, ms))
            .collect();
    let sl = stats::sliced(&done, start, ctx.seconds, ctx.seconds / 40.0);
    let (goodput, p50, p99) = (sl.rate, sl.p50, sl.p99);
    out.note(sl.line("read"));
    a.ok.extend(b.ok);
    a.failed += b.failed;
    a.first_error = a.first_error.or(b.first_error);
    out.set("goodput_ops_s", goodput);
    out.set("p50_ms", p50);
    out.set("client.p99_ms", p99);
    out.set("shard.time_wait_delta", tw_delta);
    out.attempted = a.ok.len() as u64 + a.failed;
    out.failed = a.failed;
    if let Some(e) = &a.first_error {
        out.note(e.clone());
    }
    let d = |p: &str| client::delta(&before, &after, p);
    out.note(format!(
        "better quartile over {} slices: goodput_ops_s {goodput:.1} reads/s, read_p50_ms {p50:.4} ms, read_p99_ms {p99:.4} ms; {} reads, {:.0} proxied; fail_frac {:.6}; shard.time_wait_delta {tw_delta} loopback TIME-WAIT sockets",
        sl.slices,
        a.ok.len(),
        client::delta(&before[..1], &after[..1], COUNTERS[3]),
        ratio(out.failed as f64, out.attempted as f64)
    ));

    if ctx.trace {
        let entry_d = |p: &str| client::delta(&before[..1], &after[..1], p);
        out.set(
            "shard.proxied_share",
            ratio(entry_d(COUNTERS[3]), a.ok.len() as f64),
        );
        out.set("shard.proxy_failures", d(COUNTERS[4]));
        out.set(
            "server.pipelined_share",
            ratio(d(COUNTERS[1]), d(COUNTERS[0])),
        );
        out.set("server.rejected", d(COUNTERS[2]));
        out.set(
            "cache.hit_ratio",
            ratio(d(COUNTERS[5]), d(COUNTERS[5]) + d(COUNTERS[6])),
        );
        // The proxy hop: the same reads sent to the owner directly and
        // through the entry node.
        let remote: Vec<usize> = (0..KBS).filter(|&k| !ring.owned_by_entry[k]).collect();
        let direct = probe_us(&ring.other.addr, &remote, PROXY_PROBES)?;
        let proxied = probe_us(&ring.entry.addr, &remote, PROXY_PROBES)?;
        out.set("shard.proxy_extra_us", proxied - direct);
        out.note(format!(
            "proxy leg: direct read p50 {direct:.1} us, proxied p50 {proxied:.1} us"
        ));
        trace_layers(ctx, &mut out, &formulas, &ring, &a.ok)?;
    }
    Ok(out)
}

/// Replay a sample of the entry node's local reads in-process: the same
/// KBs on an in-memory service, a span around each layer's call.
fn trace_layers(
    ctx: &Ctx,
    out: &mut RunResult,
    formulas: &[String],
    ring: &Ring,
    reads: &[(usize, Instant, f64)],
) -> Result<(), String> {
    let fresh = || -> Result<ServiceState, String> {
        let state = ServiceState::new(ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let mut scratch = Tracer::new();
        for (k, f) in formulas.iter().enumerate() {
            let body = format!("{{\"action\": \"put\", \"formula\": \"{f}\"}}");
            let path = format!("/v1/kb/{}", kb_name(k));
            crate::trace_http(
                &mut scratch,
                0,
                &state,
                &request_bytes("POST", &path, Some(&body), &[]),
            )?;
        }
        Ok(state)
    };
    let state = fresh()?;
    let local: Vec<&(usize, Instant, f64)> = reads
        .iter()
        .filter(|(k, _, _)| ring.owned_by_entry[*k])
        .collect();
    let step = (local.len() / TRACE_SAMPLE).max(1);
    let mut tracer = Tracer::new();
    let mut client_us = HashMap::new();
    let mut sample = Vec::new();
    for (id, (k, _, ms)) in local.iter().enumerate().step_by(step) {
        let id = id as u64;
        client_us.insert(id, ms * 1e3);
        let wire = request_bytes("GET", &format!("/v1/kb/{}", kb_name(*k)), None, &[]);
        let resp = crate::trace_http(&mut tracer, id, &state, &wire)?;
        sample.push(wire);
        if resp.body.as_bytes() != ring.expected[*k].as_slice() {
            return Err(format!(
                "in-process read of {} differs from the owner's",
                kb_name(*k)
            ));
        }
    }
    crate::http_layer_metrics(out, &tracer, &client_us);
    crate::tracing_overhead_us(out, fresh, &sample)?;
    tracer
        .write_jsonl(&ctx.scratch.join("spans.jsonl"))
        .map_err(|e| e.to_string())
}
