//! The arbitrex serving benchmark.
//!
//! ```text
//! perfbench --arbx <path> --workload <query-mix|kb-durable|routed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Starts real `arbx serve` processes, drives one seeded workload from
//! this process (at most two threads, at most two client connections),
//! checks every answer, and prints a human-readable report followed by
//! one JSON line. With `--trace 0` the JSON carries the end-to-end
//! metrics; with `--trace 1` a traced run times each layer's public calls
//! from this process and the JSON carries the per-layer metrics.
//! `perfbench/README.md` documents every workload and metric.

mod client;
mod gen;
mod kb_durable;
mod query_mix;
mod routed;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use arbitrex_server::http::{encode_response, parse_request_buffer, BufferParse, Response};
use arbitrex_server::routes;
use arbitrex_server::ServiceState;

use trace::Tracer;

/// Every end-to-end metric, in output order: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("goodput_ops_s", "1/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric, in output order: (name, unit). A workload
/// that does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.io_us", "us"),
    ("server.pipelined_share", "ratio"),
    ("server.rejected", "count"),
    ("http.parse_us", "us"),
    ("http.encode_us", "us"),
    ("json.parse_us", "us"),
    ("routes.dispatch_us", "us"),
    ("routes.self_us", "us"),
    ("logic.parse_us", "us"),
    ("canonical.key_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.get_us", "us"),
    ("compiled.served_ratio", "ratio"),
    ("compiled.call_us", "us"),
    ("compiled.compiles", "count"),
    ("compiled.fallbacks", "count"),
    ("kernel.call_us", "us"),
    ("kernel.prune_ratio", "ratio"),
    ("kernel.candidates_per_selection", "count"),
    ("kb.commit_us", "us"),
    ("kb.commits_per_fsync", "ratio"),
    ("kb.flush_wait_us", "us"),
    ("kb.write_p50_ms", "ms"),
    ("kb.write_p99_ms", "ms"),
    ("wal.fsync_us", "us"),
    ("wal.bytes_per_commit", "bytes"),
    ("wal.snapshots", "count"),
    ("recovery.replay_ms", "ms"),
    ("recovery.records", "count"),
    ("replication.visible_lag_ms", "ms"),
    ("replication.read_retries", "count"),
    ("replication.frames_per_batch", "ratio"),
    ("replication.read_p50_ms", "ms"),
    ("replication.read_p99_ms", "ms"),
    ("shard.proxied_share", "ratio"),
    ("shard.proxy_extra_us", "us"),
    ("shard.proxy_failures", "count"),
    ("shard.time_wait_delta", "count"),
    ("gen.late_p99_ms", "ms"),
    ("client.p99_ms", "ms"),
    ("trace.client_p50_us", "us"),
    ("trace.stage_sum_p50_us", "us"),
    ("trace.overhead_p50_us", "us"),
];

/// Server processes: two workers each (the benchmark machine has two
/// cores; the load generator shares them).
pub const SERVER_THREADS: &str = "2";

/// Settings shared by every workload.
pub struct Ctx {
    pub arbx: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch space for server state directories and span dumps.
    pub scratch: PathBuf,
}

/// What a workload run produced.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is invalid (e.g. the open-loop generator fell behind),
    /// if it is; its figures must not be kept.
    pub invalid: Option<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Report lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Set-ups per run: `setup_s` is the median of their times.
pub const SETUP_REPS: usize = 9;

/// Time `SETUP_REPS` set-ups, set `setup_s` to their median and note
/// every time; the last set-up's product is kept. `prepare` runs untimed
/// before each.
pub fn timed_setups<T>(
    out: &mut RunResult,
    mut prepare: impl FnMut() -> Result<(), String>,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous set-up (stopping its nodes) before timing the
        // next, so runs do not overlap.
        drop(kept.take());
        prepare()?;
        let start = Instant::now();
        let made = setup()?;
        times.push(start.elapsed().as_secs_f64());
        kept = Some(made);
    }
    out.set("setup_s", stats::median(&times));
    out.note(format!(
        "set-up times (s): [{}]",
        times
            .iter()
            .map(|t| format!("{t:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    Ok(kept.expect("at least one set-up"))
}

/// Serve one raw request in-process the way the event loop does:
/// `http.parse` → `routes.dispatch` → `http.encode`, each a span under
/// the request.
pub fn trace_http(
    tracer: &mut Tracer,
    id: u64,
    state: &ServiceState,
    wire: &[u8],
) -> Result<Response, String> {
    let req = tracer.time(id, "http.parse", Some("request"), || {
        parse_request_buffer(wire, arbitrex_server::http::MAX_BODY_BYTES)
    });
    let req = match req {
        BufferParse::Complete { request, .. } => request,
        other => return Err(format!("in-process parse failed: {other:?}")),
    };
    let resp = tracer.time(id, "routes.dispatch", Some("request"), || {
        routes::dispatch(state, &req)
    });
    tracer.time(id, "http.encode", Some("request"), || {
        encode_response(&resp, false)
    });
    Ok(resp)
}

/// Fill the layer metrics every workload's traced run shares.
pub fn http_layer_metrics(
    out: &mut RunResult,
    tracer: &Tracer,
    client_us: &std::collections::HashMap<u64, f64>,
) {
    // The traced stage sum per request: parse + dispatch + encode.
    let sums = tracer.per_request_us(&["http.parse", "routes.dispatch", "http.encode"]);
    let mut io = Vec::new();
    let mut client = Vec::new();
    let mut stage = Vec::new();
    for (id, c) in client_us {
        if let Some(s) = sums.get(id) {
            io.push(c - s);
            client.push(*c);
            stage.push(*s);
        }
    }
    out.set("server.io_us", stats::median(&io));
    out.set("trace.client_p50_us", stats::median(&client));
    out.set("trace.stage_sum_p50_us", stats::median(&stage));
    out.set(
        "http.parse_us",
        stats::median(&tracer.durations_us("http.parse")),
    );
    out.set(
        "http.encode_us",
        stats::median(&tracer.durations_us("http.encode")),
    );
    out.set(
        "routes.dispatch_us",
        stats::median(&tracer.durations_us("routes.dispatch")),
    );
    out.set(
        "routes.self_us",
        stats::median(&tracer.self_us("routes.dispatch")),
    );
    out.note(format!(
        "trace: {} requests replayed in-process; client p50 {:.1} us = stage sum p50 {:.1} us + server.io p50 {:.1} us",
        io.len(),
        stats::median(&client),
        stats::median(&stage),
        stats::median(&io)
    ));
}

/// What the replay's spans add to one request, in µs: the sample served
/// in-process through `trace_http` on one fresh service, minus the same
/// sample served with no spans on another, p50 of each request's wall
/// time. The two alternate request by request, each going first every
/// other time, so neither a slow spell of the machine nor warm caches
/// favour one. The live window of a traced run is driven exactly as an
/// untraced one (spans come only from the replay), so this is all
/// tracing costs.
pub fn tracing_overhead_us(
    out: &mut RunResult,
    fresh: impl Fn() -> Result<ServiceState, String>,
    sample: &[Vec<u8>],
) -> Result<(), String> {
    let (traced_state, plain_state) = (fresh()?, fresh()?);
    let mut tracer = Tracer::new();
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    for (id, wire) in sample.iter().enumerate() {
        for pass in 0..2 {
            let start = Instant::now();
            if (id + pass) % 2 == 0 {
                trace_http(&mut tracer, id as u64, &traced_state, wire)?;
                traced.push(start.elapsed().as_secs_f64() * 1e6);
            } else {
                let req = match parse_request_buffer(wire, arbitrex_server::http::MAX_BODY_BYTES) {
                    BufferParse::Complete { request, .. } => request,
                    other => return Err(format!("in-process parse failed: {other:?}")),
                };
                std::hint::black_box(encode_response(
                    &routes::dispatch(&plain_state, &req),
                    false,
                ));
                plain.push(start.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    let (t, p) = (stats::median(&traced), stats::median(&plain));
    out.set("trace.overhead_p50_us", t - p);
    out.note(format!(
        "tracing overhead: {} requests served in-process, p50 {t:.2} us with spans, {p:.2} us without",
        sample.len()
    ));
    Ok(())
}

/// Sockets in TIME-WAIT right now, from this network namespace's IPv4
/// and IPv6 tables (all of the benchmark's traffic is loopback).
pub fn time_wait_sockets() -> u64 {
    ["/proc/net/tcp", "/proc/net/tcp6"]
        .iter()
        .filter_map(|p| std::fs::read_to_string(p).ok())
        .flat_map(|t| t.lines().skip(1).map(str::to_string).collect::<Vec<_>>())
        .filter(|l| l.split_whitespace().nth(3) == Some("06"))
        .count() as u64
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --arbx <path> --workload <query-mix|kb-durable|routed> --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut arbx = None;
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--arbx" => arbx = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value == "1",
            _ => usage(),
        }
    }
    let (Some(arbx), Some(workload)) = (arbx, workload) else {
        usage()
    };
    let scratch = PathBuf::from(".bench_state").join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch directory");
    let ctx = Ctx {
        arbx,
        seed,
        seconds,
        trace,
        scratch: scratch.clone(),
    };
    let run = match workload.as_str() {
        "query-mix" => query_mix::run(&ctx),
        "kb-durable" => kb_durable::run(&ctx),
        "routed" => routed::run(&ctx),
        _ => usage(),
    };
    // Span dumps stay in `.bench_state/`; server state is removed, and so
    // is the run's directory when nothing else is left in it.
    for entry in std::fs::read_dir(&scratch).into_iter().flatten().flatten() {
        if entry.path().is_dir() {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
    let _ = std::fs::remove_dir(&scratch);
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            std::process::exit(1);
        }
    };
    for line in &run.notes {
        println!("# {line}");
    }
    if let Some(why) = &run.invalid {
        println!("# INVALID RUN: {why}");
    }
    let wanted = if trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let value = run
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = run.failed == 0 && run.invalid.is_none() && run.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed,
        metrics.join(", ")
    );
}
