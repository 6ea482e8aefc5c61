//! `query-mix`: stateless queries against one in-memory node.
//!
//! A closed-loop phase, then Poisson arrivals over two pipelined
//! keep-alive connections: at a nominal rate, and on a ladder of offered
//! rates that climbs until the node misses the latency limit. Three
//! classes put a different layer in charge of a different percentile:
//!
//! * `light` — widths 3–6, Zipf-skewed over a pool of alpha-renamed and
//!   shuffled variants, so the canonical result cache answers;
//! * `hot` — width-14 cube theories (E18's shape), each queried with a
//!   fresh μ, so the cache misses and the compiled BDD tier answers;
//! * `cold` — distinct queries at widths 8–11: cache misses the kernel
//!   computes.
//!
//! Latency is timed from each request's *scheduled* send, so a stall
//! counts against every request queued behind it.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::time::{Duration, Instant};

use arbitrex_core::{tiered_apply, tiered_arbitrate, Budget, CompiledTier, OpCache, QueryKey};
use arbitrex_logic::{canonicalize_query, parse, Formula, Interp, ModelSet, Sig};
use arbitrex_server::json::{self, Json};
use arbitrex_server::{ServerConfig, ServiceState};

use crate::client::{self, request_bytes, Conn, Node};
use crate::gen::{self, Dnf, Rng, Zipf};
use crate::stats::{self, quantile, ratio};
use crate::trace::Tracer;
use crate::{Ctx, RunResult};

/// The nominal offered rate (requests/s) of the open loop.
pub const NOMINAL_RATE: f64 = 2500.0;
/// The ladder above it climbs in two speeds: `COARSE_STEP` per rung from
/// `NOMINAL_RATE` until a rate misses the limit twice in a row, then
/// `FINE_STEP` per rung from the last rate that met it, until a rate
/// misses twice in a row again. (A miss is retried once, so one slow
/// spell of the machine does not end a climb.)
pub const COARSE_STEP: f64 = 1.3;
pub const FINE_STEP: f64 = 1.05;
/// A bound on the ladder's length (and so on the run's), far above what
/// the node needs.
const MAX_RUNGS: usize = 24;
/// Share of the window one slice takes; the nominal rate gets
/// `NOMINAL_SLICES` of them and each ladder rung `RUNG_SLICES`.
const SLICE_SHARE: f64 = 0.02;
const NOMINAL_SLICES: usize = 12;
const RUNG_SLICES: usize = 2;
/// Share of the window spent in the closed loop that gives `p50_ms` (and
/// `client.p99_ms`), before the open loop.
const CLOSED_SHARE: f64 = 0.4;
/// Row tag of closed-loop requests (open-loop rows carry their rung).
const CLOSED: usize = usize::MAX;
/// A rung passes when its p99 (failures count as over) stays under this.
pub const LATENCY_LIMIT_MS: f64 = 25.0;
/// A valid run's generator sends its nominal-rate requests at most this
/// late at p99: later than the latency limit itself, every rung verdict
/// would be the generator's rather than the node's.
pub const MAX_LATE_P99_MS: f64 = LATENCY_LIMIT_MS;
/// Stop offering a rung once its oldest outstanding request is this late.
const BACKLOG_ABORT: Duration = Duration::from_secs(5);

const LIGHT_BASES: usize = 48;
const LIGHT_VARIANTS: usize = 4;
const HOT_WIDTH: usize = 14;
const HOT_THEORIES: &[usize] = &[4, 5, 6, 7];
const COLD_WIDTHS: &[usize] = &[8, 9, 10, 11];
const SHARE_LIGHT: f64 = 0.85;
const SHARE_HOT: f64 = 0.12;
const TRACE_SAMPLE: usize = 1500;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Class {
    Light,
    Hot,
    Cold,
}

#[derive(Clone)]
struct Query {
    class: Class,
    fit: bool,
    psi: String,
    phi: String,
    wire: Vec<u8>,
}

impl Query {
    fn new(class: Class, fit: bool, psi: String, phi: String) -> Query {
        let body = if fit {
            format!("{{\"psi\": \"{psi}\", \"mu\": \"{phi}\"}}")
        } else {
            format!("{{\"psi\": \"{psi}\", \"phi\": \"{phi}\"}}")
        };
        let path = if fit { "/v1/fit" } else { "/v1/arbitrate" };
        let wire = request_bytes("POST", path, Some(&body), &[]);
        Query {
            class,
            fit,
            psi,
            phi,
            wire,
        }
    }
}

/// The seeded query source: the light pool, the hot theories, and
/// streams for fresh hot μ and cold queries.
#[derive(Clone)]
struct Source {
    light: Vec<Vec<Query>>,
    zipf: Zipf,
    hot: Vec<Dnf>,
    hot_names: Vec<String>,
    seen_hot: HashSet<String>,
    cold_next: usize,
    rng: Rng,
}

impl Source {
    fn new(seed: u64) -> Source {
        let mut root = Rng::new(seed);
        let mut rng = root.fork(1);
        let mut light = Vec::new();
        for b in 0..LIGHT_BASES {
            let width = 3 + b % 4;
            let (lp, lf) = (1 + rng.below(width), 1 + rng.below(width));
            let mut psi = gen::dnf(&mut rng, width, 2, lp);
            let phi = gen::dnf(&mut rng, width, 2, lf);
            gen::cover(&mut rng, &mut psi, &phi, width);
            let fit = b % 3 == 2;
            let variants = (0..LIGHT_VARIANTS)
                .map(|_| {
                    let names = gen::fresh_names(&mut rng, "L", width);
                    let p = gen::render(&gen::shuffled(&mut rng, &psi), &names);
                    let f = gen::render(&gen::shuffled(&mut rng, &phi), &names);
                    Query::new(Class::Light, fit, p, f)
                })
                .collect();
            light.push(variants);
        }
        let hot = HOT_THEORIES
            .iter()
            .map(|&k| vec![(0..HOT_WIDTH).map(|v| (v, v < k)).collect()])
            .collect();
        Source {
            light,
            zipf: Zipf::new(LIGHT_BASES, 1.1),
            hot,
            hot_names: (0..HOT_WIDTH).map(|i| format!("V{i}")).collect(),
            seen_hot: HashSet::new(),
            cold_next: 0,
            rng: root.fork(2),
        }
    }

    /// Theory `t` queried with a μ never sent before: two cubes, each ψ
    /// with one to three literals flipped.
    fn hot_query(&mut self, t: usize) -> Query {
        loop {
            let mu: Dnf = (0..2)
                .map(|_| {
                    let mut cube = self.hot[t][0].clone();
                    for _ in 0..1 + self.rng.below(3) {
                        let v = self.rng.below(HOT_WIDTH);
                        cube[v].1 = !cube[v].1;
                    }
                    cube
                })
                .collect();
            let phi = gen::render(&mu, &self.hot_names);
            if self.seen_hot.insert(format!("{t}:{phi}")) {
                let psi = gen::render(&self.hot[t], &self.hot_names);
                return Query::new(Class::Hot, false, psi, phi);
            }
        }
    }

    fn cold_query(&mut self) -> Query {
        let width = COLD_WIDTHS[self.cold_next % COLD_WIDTHS.len()];
        self.cold_next += 1;
        let mut psi = gen::dnf(&mut self.rng, width, 3, width / 2);
        let phi = gen::dnf(&mut self.rng, width, 3, width / 2);
        gen::cover(&mut self.rng, &mut psi, &phi, width);
        let names = gen::fresh_names(&mut self.rng, "C", width);
        Query::new(
            Class::Cold,
            false,
            gen::render(&psi, &names),
            gen::render(&phi, &names),
        )
    }

    /// A copy with its own random stream, for another thread.
    fn fork(&mut self, salt: u64) -> Source {
        let mut copy = self.clone();
        copy.rng = self.rng.fork(salt);
        copy
    }

    fn draw(&mut self) -> Query {
        let u = self.rng.unit();
        if u < SHARE_LIGHT {
            let base = self.zipf.sample(&mut self.rng);
            let v = self.rng.below(LIGHT_VARIANTS);
            self.light[base][v].clone()
        } else if u < SHARE_LIGHT + SHARE_HOT {
            let t = self.rng.below(self.hot.len());
            self.hot_query(t)
        } else {
            self.cold_query()
        }
    }

    /// Warm-up: every light variant once, and enough fresh queries per
    /// hot theory to promote it into the compiled tier.
    fn warmup(&mut self) -> Vec<Query> {
        let mut out: Vec<Query> = self.light.iter().flatten().cloned().collect();
        for t in 0..self.hot.len() {
            for _ in 0..CompiledTier::DEFAULT_HOTNESS + 2 {
                out.push(self.hot_query(t));
            }
        }
        out
    }

    /// Two independent Poisson streams (one per connection) at `rate / 2`
    /// each, over `secs` seconds.
    fn plan(&mut self, rate: f64, secs: f64) -> [Vec<(Duration, Query)>; 2] {
        let mut streams = [Vec::new(), Vec::new()];
        for stream in &mut streams {
            let mut t = 0.0;
            loop {
                t += self.rng.exp_gap(rate / 2.0);
                if t >= secs {
                    break;
                }
                stream.push((Duration::from_secs_f64(t), self.draw()));
            }
        }
        streams
    }
}

/// One request's fate on the client side.
struct Sent {
    query: Query,
    sched: Instant,
    sent: Option<Instant>,
    done: Option<Instant>,
    status: u16,
    body: Vec<u8>,
}

impl Sent {
    /// Latency from the scheduled send, `None` when it failed.
    fn latency_ms(&self) -> Option<f64> {
        match (self.status, self.done) {
            (200, Some(done)) => Some(done.duration_since(self.sched).as_secs_f64() * 1e3),
            _ => None,
        }
    }
}

/// Offer one connection's schedule, open-loop: send whatever is due,
/// otherwise read responses until the next send is due.
fn drive(addr: &str, plan: Vec<(Duration, Query)>, start: Instant) -> Vec<Sent> {
    let mut out: Vec<Sent> = plan
        .into_iter()
        .map(|(at, query)| Sent {
            query,
            sched: start + at,
            sent: None,
            done: None,
            status: 0,
            body: Vec::new(),
        })
        .collect();
    let Ok(mut conn) = Conn::connect(addr) else {
        return out;
    };
    let (mut next_send, mut next_recv) = (0usize, 0usize);
    let mut batch = Vec::new();
    while next_recv < out.len() {
        let now = Instant::now();
        if next_send > next_recv && now.duration_since(out[next_recv].sched) > BACKLOG_ABORT {
            break;
        }
        batch.clear();
        while next_send < out.len() && out[next_send].sched <= now {
            batch.extend_from_slice(&out[next_send].query.wire);
            out[next_send].sent = Some(now);
            next_send += 1;
        }
        if !batch.is_empty() && conn.send(&batch).is_err() {
            break;
        }
        if next_recv == next_send {
            // Nothing outstanding: sleep until the next scheduled send.
            if let Some(next) = out.get(next_send) {
                let wait = next.sched.saturating_duration_since(Instant::now());
                if wait > Duration::from_micros(200) {
                    std::thread::sleep(wait - Duration::from_micros(100));
                }
            }
            continue;
        }
        let wait = out
            .get(next_send)
            .map(|s| s.sched.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(50));
        match conn.try_recv(wait) {
            Ok(Some(resp)) => {
                let s = &mut out[next_recv];
                s.done = Some(Instant::now());
                s.status = resp.status;
                s.body = resp.body;
                next_recv += 1;
            }
            Ok(None) => {}
            Err(_) => break,
        }
    }
    out
}

/// One connection's closed loop until `deadline`: send a query, wait
/// for its answer, repeat. Latency is timed from the send.
fn closed_loop(addr: &str, mut source: Source, deadline: Instant) -> Vec<Sent> {
    let mut out = Vec::new();
    let Ok(mut conn) = Conn::connect(addr) else {
        return out;
    };
    while Instant::now() < deadline {
        let query = source.draw();
        let now = Instant::now();
        let mut s = Sent {
            query,
            sched: now,
            sent: Some(now),
            done: None,
            status: 0,
            body: Vec::new(),
        };
        let answer = conn.send(&s.query.wire).and_then(|_| conn.recv());
        let failed = answer.is_err();
        if let Ok(resp) = answer {
            s.done = Some(Instant::now());
            s.status = resp.status;
            s.body = resp.body;
        }
        out.push(s);
        if failed {
            break;
        }
    }
    out
}

/// Run one rung on both connections at once.
fn offer(addr: &str, plan: [Vec<(Duration, Query)>; 2]) -> Vec<Sent> {
    let start = Instant::now() + Duration::from_millis(5);
    let [a, b] = plan;
    std::thread::scope(|s| {
        // One stream on a spawned thread, the other on this one: the load
        // generator stays at two threads.
        let ha = s.spawn(|| drive(addr, a, start));
        let mut all = drive(addr, b, start);
        all.extend(ha.join().expect("generator thread"));
        all
    })
}

/// One slice: a single `offer` of one rung.
struct Slice {
    secs: f64,
    n: usize,
    ok: usize,
    p50: f64,
    p99: f64,
    late_p99: f64,
    /// p99 under the limit and no growing backlog.
    pass: bool,
}

fn slice_stats(secs: f64, sent: &[Sent]) -> Slice {
    let mut late: Vec<f64> = sent
        .iter()
        .filter_map(|s| {
            s.sent
                .map(|t| t.duration_since(s.sched).as_secs_f64() * 1e3)
        })
        .collect();
    let mut by_time: Vec<(Instant, f64)> = sent
        .iter()
        .map(|s| (s.sched, s.latency_ms().unwrap_or(f64::INFINITY)))
        .collect();
    by_time.sort_by_key(|(t, _)| *t);
    // Backlog check: the last quarter (by scheduled time) must not run
    // slower than the first by more than a quarter of the latency limit.
    // A rate even a few percent above capacity queues tens of ms within
    // one slice; a smaller rise is a stall of the machine, which a test
    // relative to the first quarter's (sub-millisecond) median took for
    // a backlog, ending the climb well below capacity.
    let q = by_time.len() / 4;
    let mut first: Vec<f64> = by_time[..q].iter().map(|(_, l)| *l).collect();
    let mut last: Vec<f64> = by_time[by_time.len() - q..]
        .iter()
        .map(|(_, l)| *l)
        .collect();
    let growing =
        q > 0 && quantile(&mut last, 0.5) > quantile(&mut first, 0.5) + LATENCY_LIMIT_MS / 4.0;
    let mut lat: Vec<f64> = by_time.iter().map(|(_, l)| *l).collect();
    let p99 = quantile(&mut lat, 0.99);
    Slice {
        secs,
        n: sent.len(),
        ok: sent.iter().filter(|s| s.latency_ms().is_some()).count(),
        p50: quantile(&mut lat, 0.5),
        p99,
        late_p99: quantile(&mut late, 0.99),
        pass: p99 <= LATENCY_LIMIT_MS && !growing,
    }
}

/// Every slice one offered rate got.
struct Rung {
    rate: f64,
    slices: Vec<Slice>,
}

impl Rung {
    /// Median over slices.
    fn med(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        let v: Vec<f64> = self.slices.iter().map(f).collect();
        crate::stats::median(&v)
    }

    /// The lower quartile over slices of a latency (see `stats::Sliced`).
    fn low(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        let v: Vec<f64> = self.slices.iter().map(f).collect();
        crate::stats::better_quartile(&v, false)
    }

    /// A rung meets the limit when every slice does.
    fn pass(&self) -> bool {
        self.slices.iter().all(|s| s.pass)
    }

    fn line(&self) -> String {
        format!(
            "rung {:>6.0} req/s: {} slices, {} sent, {} ok; slice medians: p50 {:.3} ms, p99 {:.3} ms, ok {:.1}/s, generator late p99 {:.3} ms -> {}",
            self.rate,
            self.slices.len(),
            self.slices.iter().map(|s| s.n).sum::<usize>(),
            self.slices.iter().map(|s| s.ok).sum::<usize>(),
            self.med(|s| s.p50),
            self.med(|s| s.p99),
            self.med(|s| s.ok as f64 / s.secs),
            self.med(|s| s.late_p99),
            if self.pass() { "meets limit" } else { "misses limit" }
        )
    }
}

/// Per-class p50/p99 (from the scheduled send) over some requests.
fn class_line(sent: &[&Sent]) -> String {
    let parts: Vec<String> = [Class::Light, Class::Hot, Class::Cold]
        .iter()
        .map(|c| {
            let mut lat: Vec<f64> = sent
                .iter()
                .filter(|s| s.query.class == *c)
                .map(|s| s.latency_ms().unwrap_or(f64::INFINITY))
                .collect();
            format!(
                "{c:?} n={} p50 {:.3} ms p99 {:.3} ms",
                lat.len(),
                quantile(&mut lat, 0.5),
                quantile(&mut lat, 0.99)
            )
        })
        .collect();
    format!("  classes: {}", parts.join("; "))
}

/// The models of one answer, each as its sorted true-variable names.
type ModelText = BTreeSet<String>;

/// The in-process answer: model count and models.
type Expected = Result<(usize, ModelText), String>;

/// The models of a DNF (a disjunction of conjunctions of literals),
/// cube by cube; `None` for any other shape. Over a hot query's full
/// width-14 cubes this is one model per cube instead of a pass over all
/// 2^14 interpretations.
fn dnf_models(f: &Formula, n: u32) -> Option<ModelSet> {
    let cubes = match f {
        Formula::Or(cubes) => cubes.as_slice(),
        cube => std::slice::from_ref(cube),
    };
    let mut models = Vec::new();
    for cube in cubes {
        let lits = match cube {
            Formula::And(lits) => lits.as_slice(),
            lit => std::slice::from_ref(lit),
        };
        // The cube's fixed variables and their values; `None` once two
        // literals contradict each other.
        let mut fixed = Some((0u64, 0u64));
        for lit in lits {
            let (v, positive) = match lit {
                Formula::Var(v) => (v.0, true),
                Formula::Not(inner) => match **inner {
                    Formula::Var(v) => (v.0, false),
                    _ => return None,
                },
                _ => return None,
            };
            let bit = 1u64 << v;
            fixed = fixed.and_then(|(mask, value)| {
                let agrees = mask & bit == 0 || (value & bit != 0) == positive;
                agrees.then_some((mask | bit, if positive { value | bit } else { value }))
            });
        }
        let Some((mask, value)) = fixed else {
            continue;
        };
        let free = Interp::full(n).0 & !mask;
        if free.count_ones() > 16 {
            return None;
        }
        // Every assignment of the free variables, as subsets of `free`.
        let mut sub = 0u64;
        loop {
            models.push(Interp(value | sub));
            sub = sub.wrapping_sub(free) & free;
            if sub == 0 {
                break;
            }
        }
    }
    Some(ModelSet::new(n, models))
}

fn expected(q: &Query) -> Expected {
    let mut sig = Sig::new();
    let psi = parse(&mut sig, &q.psi).map_err(|e| e.to_string())?;
    let phi = parse(&mut sig, &q.phi).map_err(|e| e.to_string())?;
    let n = sig.width();
    let models_of = |f: &Formula| dnf_models(f, n).unwrap_or_else(|| ModelSet::of_formula(f, n));
    let (mp, mf) = (models_of(&psi), models_of(&phi));
    let models = if q.fit {
        arbitrex_core::operator("odist")
            .ok_or("no odist operator")?
            .apply(&mp, &mf)
    } else {
        arbitrex_core::arbitrate(&mp, &mf)
    };
    let text = models
        .iter()
        .map(|i| {
            let mut names: Vec<&str> = sig
                .iter()
                .filter(|(v, _)| i.get(*v))
                .map(|(_, n)| n)
                .collect();
            names.sort_unstable();
            names.join(",")
        })
        .collect();
    Ok((models.len(), text))
}

fn answered(body: &[u8]) -> Result<(usize, ModelText, bool), String> {
    let doc = json::parse(std::str::from_utf8(body).map_err(|_| "non-UTF-8 body")?)?;
    if doc.get("quality").and_then(Json::as_str) != Some("exact") {
        return Err(format!("inexact answer: {}", doc.to_text()));
    }
    let n = doc
        .get("n_models")
        .and_then(Json::as_u64)
        .ok_or("no n_models")? as usize;
    let truncated = doc
        .get("models_truncated")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    let models = doc
        .get("models")
        .and_then(Json::as_array)
        .ok_or("no models")?
        .iter()
        .map(|m| {
            let mut names: Vec<&str> = m
                .as_array()
                .unwrap_or(&[])
                .iter()
                .filter_map(Json::as_str)
                .collect();
            names.sort_unstable();
            names.join(",")
        })
        .collect();
    Ok((n, models, truncated))
}

/// Check every 200 answer against an in-process `arbitrex_core` result
/// for the same request. Returns the wrong answers (with the first few
/// described).
fn check_answers(sent: &[&Sent]) -> (u64, Vec<String>) {
    let answered_ok: Vec<&&Sent> = sent.iter().filter(|s| s.status == 200).collect();
    let halves = answered_ok.split_at(answered_ok.len() / 2);
    let check = |part: &[&&Sent]| {
        let mut memo: HashMap<(bool, String, String), Expected> = HashMap::new();
        let mut wrong = 0u64;
        let mut why = Vec::new();
        for s in part {
            let key = (s.query.fit, s.query.psi.clone(), s.query.phi.clone());
            let want = memo.entry(key).or_insert_with(|| expected(&s.query));
            let verdict = match (want, answered(&s.body)) {
                (Ok((wn, wm)), Ok((n, m, truncated))) => {
                    *wn == n && if truncated { m.is_subset(wm) } else { m == *wm }
                }
                _ => false,
            };
            if !verdict {
                wrong += 1;
                if why.len() < 3 {
                    why.push(format!(
                        "wrong answer for {:?} psi=`{}` phi=`{}`: {}",
                        s.query.class,
                        s.query.psi,
                        s.query.phi,
                        String::from_utf8_lossy(&s.body)
                    ));
                }
            }
        }
        (wrong, why)
    };
    std::thread::scope(|sc| {
        let h = sc.spawn(|| check(halves.0));
        let (w2, mut why2) = check(halves.1);
        let (w1, mut why1) = h.join().expect("checker thread");
        why1.append(&mut why2);
        (w1 + w2, why1)
    })
}

/// The node's request queue: deep enough that a brief stall of the
/// machine queues requests at the nominal rate instead of refusing them.
pub const QUEUE_DEPTH: &str = "4096";

fn server_args() -> Vec<String> {
    [
        "--addr",
        "127.0.0.1:0",
        "--threads",
        crate::SERVER_THREADS,
        "--queue-depth",
        QUEUE_DEPTH,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Send every warm-up query pipelined on one connection; all must be 200.
fn warm(addr: &str, warmup: &[Query]) -> Result<(), String> {
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    for chunk in warmup.chunks(32) {
        let wire: Vec<u8> = chunk.iter().flat_map(|q| q.wire.iter().copied()).collect();
        conn.send(&wire).map_err(|e| e.to_string())?;
        for q in chunk {
            let resp = conn.recv().map_err(|e| e.to_string())?;
            if resp.status != 200 {
                return Err(format!("warm-up query {} answered {}", q.psi, resp.status));
            }
        }
    }
    Ok(())
}

const COUNTERS: &[&str] = &[
    "telemetry.server.requests",
    "telemetry.server.rejected",
    "telemetry.event_loop.pipelined_requests",
    "telemetry.cache.cache_hits",
    "telemetry.cache.cache_misses",
    "telemetry.bdd.bdd_served",
    "telemetry.bdd.bdd_fallbacks",
    "telemetry.bdd.bdd_compiles",
    "telemetry.kernel.selections",
    "telemetry.kernel.candidates_scanned",
    "telemetry.kernel.candidates_pruned",
];

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    let mut source = Source::new(ctx.seed);
    let warmup = source.warmup();
    let node = crate::timed_setups(
        &mut out,
        || Ok(()),
        || {
            let node = Node::start(&ctx.arbx, &server_args())?;
            warm(&node.addr, &warmup)?;
            Ok(node)
        },
    )?;
    out.note(format!(
        "query-mix: 1 node `arbx serve {}`; nproc {}; nominal {NOMINAL_RATE} req/s, ladder x{COARSE_STEP} per rung to the first rate that misses twice, then x{FINE_STEP} from the last pass to the next such rate, {:.2} s slices; latency limit p99 <= {LATENCY_LIMIT_MS} ms",
        server_args().join(" "),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0),
        ctx.seconds * SLICE_SHARE
    ));
    let addr = node.addr.clone();
    let slice = ctx.seconds * SLICE_SHARE;
    let mut rungs: Vec<Rung> = Vec::new();
    let mut rows: Vec<(usize, Sent)> = Vec::new();
    let before = vec![client::metrics(&addr)?];
    {
        // Closed loop, one query at a time on each connection: the
        // latency a caller sees on a busy node, and the steadiest figure
        // this machine gives.
        let secs = ctx.seconds * CLOSED_SHARE;
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(secs);
        let (a, b) = (source.fork(1), source.fork(2));
        let closed = std::thread::scope(|s| {
            let h = s.spawn(|| closed_loop(&addr, a, deadline));
            let mut v = closed_loop(&addr, b, deadline);
            v.extend(h.join().expect("closed-loop thread"));
            v
        });
        let done: Vec<(Instant, f64)> = closed
            .iter()
            .filter(|s| s.status == 200)
            .filter_map(|s| Some((s.done?, s.done?.duration_since(s.sent?).as_secs_f64() * 1e3)))
            .collect();
        let sl = stats::sliced(&done, start, secs, slice);
        out.set("p50_ms", sl.p50);
        out.set("client.p99_ms", sl.p99);
        out.note(sl.line("closed-loop"));
        out.note(format!(
            "closed loop (2 connections, one query in flight each): p50 {:.4} ms, p99 {:.4} ms, {:.1} queries/s (better quartile over {} slices)",
            sl.p50, sl.p99, sl.rate, sl.slices
        ));
        rows.extend(closed.into_iter().map(|s| (CLOSED, s)));
    }
    let mut run_slice = |rungs: &mut Vec<Rung>, i: usize, rate: f64| -> bool {
        if rungs.len() <= i {
            rungs.push(Rung {
                rate,
                slices: Vec::new(),
            });
        }
        let sent = offer(&addr, source.plan(rate, slice));
        let st = slice_stats(slice, &sent);
        let pass = st.pass;
        rungs[i].slices.push(st);
        rows.extend(sent.into_iter().map(|s| (i, s)));
        pass
    };
    // Nominal slices are spread through the window, two after each ladder
    // rung, so a slow spell of the machine cannot own them all.
    let (mut base, mut step) = (NOMINAL_RATE, COARSE_STEP);
    let (mut retry, mut stop, mut done) = (None, false, 0);
    loop {
        for _ in 0..2 {
            if done < NOMINAL_SLICES {
                run_slice(&mut rungs, 0, NOMINAL_RATE);
                done += 1;
            }
        }
        if stop || rungs.len() > MAX_RUNGS {
            break;
        }
        let rate = retry.unwrap_or(base * step);
        let i = rungs.len();
        let passed = (0..RUNG_SLICES)
            .filter(|_| run_slice(&mut rungs, i, rate))
            .count();
        if passed == RUNG_SLICES {
            (base, retry) = (rate, None);
        } else if retry.is_none() {
            retry = Some(rate);
        } else if step == COARSE_STEP {
            (step, retry) = (FINE_STEP, None);
        } else {
            stop = true;
        }
    }
    while done < NOMINAL_SLICES {
        run_slice(&mut rungs, 0, NOMINAL_RATE);
        done += 1;
    }
    let after = vec![client::metrics(&addr)?];
    out.set("peak_rss_mb", node.peak_rss_mb());
    drop(node);

    for rung in &rungs {
        out.note(rung.line());
    }
    out.note(format!(
        "open-loop nominal slices: p50 [{}] p99 [{}]",
        rungs[0]
            .slices
            .iter()
            .map(|s| format!("{:.3}", s.p50))
            .collect::<Vec<_>>()
            .join(" "),
        rungs[0]
            .slices
            .iter()
            .map(|s| format!("{:.3}", s.p99))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let nominal = &rungs[0];
    let goodput = rungs
        .iter()
        .filter(|r| r.pass())
        .max_by(|a, b| a.rate.total_cmp(&b.rate))
        .map(|r| r.med(|s| s.ok as f64 / s.secs));
    out.set("goodput_ops_s", goodput.unwrap_or(0.0));
    let late = nominal.med(|s| s.late_p99);
    out.set("gen.late_p99_ms", late);
    if late > MAX_LATE_P99_MS {
        out.invalid = Some(format!(
            "generator fell behind: nominal-rate send lateness p99 {late:.3} ms > {MAX_LATE_P99_MS} ms"
        ));
    }
    let nominal_rows: Vec<&Sent> = rows
        .iter()
        .filter(|(i, _)| *i == 0)
        .map(|(_, s)| s)
        .collect();
    out.note(class_line(&nominal_rows));

    // Failures: refused/errored/timed-out requests at the nominal rate,
    // plus every wrong answer anywhere. Refusals at higher rates are the
    // ladder's overload signal.
    let at_nominal = |i: usize| i == 0 || i == CLOSED;
    let errored = rows
        .iter()
        .filter(|(i, s)| at_nominal(*i) && s.status != 200)
        .count() as u64;
    let refused_above = rows
        .iter()
        .filter(|(i, s)| !at_nominal(*i) && s.status != 200)
        .count();
    let check_start = Instant::now();
    let checked: Vec<&Sent> = rows.iter().map(|(_, s)| s).collect();
    let (wrong, why) = check_answers(&checked);
    out.attempted = rows.len() as u64;
    out.failed = errored + wrong;
    for w in why {
        out.note(w);
    }
    out.note(format!(
        "open loop at {} req/s, from the scheduled send: query_p50_ms {:.4} ms, query_p99_ms {:.4} ms (lower quartile over slices); goodput_ops_s {:.1} 1/s; fail_frac {:.6} ({} errored, {} wrong of {} attempted; {} refused above the nominal rate); answers checked in {:.2} s",
        nominal.rate,
        nominal.low(|s| s.p50),
        nominal.low(|s| s.p99),
        goodput.unwrap_or(0.0),
        ratio(out.failed as f64, out.attempted as f64),
        errored,
        wrong,
        out.attempted,
        refused_above,
        check_start.elapsed().as_secs_f64()
    ));

    if ctx.trace {
        let d = |p: &str| client::delta(&before, &after, p);
        out.set(
            "server.pipelined_share",
            ratio(d(COUNTERS[2]), d(COUNTERS[0])),
        );
        out.set("server.rejected", d(COUNTERS[1]));
        out.set(
            "cache.hit_ratio",
            ratio(d(COUNTERS[3]), d(COUNTERS[3]) + d(COUNTERS[4])),
        );
        out.set(
            "compiled.served_ratio",
            ratio(d(COUNTERS[5]), d(COUNTERS[5]) + d(COUNTERS[6])),
        );
        out.set("compiled.fallbacks", d(COUNTERS[6]));
        out.set("compiled.compiles", d(COUNTERS[7]));
        out.set("kernel.prune_ratio", ratio(d(COUNTERS[10]), d(COUNTERS[9])));
        out.set(
            "kernel.candidates_per_selection",
            ratio(d(COUNTERS[9]), d(COUNTERS[8])),
        );
        trace_layers(ctx, &mut out, &warmup, &nominal_rows)?;
    }
    Ok(out)
}

/// Replay a sample of the nominal-rate requests in-process, with a span
/// around each layer's public call.
fn trace_layers(
    ctx: &Ctx,
    out: &mut RunResult,
    warmup: &[Query],
    rows: &[&Sent],
) -> Result<(), String> {
    let fresh = || -> Result<ServiceState, String> {
        let state = ServiceState::new(ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let mut scratch = Tracer::new();
        for (i, q) in warmup.iter().enumerate() {
            crate::trace_http(&mut scratch, i as u64, &state, &q.wire)?;
        }
        Ok(state)
    };
    let state = fresh()?;
    let no_cache = OpCache::new(0);
    let no_tier = CompiledTier::new(
        0,
        CompiledTier::DEFAULT_NODE_BUDGET,
        CompiledTier::DEFAULT_CAPACITY,
    );
    let budget = Budget::unlimited();
    let fit_op = arbitrex_core::budgeted_operator("odist").ok_or("no odist operator")?;
    let mut tracer = Tracer::new();
    let mut client_us = HashMap::new();
    let mut sample = Vec::new();
    let step = (rows.len() / TRACE_SAMPLE).max(1);
    for (id, s) in rows.iter().enumerate().step_by(step) {
        let id = id as u64;
        let (Some(sent), Some(done), 200) = (s.sent, s.done, s.status) else {
            continue;
        };
        sample.push(s.query.wire.clone());
        tracer.record(id, "client", None, sent, done);
        client_us.insert(id, done.duration_since(sent).as_secs_f64() * 1e6);
        let resp = crate::trace_http(&mut tracer, id, &state, &s.query.wire)?;
        let backend = json::parse(&resp.body)
            .ok()
            .and_then(|d| d.get("backend").and_then(Json::as_str).map(str::to_string))
            .unwrap_or_default();
        // The handler's stages, each timed as its own call on the same
        // request and recorded as a child of `routes.dispatch`.
        let body =
            std::str::from_utf8(&s.query.wire[s.query.wire.len() - body_len(&s.query.wire)..])
                .unwrap_or("");
        let parent = Some("routes.dispatch");
        tracer
            .time(id, "json.parse", parent, || json::parse(body))
            .map_err(|e| e.to_string())?;
        let mut sig = Sig::new();
        let (psi, phi) = tracer.time(id, "logic.parse", parent, || {
            (parse(&mut sig, &s.query.psi), parse(&mut sig, &s.query.phi))
        });
        let (psi, phi) = (
            psi.map_err(|e| e.to_string())?,
            phi.map_err(|e| e.to_string())?,
        );
        let n = sig.width();
        tracer.time(id, "canonical.key", parent, || {
            canonicalize_query(&[&psi, &phi], n)
        });
        let tag = if s.query.fit {
            "apply:odist-fitting"
        } else {
            "arbitrate"
        };
        let key = QueryKey::new(tag, &[&psi, &phi], n, &[]);
        tracer.time(id, "cache.get", parent, || state.cache.get(&key));
        let backend_call = |tier: &CompiledTier| {
            if s.query.fit {
                tiered_apply(&no_cache, tier, fit_op.as_ref(), &psi, &phi, n, &budget).map(|_| ())
            } else {
                tiered_arbitrate(&no_cache, tier, &psi, &phi, n, &budget).map(|_| ())
            }
        };
        match backend.as_str() {
            "bdd" => tracer.time(id, "compiled.call", parent, || {
                backend_call(&state.compiled)
            }),
            "kernel" => tracer.time(id, "kernel.call", parent, || backend_call(&no_tier)),
            _ => Ok(()),
        }
        .map_err(|e| e.to_string())?;
    }
    crate::http_layer_metrics(out, &tracer, &client_us);
    let med = |name: &str| crate::stats::median(&tracer.durations_us(name));
    out.set("json.parse_us", med("json.parse"));
    out.set("logic.parse_us", med("logic.parse"));
    out.set("canonical.key_us", med("canonical.key"));
    out.set("cache.get_us", med("cache.get"));
    out.set("compiled.call_us", med("compiled.call"));
    out.set("kernel.call_us", med("kernel.call"));
    crate::tracing_overhead_us(out, fresh, &sample)?;
    tracer
        .write_jsonl(&ctx.scratch.join("spans.jsonl"))
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// Length of the body at the end of a request's wire bytes.
fn body_len(wire: &[u8]) -> usize {
    let head_end = wire.windows(4).position(|w| w == b"\r\n\r\n").unwrap_or(0) + 4;
    wire.len() - head_end
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dnf_models_match_enumeration() {
        let mut source = Source::new(5);
        let mut texts: Vec<String> = vec![
            "A & !A | B".to_string(),
            "A | !B & C".to_string(),
            "(A | B) & C".to_string(),
        ];
        for _ in 0..300 {
            let q = source.draw();
            texts.push(q.psi);
            texts.push(q.phi);
        }
        for text in texts {
            let mut sig = Sig::new();
            let f = parse(&mut sig, &text).unwrap();
            let n = sig.width();
            if let Some(models) = dnf_models(&f, n) {
                assert_eq!(models, ModelSet::of_formula(&f, n), "{text}");
            }
        }
    }
}
