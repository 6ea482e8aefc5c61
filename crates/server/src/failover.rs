//! Automatic failover for shard chain heads.
//!
//! PR 9's ring maps names to replica **chains** (`shard.rs`); this
//! module adds the machinery that makes a chain survive its head:
//!
//! * **Puller supervision** — every non-head chain member must stream
//!   its head's WAL. [`ensure_puller`] compares the puller this node is
//!   running against what the current ring says it should run, and
//!   stops/retargets/respawns as needed. The [`crate::replication::ReplLog`] puller
//!   *generation* makes stop-then-spawn race-free: a deposed puller can
//!   never outlive its retarget.
//! * **Failure detection** — the detector thread probes this node's
//!   chain head over `GET /v1/replication/status` every
//!   `--probe-interval-ms`. After `--suspect-after` consecutive
//!   failures the designated successor (the first replica) runs a
//!   **quorum check**: it asks every other serving member to probe the
//!   head (`POST /v1/cluster/probe`). Any voter that can still reach
//!   the head vetoes the promotion — a suspected-but-alive head behind
//!   a partition stays fenced instead of split-brained. No responding
//!   voters at all means *this* node may be the partitioned one, so it
//!   also refuses to promote (with no voters configured — a two-node
//!   chain — the successor must self-decide).
//! * **Self-promotion** — on confirmed death the successor runs PR 8's
//!   `promote()` (WAL epoch bump), rotates its chain on the ring
//!   ([`crate::shard::ShardRouter::rotate_chain`] records the new WAL
//!   epoch as the chain's `repl_epoch` — the epoch *composition* that
//!   fences the deposed head at apply, stream, resync and routing), and
//!   broadcasts the rotated ring through the PR 9 sync path. Because
//!   chains hash by a stable anchor, the rotation moves **zero** data.
//! * **Revival** — the new head remembers whom it deposed. When the old
//!   head answers probes again, its acked-but-never-shipped commits are
//!   absorbed with the paper's `Δ` arbitration
//!   ([`crate::replication::reconcile_with_peer`] — divergence is
//!   merged, never last-writer-wins), and the node is re-enlisted as
//!   the chain's tail. Adopting the new ring demotes it
//!   ([`reconcile_role`]): read-only, pulling from the new head, whose
//!   higher epoch forces a resync over the shared history.
//! * **Ring anti-entropy** — heads push the current ring to chain
//!   members whose advertised ring epoch lags, so a member that missed
//!   the rotation broadcast converges within a probe interval instead
//!   of fencing writes against a dead ring forever.
//!
//! Everything here is driven by one thread per node
//! ([`spawn_detector`]), disabled with `--probe-interval-ms 0`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::json::{self, Json};
use crate::metrics;
use crate::replication::{self, PeerClient};
use crate::shard::{ChainEntry, ShardRing, ShardRouter};
use crate::ServiceState;

/// Cross-thread failover bookkeeping hung off [`ServiceState`].
pub struct FailoverState {
    /// The replication puller this node currently runs.
    puller: Mutex<PullerSlot>,
    /// Chain heads this node deposed and still owes a revival
    /// reconcile + re-enlist.
    deposed: Mutex<Vec<String>>,
    /// Stops the detector thread.
    stop: AtomicBool,
}

#[derive(Default)]
struct PullerSlot {
    target: Option<String>,
    handle: Option<JoinHandle<()>>,
}

impl Default for FailoverState {
    fn default() -> FailoverState {
        FailoverState::new()
    }
}

impl FailoverState {
    /// Fresh bookkeeping: no puller, no deposed heads.
    pub fn new() -> FailoverState {
        FailoverState {
            puller: Mutex::new(PullerSlot::default()),
            deposed: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        }
    }

    /// Ask the detector thread to exit.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Chain heads this node deposed and has not yet reconciled back
    /// (the `deposed_heads` gauge).
    pub fn deposed_count(&self) -> usize {
        self.deposed.lock().unwrap().len()
    }

    fn note_deposed(&self, addr: &str) {
        let mut deposed = self.deposed.lock().unwrap();
        if !deposed.iter().any(|d| d == addr) {
            deposed.push(addr.to_string());
        }
    }

    fn deposed_snapshot(&self) -> Vec<String> {
        self.deposed.lock().unwrap().clone()
    }

    fn forget_deposed(&self, addr: &str) {
        self.deposed.lock().unwrap().retain(|d| d != addr);
    }
}

// --- puller supervision ------------------------------------------------------

/// The primary this node should be pulling from right now: its chain
/// head under the current ring, or — while the ring does not yet list a
/// chain for it (bootstrap, before the enlist lands) — the configured
/// `--replicate-from` primary. `None` for a head (or any writable
/// store): primaries don't pull.
fn desired_puller_target(state: &ServiceState) -> Option<String> {
    let log = state.kbs.replication()?;
    if !log.read_only() {
        return None;
    }
    if let Some(router) = &state.shards {
        if let Some(chain) = router.self_chain() {
            let head = chain.head().to_string();
            if head != router.self_addr() {
                return Some(head);
            }
        }
    }
    state.config.replicate_from.clone()
}

/// Reconcile the puller this node runs with what the ring says it
/// should run: stop a puller aimed at the wrong primary, spawn one at
/// the right target, respawn one that died. Idempotent; called at
/// startup and on every detector tick.
pub fn ensure_puller(state: &Arc<ServiceState>) {
    let Some(log) = state.kbs.replication() else {
        return;
    };
    let desired = desired_puller_target(state);
    let mut slot = state.failover.puller.lock().unwrap();
    let live = slot.handle.as_ref().is_some_and(|h| !h.is_finished());
    if slot.target == desired && (live || desired.is_none()) {
        return;
    }
    // Invalidate whatever generation is running before spawning the
    // replacement at the next one.
    log.stop_puller();
    if let Some(stale) = slot.handle.take() {
        let _ = stale.join();
    }
    slot.handle = desired
        .as_ref()
        .map(|target| replication::spawn_puller(Arc::clone(state), target.clone()));
    slot.target = desired;
}

/// Stop and join the puller thread (server shutdown).
pub fn join_puller(state: &ServiceState) {
    if let Some(log) = state.kbs.replication() {
        log.stop_puller();
    }
    let handle = state.failover.puller.lock().unwrap().handle.take();
    if let Some(handle) = handle {
        let _ = handle.join();
    }
}

/// Align this node's replication role with the ring it holds: a node
/// listed *behind* another head is a replica now — whatever it used to
/// be (a deposed head rejoining as tail, or a standalone primary that
/// was just enlisted) — so it demotes to read-only. Promotion is never
/// done here: becoming a head goes through the detector's quorum check
/// (or an explicit `POST /v1/replication/promote`), not through ring
/// gossip a stale broadcast could forge.
pub fn reconcile_role(state: &ServiceState) {
    let Some(router) = &state.shards else {
        return;
    };
    let Some(log) = state.kbs.replication() else {
        return;
    };
    let Some(chain) = router.self_chain() else {
        return;
    };
    if chain.head() != router.self_addr() && !log.read_only() {
        let _ = state.kbs.demote();
    }
}

// --- probing -----------------------------------------------------------------

/// What a status probe learned about a peer.
pub(crate) struct StatusView {
    /// The peer's ring epoch (0 when it is not sharded).
    pub(crate) ring_epoch: u64,
}

/// Probe `addr` over `GET /v1/replication/status`, on a pooled
/// connection. `None` when the peer is unreachable or answers anything
/// but 200 — the detector's (and the quorum voters') definition of
/// "down".
pub(crate) fn probe_status(state: &ServiceState, addr: &str) -> Option<StatusView> {
    metrics::FAILOVER_PROBES.incr();
    let response = state
        .peers
        .get(&state.counters, addr, "/v1/replication/status", &[])
        .ok()?;
    if response.status != 200 {
        return None;
    }
    let text = std::str::from_utf8(&response.body).ok()?;
    let doc = json::parse(text).ok()?;
    Some(StatusView {
        ring_epoch: doc.get("ring_epoch").and_then(|v| v.as_u64()).unwrap_or(0),
    })
}

/// The ring-sync broadcast body for `ring` (the same shape
/// `POST /v1/cluster/{join,leave}` pushes).
fn sync_body(ring: &ShardRing) -> String {
    let members: Vec<Json> = ring.members().iter().map(|m| json::s(m.clone())).collect();
    json::obj([
        ("epoch", json::n(ring.epoch())),
        ("members", Json::Arr(members)),
    ])
    .to_text()
}

/// Push `ring` to one peer; `true` when it acked.
fn push_sync(target: &str, ring: &ShardRing) -> bool {
    let body = sync_body(ring);
    PeerClient::connect(target)
        .and_then(|mut client| client.request("POST", "/v1/cluster/sync", Some(&body)))
        .map(|resp| resp.status == 200)
        .unwrap_or(false)
}

/// Push `ring` to every serving member (plus `extra` — e.g. a deposed
/// head no longer listed), skipping self. Returns how many acked.
pub(crate) fn broadcast_ring(state: &ServiceState, ring: &ShardRing, extra: &[&str]) -> u64 {
    let Some(router) = &state.shards else {
        return 0;
    };
    let self_addr = router.self_addr();
    let mut targets = ring.serving_addrs();
    for addr in extra {
        if !targets.iter().any(|t| t == addr) {
            targets.push(addr.to_string());
        }
    }
    let mut synced = 0u64;
    for target in targets {
        if target == self_addr {
            continue;
        }
        if push_sync(&target, ring) {
            synced += 1;
        }
    }
    synced
}

// --- the detector thread -----------------------------------------------------

/// Spawn the failure detector, or `None` when it is disabled
/// (`--probe-interval-ms 0`), the node is not a ring member, or the
/// store has no replication log (in-memory stores cannot chain).
pub fn spawn_detector(state: Arc<ServiceState>) -> Option<JoinHandle<()>> {
    if state.config.probe_interval_ms == 0
        || state.shards.is_none()
        || state.kbs.replication().is_none()
    {
        return None;
    }
    Some(
        thread::Builder::new()
            .name("arbitrex-failover".to_string())
            .spawn(move || run_detector(&state))
            .expect("spawn failover detector"),
    )
}

fn run_detector(state: &Arc<ServiceState>) {
    let interval = Duration::from_millis(state.config.probe_interval_ms);
    let suspect_after = state.config.suspect_after.max(1);
    let mut consecutive_failures: u32 = 0;
    while !state.failover.stopped() {
        ensure_puller(state);
        reconcile_role(state);
        tick(state, &mut consecutive_failures, suspect_after);
        sleep_interval(state, interval);
    }
}

/// Sleep one probe interval in short slices so shutdown stays prompt.
fn sleep_interval(state: &ServiceState, interval: Duration) {
    let deadline = Instant::now() + interval;
    let slice = Duration::from_millis(20);
    while !state.failover.stopped() {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        thread::sleep(slice.min(deadline - now));
    }
}

fn tick(state: &Arc<ServiceState>, consecutive_failures: &mut u32, suspect_after: u32) {
    let Some(router) = &state.shards else {
        return;
    };
    let Some(chain) = router.self_chain() else {
        return;
    };
    let self_addr = router.self_addr();
    if chain.head() == self_addr {
        *consecutive_failures = 0;
        head_tick(state, router, &chain);
        return;
    }
    let head = chain.head().to_string();
    match probe_status(state, &head) {
        Some(status) => {
            *consecutive_failures = 0;
            // Ring anti-entropy upward: a head answering with an older
            // ring epoch missed a broadcast — push ours.
            if status.ring_epoch < router.epoch() {
                push_sync(&head, &router.ring());
            }
        }
        None => {
            metrics::FAILOVER_PROBE_FAILURES.incr();
            *consecutive_failures += 1;
            if *consecutive_failures >= suspect_after
                && chain.successor() == Some(self_addr.as_str())
            {
                if confirm_death(router, &head) {
                    promote_self(state, router, &head);
                }
                // Both outcomes restart the suspicion count: a veto
                // means the head is alive behind a partition (probe
                // again from scratch), a promotion changes roles.
                *consecutive_failures = 0;
            }
        }
    }
}

/// The quorum check: ask every other serving member to probe the
/// suspect. Any voter that reaches it vetoes the promotion; no
/// responding voters at all (while some are configured) aborts too,
/// because this node cannot tell the head's partition from its own.
fn confirm_death(router: &ShardRouter, head: &str) -> bool {
    metrics::FAILOVER_SUSPICIONS.incr();
    let self_addr = router.self_addr();
    let voters: Vec<String> = router
        .ring()
        .serving_addrs()
        .into_iter()
        .filter(|a| a != &self_addr && a != head)
        .collect();
    if voters.is_empty() {
        // A two-node chain has nobody to ask: the successor decides.
        return true;
    }
    let body = json::obj([("addr", json::s(head))]).to_text();
    let mut responders = 0u32;
    for voter in &voters {
        let Ok(mut client) = PeerClient::connect(voter) else {
            continue;
        };
        let Ok(response) = client.request("POST", "/v1/cluster/probe", Some(&body)) else {
            continue;
        };
        if response.status != 200 {
            continue;
        }
        responders += 1;
        let reachable = std::str::from_utf8(&response.body)
            .ok()
            .and_then(|text| json::parse(text).ok())
            .and_then(|doc| doc.get("reachable").and_then(|v| v.as_bool()))
            .unwrap_or(false);
        if reachable {
            metrics::FAILOVER_QUORUM_VETOES.incr();
            return false;
        }
    }
    responders > 0
}

/// Confirmed death: promote this store (WAL epoch bump), rotate the
/// chain on the ring (recording the new WAL epoch as the chain's
/// `repl_epoch`), remember the deposed head for revival, and broadcast
/// the rotated ring — to the deposed head too, so it demotes the moment
/// it is reachable again.
fn promote_self(state: &ServiceState, router: &ShardRouter, dead_head: &str) {
    let Ok((epoch, _last_rseq)) = state.kbs.promote() else {
        return;
    };
    metrics::FAILOVER_AUTO_PROMOTIONS.incr();
    let Some(ring) = router.rotate_chain(dead_head, epoch) else {
        return;
    };
    state.failover.note_deposed(dead_head);
    broadcast_ring(state, &ring, &[dead_head]);
}

/// What a chain head does each tick: shepherd deposed predecessors back
/// in, and push the current ring to chain members whose epoch lags.
fn head_tick(state: &Arc<ServiceState>, router: &ShardRouter, chain: &ChainEntry) {
    let self_addr = router.self_addr();
    for addr in state.failover.deposed_snapshot() {
        if probe_status(state, &addr).is_none() {
            continue;
        }
        // The revived head may hold commits it acked but never shipped
        // before dying: absorb them with Δ arbitration *before*
        // re-enlisting it, so the chain's history subsumes its own.
        metrics::FAILOVER_RECONCILES.incr();
        if replication::reconcile_with_peer(state, &addr).is_err() {
            continue; // answered, then died again: retry next tick
        }
        // None => already serving somewhere: nothing to re-add.
        if let Some(ring) = router.enlist_member(&self_addr, &addr) {
            broadcast_ring(state, &ring, &[]);
        }
        state.failover.forget_deposed(&addr);
    }
    // Ring anti-entropy downward: a replica that missed the rotation
    // broadcast keeps routing (and fencing writes) by the old ring.
    let ring = router.ring();
    for member in chain.members() {
        if *member == self_addr {
            continue;
        }
        let Some(status) = probe_status(state, member) else {
            continue;
        };
        if status.ring_epoch < ring.epoch() {
            push_sync(member, &ring);
        }
    }
}
