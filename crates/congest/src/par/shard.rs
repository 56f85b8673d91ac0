//! One shard: scratch state and the round loop — the engine's only one.
//!
//! Every run executes this loop: a one-shard run (`threads` 0 or 1)
//! runs it once on the calling thread, a `k`-shard run once per worker.
//! The one-shard differences are all computed once per run from the
//! plan, never per message: a shard with no cut pairs never stages,
//! never sizes its `out_stamp` array and never touches the exchange,
//! and a shard with no peers calls the protocol without `catch_unwind`
//! (a panic has no one to strand, so it unwinds straight to the caller)
//! and streams its round events live to the caller's observer.
//!
//! # The one-barrier round
//!
//! Each loop iteration crosses exactly one rendezvous. Before it, a shard
//! *speculatively* drains its earliest calendar bucket (safe: a shard's
//! nodes change state only when their own shard participates, so the
//! drain commutes with other shards' rounds) and publishes its whole
//! candidate tuple — pending round, active count, posted-last-round flag
//! — in one [`RoundSync::publish`]. After the barrier every shard reads
//! the same snapshot: the agreed round is the published minimum, the
//! busy/empty decision is the participating shards' active sum, and the
//! previous round's local-only fast path is the OR of the posted flags.
//!
//! The rest of the round runs with **no further barrier**: participants
//! compute + send (local deliveries straight into their slots, cross
//! payloads staged per cut pair), then bump every out-pair's sequence
//! counter; receivers wait on exactly the counters of the shards the
//! snapshot says participated ([`Exchange::await_seq`]), apply, run the
//! receive half, and loop back to the next publish. The barrier that
//! starts iteration `i + 1` is what orders round `i`'s takes before
//! round `i + 1`'s posts, so each pair cell double-buffers at depth 1.

use super::exchange::{Exchange, RoundSync};
use super::partition::ShardPlan;
use crate::bits::NodeBits;
use crate::channel::FaultPlan;
use crate::engine::{EdgeSlot, Inbox, InitApi, Protocol, RecvApi, SendApi, ShardSink, SimConfig};
use crate::error::SimError;
use crate::message::Message;
use crate::metrics::Metrics;
use crate::observer::{RoundEvent, RoundObserver};
use crate::rng;
use crate::sched::BucketScheduler;
use crate::{NodeId, Round};
use mis_graphs::Graph;
use rand::rngs::SmallRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Reusable per-shard buffers, one per shard of a [`crate::EngineScratch`]:
/// everything a shard touches per round lives here, sized once and
/// recycled across rounds and runs. There is **no inbox buffer**:
/// receivers borrow messages in place from `slots` through the [`Inbox`]
/// view. Slot stamps are compared against a monotonically increasing
/// tick, so reuse never requires clearing the O(m) slot array.
#[derive(Debug)]
pub(crate) struct ShardScratch<M> {
    sched: BucketScheduler,
    /// RNGs of this shard's nodes, re-derived in place per run.
    rngs: Vec<SmallRng>,
    /// Monotone busy-round counter. Each worker keeps its own, but all
    /// advance in lockstep (one increment per globally agreed round), so
    /// stamps written by the sender shard compare correctly against the
    /// receiver shard's tick.
    tick: u64,
    /// Bit `v - node_base` set iff local node `v` has halted.
    halted: NodeBits,
    /// Bit `v - node_base` set iff `v` is awake in this shard's pending
    /// candidate round; set while speculatively draining the bucket,
    /// cleared per active node when that round has been executed (also
    /// consulted by the cross-shard apply step while participating).
    awake: NodeBits,
    /// Awake, non-halted local nodes of the pending candidate round
    /// (global ids); carried across iterations until the candidate is
    /// agreed.
    active: Vec<NodeId>,
    wakes: Vec<Round>,
    /// Delivery slots of this shard's slot range; receivers borrow
    /// payloads in place through [`Inbox`] (no per-node inbox buffer).
    slots: Vec<EdgeSlot<M>>,
    /// Sender-side duplicate-destination stamps (same index space),
    /// consulted only for *cross-shard* sends — local sends reuse the
    /// receiver slot's claim stamp, so this array stays out of the send
    /// half's working set for local traffic. Sized only for a shard with
    /// out-pairs: without cut edges (always, at one shard) it stays empty.
    out_stamp: Vec<u64>,
    /// Receiver-side sequence expectations, one per in-pair: how many
    /// busy rounds that pair's src shard has participated in so far.
    in_seq: Vec<u64>,
    /// Staging buffers, one per *cut* out-pair (not per shard — pairs
    /// without cut edges have no buffer, no cell, no per-round cost).
    out: Vec<Vec<super::exchange::Staged<M>>>,
}

impl<M: Message> ShardScratch<M> {
    pub fn new() -> ShardScratch<M> {
        ShardScratch {
            sched: BucketScheduler::new(),
            rngs: Vec::new(),
            tick: 0,
            halted: NodeBits::new(),
            awake: NodeBits::new(),
            active: Vec::new(),
            wakes: Vec::new(),
            slots: Vec::new(),
            out_stamp: Vec::new(),
            in_seq: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Resizes for this shard of the plan and resets per-run state (halts,
    /// queue, staging). The tick — and therefore every stamp array —
    /// carries over untouched.
    fn fit_to(&mut self, plan: &ShardPlan, shard: usize) {
        let local_n = plan.nodes(shard).len();
        let local_slots = plan.slots(shard).len();
        self.halted.fit(local_n);
        self.awake.fit(local_n);
        self.slots.resize_with(local_slots, EdgeSlot::vacant);
        for slot in &mut self.slots {
            // Zero-copy delivery parks payloads in slots until the edge
            // is next written; drop leftovers from the previous run.
            slot.msg = None;
        }
        let out_pairs = plan.out_pairs(shard);
        let stamped = if out_pairs.is_empty() { 0 } else { local_slots };
        self.out_stamp.resize(stamped, 0);
        self.out.truncate(out_pairs.len());
        self.out.resize_with(out_pairs.len(), Vec::new);
        for (oi, buf) in self.out.iter_mut().enumerate() {
            buf.clear();
            // `reserve_exact(n)` on an empty Vec guarantees capacity for
            // n elements (no-op when already large enough), so staging
            // never reallocates mid-round.
            buf.reserve_exact(plan.pair_capacity(out_pairs.start + oi));
        }
        self.in_seq.clear();
        self.in_seq.resize(plan.in_pairs(shard).len(), 0);
        self.sched.clear();
        self.active.clear();
        self.wakes.clear();
    }

    /// Buffer capacities for the allocation oracle. Fixed order: RNGs,
    /// halted words, awake words, active list, wake list, edge slots,
    /// out stamps, in-pair sequence expectations, staging buffers —
    /// [`ShardScratch::FIXED_BUFFERS`] entries before the
    /// variable-length staging/scheduler tail. (The pre-zero-copy shard
    /// had a per-node inbox buffer here; the three-barrier shard had no
    /// `in_seq`.)
    pub fn capacity_signature(&self, out: &mut Vec<usize>) {
        out.push(self.rngs.capacity());
        self.halted.capacity_signature(out);
        self.awake.capacity_signature(out);
        out.extend([
            self.active.capacity(),
            self.wakes.capacity(),
            self.slots.capacity(),
            self.out_stamp.capacity(),
            self.in_seq.capacity(),
            self.out.capacity(),
        ]);
        out.extend(self.out.iter().map(Vec::capacity));
        self.sched.capacity_signature(out);
    }

    /// Number of scratch buffers before the variable-length tail of
    /// [`ShardScratch::capacity_signature`]; pinned by tests so a retired
    /// buffer cannot silently come back.
    pub const FIXED_BUFFERS: usize = 9;
}

/// What one shard hands back: its nodes' final states (in node order),
/// its slice of the metrics, and how the run ended.
pub(crate) struct ShardOutcome<S> {
    pub states: Vec<S>,
    /// `awake_rounds` covers only this shard's nodes; the global
    /// `busy_rounds`/`elapsed_rounds` are identical in every shard (all
    /// observe the same agreed rounds and total active counts).
    pub metrics: Metrics,
    pub error: Option<SimError>,
    /// A panic caught at the protocol boundary, re-raised by the caller
    /// (always `None` at one shard, where nothing is caught).
    pub panic: Option<Box<dyn std::any::Any + Send>>,
    /// This shard's per-configuration stats slice (cut traffic, mailbox
    /// posts, fast-path counters, scheduler peak); merged by
    /// [`super::engine`].
    pub stats: crate::telemetry::EngineStats,
}

/// Runs one protocol callback. With peers (`guarded`), a panic is caught
/// so the shard can publish the failure and let every worker shut down
/// at the next rendezvous instead of stranding them at the barrier;
/// alone, the callback runs bare and a panic unwinds to the caller.
#[inline]
fn call<R>(guarded: bool, f: impl FnOnce() -> R) -> std::thread::Result<R> {
    if guarded {
        catch_unwind(AssertUnwindSafe(f))
    } else {
        Ok(f())
    }
}

/// Runs one shard of a run to completion. Every run executes this same
/// function, once per shard; cross-shard coordination happens only
/// through `sync` (the per-round publish + rendezvous) and `exchange`
/// (per-pair sequence-counted payload cells).
///
/// `observer` receives this shard's slice of every busy round at the
/// end of that round: at one shard that is the whole round, so the
/// caller's observer is passed straight through and streams live.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_shard<P: Protocol>(
    shard: usize,
    graph: &Graph,
    plan: &ShardPlan,
    protocol: &P,
    cfg: &SimConfig,
    sync: &RoundSync,
    exchange: &Exchange<P::Msg>,
    scratch: &mut ShardScratch<P::Msg>,
    mut observer: Option<&mut dyn RoundObserver>,
) -> ShardOutcome<P::State> {
    let nodes = plan.nodes(shard);
    let node_base = nodes.start;
    let local_n = nodes.len();
    let slot_base = plan.slots(shard).start;
    let out_pairs = plan.out_pairs(shard);
    let in_pairs = plan.in_pairs(shard);
    let guarded = plan.k() > 1;
    // The same pure fault plan every shard derives from (seed, salt):
    // channel decisions depend only on (round, edge) / (node, round),
    // never on which shard evaluates them.
    let faults = FaultPlan::new(cfg);

    scratch.fit_to(plan, shard);
    scratch.rngs.clear();
    scratch
        .rngs
        .extend(nodes.clone().map(|v| rng::derive(cfg.seed, cfg.salt, v)));
    let ShardScratch {
        sched,
        rngs,
        tick,
        halted,
        awake,
        active,
        wakes,
        slots,
        out_stamp,
        in_seq,
        out,
    } = scratch;

    let mut metrics = Metrics::new(local_n);
    let mut states: Vec<P::State> = Vec::with_capacity(local_n);
    let mut error: Option<SimError> = None;
    let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
    let mut last_round: Option<Round> = None;
    // Per-configuration stats of this shard: cross-shard traffic volume,
    // cell handshakes, and the fast-path skip counters.
    let mut cut_messages: u64 = 0;
    let mut mailbox_posts: u64 = 0;
    let mut exchange_skipped_pairs: u64 = 0;
    let mut local_only_rounds: u64 = 0;
    // How many busy rounds this shard has participated in — the sequence
    // number all of its out-pair cells advance to, together, per round.
    let mut sent_rounds: u64 = 0;

    // Initialization: free local pre-computation, may request wakeups.
    for v in nodes.clone() {
        wakes.clear();
        let li = (v - node_base) as usize;
        let mut api = InitApi::new(v, graph, &mut rngs[li], wakes);
        match call(guarded, || protocol.init(v, &mut api)) {
            Ok(state) => states.push(state),
            Err(p) => {
                // Published as failed in the first tuple below, so every
                // shard aborts after the first rendezvous and no one
                // ever waits on this shard's sequence counters.
                panic = Some(p);
                break;
            }
        }
        for &r in wakes.iter() {
            sched.schedule(r, v);
        }
    }

    // Our drained-but-not-yet-agreed candidate round; `active` holds its
    // awake nodes until it is executed.
    let mut pending: Option<Round> = None;
    // Whether the previous iteration was a busy round / posted payloads
    // (published next iteration; identical across shards by agreement).
    let mut prev_busy = false;
    let mut posted_prev = false;
    let mut iter: u64 = 0;

    loop {
        // Writers of parity p are separated from its readers by a full
        // iteration on either side of the barrier, so a fast shard's
        // next publish never clobbers a slow shard's current snapshot.
        let parity = (iter & 1) as usize;
        iter = iter.wrapping_add(1);

        // Speculative drain: pop our earliest bucket *before* knowing
        // the global round. Safe because only this shard ever mutates
        // its nodes (wakeups are receiver-local, and we sit out every
        // round until this candidate is agreed), and the fault decisions
        // below are pure in (node, candidate round) — so the result is
        // bit-identical to draining after agreement. The awake bit
        // dedups repeated wakeups and the halted bit drops dead nodes;
        // no sort needed (processing order within a round is
        // unobservable — per-node RNGs, slot-indexed delivery).
        if pending.is_none() && error.is_none() && panic.is_none() {
            if let Some(round) = sched.peek_round() {
                let popped = sched.pop_round();
                debug_assert_eq!(popped, Some(round));
                let bucket = sched.take_bucket(round);
                for &v in &bucket {
                    let li = (v - node_base) as usize;
                    if halted.get(li) || awake.get(li) {
                        metrics.probes.wakeups_deduped += 1;
                        continue;
                    }
                    // Adversarial channel: a crash kills the node at its
                    // next wakeup on or after the crash round; a
                    // forced-sleep window consumes the wakeup (the node
                    // misses the round entirely, spending no energy).
                    // Pure in (node, round), so every layout agrees.
                    if faults.crashes(v, round) {
                        halted.set(li);
                        metrics.probes.crash_halts += 1;
                        continue;
                    }
                    if faults.forces_asleep(v, round) {
                        metrics.probes.forced_sleeps += 1;
                        continue;
                    }
                    awake.set(li);
                    active.push(v);
                }
                sched.restore_bucket(round, bucket);
                pending = Some(round);
            }
        }

        // The round's single rendezvous: one publish, one barrier. The
        // failure bit rides in the snapshot so every shard aborts after
        // the *same* barrier (a free-running flag would race: a slow
        // shard could observe a failure one round before its peers and
        // leave them stranded at the next rendezvous).
        sync.publish(
            parity,
            shard,
            pending,
            active.len(),
            posted_prev,
            error.is_some() || panic.is_some(),
        );
        sync.wait();

        // Previous-round fast-path accounting first (every shard reads
        // the same flags, so the counter is identical across shards and
        // covers the final busy round before any break below).
        if prev_busy && !sync.any_posted(parity) {
            local_only_rounds += 1;
        }
        prev_busy = false;
        posted_prev = false;

        if sync.failed(parity) {
            break; // init, send, or recv failed somewhere last round
        }
        let Some(round) = sync.min_next(parity) else {
            break; // every shard drained: the run is complete
        };
        if round >= cfg.max_rounds {
            // All shards compute the same round, so all break here.
            error = Some(SimError::ExceededMaxRounds {
                max_rounds: cfg.max_rounds,
            });
            break;
        }
        *tick += 1;
        let stamp = *tick;

        let participating = pending == Some(round);
        let total_active = sync.active_for(parity, round);
        if participating {
            pending = None;
        }
        if total_active == 0 {
            // Everyone woken this round had already halted; no shard
            // sends, so no sequence counter advances either.
            debug_assert!(!participating || active.is_empty());
            continue;
        }
        last_round = Some(round);
        metrics.busy_rounds += 1;
        prev_busy = true;
        // Counter snapshot so the observer (if any) sees this shard's
        // per-round deltas.
        let (sent_before, delivered_before, dropped_before, collisions_before, bits_before) = (
            metrics.messages_sent,
            metrics.messages_delivered,
            metrics.messages_dropped,
            metrics.collisions,
            metrics.bits_sent,
        );
        let all_awake = total_active == graph.n();

        if participating {
            for &v in active.iter() {
                metrics.awake_rounds[(v - node_base) as usize] += 1;
            }
            // Send half: local deliveries straight into our slots,
            // cross-shard payloads staged into per-cut-pair buffers;
            // each node's CONGEST accounting is tallied locally and
            // committed in one batch per node, not one update per
            // message.
            for &v in active.iter() {
                let li = (v - node_base) as usize;
                let sink = ShardSink {
                    slots: &mut slots[..],
                    out_stamp: &mut out_stamp[..],
                    awake: &*awake,
                    node_base,
                    slot_base,
                    slot_starts: plan.slot_boundaries(),
                    pair_local: plan.pair_local(shard),
                    out: &mut out[..],
                };
                let mut api = SendApi::new(
                    v,
                    round,
                    graph,
                    &mut rngs[li],
                    stamp,
                    sink,
                    all_awake,
                    faults,
                    cfg,
                    &mut error,
                );
                if let Err(p) = call(guarded, || protocol.send(&mut states[li], &mut api)) {
                    panic = Some(p);
                    break;
                }
                metrics.commit_send(api.into_tally());
                if error.is_some() {
                    break; // the first CONGEST violation aborts the run
                }
            }
            // Advance every out-pair's sequence counter — *always*, even
            // empty and even when aborting, so a receiver awaiting this
            // round's count can never deadlock. Only non-empty buffers
            // pay the post (the cut-aware fast path).
            sent_rounds += 1;
            for (oi, buf) in out.iter_mut().enumerate() {
                let payload = !buf.is_empty();
                if payload {
                    cut_messages += buf.len() as u64;
                    mailbox_posts += 1;
                    exchange.post(out_pairs.start + oi, buf);
                    posted_prev = true;
                }
                exchange.publish(out_pairs.start + oi, sent_rounds, payload);
            }
            if error.is_some() || panic.is_some() {
                // Peers hold every bump they will wait for; everyone
                // observes the failure flag after the next barrier.
                continue;
            }
        }

        // Apply: drain each participating sender's cell (ascending src
        // order; write order is immaterial — slots are per directed
        // edge, and sender-side stamps already rejected duplicates). A
        // stored slot *is* the delivery to this shard's node, so
        // delivered counts accrue here — batched once per apply step —
        // and the receive half below does no accounting at all.
        let mut applied: u64 = 0;
        let mut channel_dropped: u64 = 0;
        for (ii, &p) in in_pairs.iter().enumerate() {
            let p = p as usize;
            if !sync.participates(parity, plan.pair_src(p), round) {
                continue; // src sat this round out: no bump, no payload
            }
            in_seq[ii] += 1;
            if !exchange.await_seq(p, in_seq[ii]) {
                // The pair moved nothing this round: skip the cell
                // without locking it.
                exchange_skipped_pairs += 1;
                continue;
            }
            let mut buf = exchange.take(p);
            if participating {
                for (rid, dst, msg) in buf.drain(..) {
                    let li = (dst - node_base) as usize;
                    if all_awake || awake.get(li) {
                        if faults.drops(round, rid) {
                            // Channel loss for a cross-shard delivery:
                            // the receiving shard applies the same pure
                            // (round, rid) decision a local send makes
                            // at claim time, at the same commit point
                            // where delivered counts accrue.
                            channel_dropped += 1;
                        } else {
                            let slot = &mut slots[rid - slot_base];
                            slot.stamp = stamp;
                            slot.msg = Some(msg);
                            applied += 1;
                        }
                    } // else: receiver asleep, payload dropped (as at
                      // send time for a local receiver — same round,
                      // same loss)
                }
            } else {
                // Not participating means *none* of our nodes are awake
                // this round (our earliest pending round is later), so
                // every payload is lost exactly as a send to a sleeping
                // receiver: uncounted. The awake bits must not be
                // consulted — they describe the future candidate round.
                buf.clear();
            }
        }
        metrics.messages_delivered += applied;
        metrics.messages_dropped += channel_dropped;

        if participating {
            // Radio-collision pass: between the send half (all slots
            // written) and the receive half, each local receiver that
            // heard ≥ 2 simultaneous transmissions loses them all. All
            // deliveries into a node's slots were counted in its own
            // shard's metrics (local sends by the sender's tally here,
            // cross-shard by `applied` above), so decrementing here
            // keeps the merged totals exact.
            if faults.is_collision() {
                for &v in active.iter() {
                    let er = graph.edge_range(v);
                    let local = er.start - slot_base..er.end - slot_base;
                    let hits = slots[local.clone()]
                        .iter()
                        .filter(|s| s.stamp == stamp && s.msg.is_some())
                        .count() as u64;
                    if hits >= 2 {
                        for slot in &mut slots[local] {
                            if slot.stamp == stamp {
                                slot.msg = None;
                            }
                        }
                        metrics.messages_delivered -= hits;
                        metrics.messages_dropped += hits;
                        metrics.collisions += 1;
                    }
                }
            }

            // Receive half: each awake local node reacts to a borrowed
            // view of its slot range (ascending sender order by CSR
            // construction); payloads are read in place, never copied
            // out. Purely shard-local: no one else touches our slots
            // now.
            for &v in active.iter() {
                let li = (v - node_base) as usize;
                let er = graph.edge_range(v);
                let inbox = Inbox::new(
                    &slots[er.start - slot_base..er.end - slot_base],
                    graph.neighbors(v),
                    stamp,
                );
                wakes.clear();
                let mut halt = false;
                let mut api = RecvApi::new(v, round, graph, &mut rngs[li], wakes, &mut halt);
                if let Err(p) = call(guarded, || protocol.recv(&mut states[li], inbox, &mut api)) {
                    // Published in the next tuple, observed by all after
                    // the next barrier; our sequence counters for this
                    // round are already bumped, so no receiver hangs on
                    // us.
                    panic = Some(p);
                    break;
                }
                if halt {
                    halted.set(li);
                } else {
                    for &r in wakes.iter() {
                        sched.schedule(r, v);
                    }
                }
            }
        }

        if let Some(obs) = observer.as_deref_mut() {
            // This shard's slice of the busy round; every shard reports
            // in lockstep (same rounds, same order), so a k-shard run
            // can sum the slices entry-wise into the global stream. A
            // non-participating shard contributes an all-zero slice.
            obs.on_round(&RoundEvent {
                round,
                awake: if participating {
                    active.len() as u64
                } else {
                    0
                },
                messages_sent: metrics.messages_sent - sent_before,
                messages_delivered: metrics.messages_delivered - delivered_before,
                messages_dropped: metrics.messages_dropped - dropped_before,
                collisions: metrics.collisions - collisions_before,
                bits_sent: metrics.bits_sent - bits_before,
            });
        }

        if participating {
            // Reset this round's awake bits, touching only active
            // nodes' words (sparse rounds stay O(active)), and release
            // the candidate's node list (the next speculative drain
            // refills both).
            for &v in active.iter() {
                awake.clear((v - node_base) as usize);
            }
            active.clear();
        }
    }

    metrics.elapsed_rounds = last_round.map_or(0, |r| r + 1);
    // Scheduler probes: insertion volume and spills are layout-invariant
    // (every schedule() call happens against base == current round, and
    // every speculatively drained bucket is eventually agreed on a
    // successful run), so per-shard values sum to the same totals at
    // every shard count; the peak bucket depends on shard layout, so it
    // lands in the per-configuration stats instead.
    let sched_stats = sched.stats();
    metrics.probes.wakeups_scheduled = sched_stats.scheduled;
    metrics.probes.sched_spills = sched_stats.spilled;
    let stats = crate::telemetry::EngineStats {
        shards: 0, // the merge step records the shard count
        cut_messages,
        mailbox_posts,
        exchange_skipped_pairs,
        local_only_rounds,
        cut_slots: 0, // the merge step records the plan-wide value
        peak_bucket: sched_stats.peak_bucket,
    };
    ShardOutcome {
        states,
        metrics,
        error,
        panic,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The signature layout is exactly the fixed buffers plus the
    /// variable staging/scheduler tail — pinning that the slice-era
    /// per-node inbox buffer is gone, and that the staging tail is one
    /// buffer per *cut pair*, not per shard. The one-shard plan pins the
    /// one-shard run's footprint: no pairs, and no `out_stamp` array.
    #[test]
    fn capacity_signature_is_fixed_buffers_plus_tail() {
        let g = mis_graphs::generators::grid2d(3, 3);
        for (k, pairs) in [(2, 1), (1, 0)] {
            let mut plan = ShardPlan::new();
            plan.rebuild(&g, k);
            let mut s: ShardScratch<u32> = ShardScratch::new();
            s.fit_to(&plan, 0);
            let mut sig = Vec::new();
            s.capacity_signature(&mut sig);
            let mut sched_sig = Vec::new();
            s.sched.capacity_signature(&mut sched_sig);
            assert_eq!(
                sig.len(),
                ShardScratch::<u32>::FIXED_BUFFERS + s.out.len() + sched_sig.len()
            );
            // A 2-way split of a connected grid has exactly one out-pair
            // and one in-pair; a single shard has none of either.
            assert_eq!(s.out.len(), pairs, "k = {k}");
            assert_eq!(s.in_seq.len(), pairs, "k = {k}");
            if k == 1 {
                assert_eq!(s.out_stamp.capacity(), 0, "one shard stamps nothing");
            } else {
                assert_eq!(s.out_stamp.len(), plan.slots(0).len());
            }
        }
    }
}
