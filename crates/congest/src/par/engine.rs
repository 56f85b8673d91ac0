//! The run entry points: scratch, spawn, merge.

use super::exchange::{Exchange, RoundSync};
use super::partition::ShardPlan;
use super::shard::{run_shard, ShardOutcome, ShardScratch};
use crate::engine::{Protocol, SimConfig, SimResult};
use crate::error::SimError;
use crate::message::Message;
use crate::observer::{RoundLog, RoundObserver};
use mis_graphs::Graph;

/// Reusable buffers of a run: the shard plan, one shard scratch per
/// worker, and the exchange cells and round-sync state the workers
/// share (sized to nothing at one shard).
///
/// The steady-state round loop allocates nothing: wake buckets, the
/// awake lists, per-node flag words, per-edge message slots and
/// cross-shard staging all live here and are recycled round over round,
/// and run over run with [`run_with_scratch`]. Repeated runs on the same
/// graph and thread count perform zero steady-state allocation, which
/// the capacity-signature oracle pins down in tests. (The spawned worker
/// threads of a `k >= 2` run are per run; thread reuse is the OS
/// scheduler's job, not the engine's.)
#[derive(Debug)]
pub struct EngineScratch<M> {
    plan: ShardPlan,
    shards: Vec<ShardScratch<M>>,
    exchange: Exchange<M>,
    sync: RoundSync,
}

impl<M: Message> EngineScratch<M> {
    /// Scratch sized for `graph` split across `threads` workers (`0` and
    /// `1` both mean one shard).
    pub fn new(graph: &Graph, threads: usize) -> EngineScratch<M> {
        let mut s = EngineScratch::empty();
        s.fit_to(graph, threads.max(1));
        s
    }

    /// Unsized scratch; [`run`] starts here and lets the run's `fit_to`
    /// do the single sizing pass.
    fn empty() -> EngineScratch<M> {
        EngineScratch {
            plan: ShardPlan::new(),
            shards: Vec::new(),
            exchange: Exchange::new(),
            sync: RoundSync::new(),
        }
    }

    /// Re-partitions for `graph`/`k` and resets per-run state. Always
    /// recomputes the plan: partition boundaries follow the graph's CSR
    /// offsets, and the refit reuses every buffer.
    fn fit_to(&mut self, graph: &Graph, k: usize) {
        self.plan.rebuild(graph, k);
        self.shards.truncate(k);
        self.shards.resize_with(k, ShardScratch::new);
        // One exchange cell per cut pair — not k²: shard pairs without
        // cut edges have no cell, no buffer, and no per-round cost.
        let plan = &self.plan;
        self.exchange
            .fit((0..plan.pair_count()).map(|p| plan.pair_capacity(p)));
        self.sync.fit(k);
    }

    /// Capacities of every growable buffer, in a fixed order: the shard
    /// list, the plan, each shard ([`EngineScratch::FIXED_BUFFERS`]
    /// entries, then its staging and scheduler tail), the exchange. Two
    /// runs of the same workload must produce identical signatures —
    /// `Vec` growth strictly increases capacity, so an unchanged
    /// signature proves the second run performed zero scratch
    /// allocations. This is the allocation oracle for the
    /// no-steady-state-allocation tests (the workspace forbids `unsafe`,
    /// so a counting `GlobalAlloc` is not an option).
    pub fn capacity_signature(&mut self) -> Vec<usize> {
        let mut out = vec![self.shards.capacity()];
        self.plan.capacity_signature(&mut out);
        for s in &self.shards {
            s.capacity_signature(&mut out);
        }
        self.exchange.capacity_signature(&mut out);
        out
    }

    /// Number of buffers each shard contributes before its
    /// variable-length staging/scheduler tail in
    /// [`EngineScratch::capacity_signature`]; pinned by tests so a
    /// retired buffer cannot silently come back. (The pre-zero-copy
    /// engine had one more: a per-node inbox buffer, retired when
    /// [`crate::Inbox`] made delivery borrow in place.)
    pub const FIXED_BUFFERS: usize = ShardScratch::<M>::FIXED_BUFFERS;
}

/// Runs `protocol` on `graph` under `cfg` until no node has a pending
/// wakeup, on [`SimConfig::threads`] shards (one, on the calling thread,
/// for `0` and `1`). Results are bit-identical for every thread count
/// (see [`crate::par`]).
///
/// # Errors
///
/// Returns [`SimError`] if the protocol exceeds `cfg.max_rounds`,
/// addresses a non-neighbor, sends twice to the same neighbor in one
/// round, or (in strict mode) exceeds the bandwidth, and
/// [`SimError::InvalidInput`] for a config [`SimConfig::validate`]
/// rejects. When shards fail in the same round, the lowest-numbered
/// shard's error is returned.
///
/// # Panics
///
/// Re-raises a panic unwinding out of a protocol callback (at `k >= 2`
/// after all workers shut down cleanly).
pub fn run<P>(graph: &Graph, protocol: &P, cfg: &SimConfig) -> Result<SimResult<P::State>, SimError>
where
    P: Protocol + Sync,
    P::State: Send,
    P::Msg: Send,
{
    execute(graph, protocol, cfg, &mut EngineScratch::empty(), None)
}

/// [`run`], streaming one [`crate::RoundEvent`] per busy round into
/// `observer`. At one shard the events stream live at the end of each
/// round; at `k >= 2` each shard records its slice and the merged
/// stream is replayed when the run completes (nothing on an error). The
/// stream is identical for every thread count (see [`crate::observer`]).
///
/// # Errors
///
/// Same contract as [`run`].
pub fn run_observed<P>(
    graph: &Graph,
    protocol: &P,
    cfg: &SimConfig,
    observer: &mut dyn RoundObserver,
) -> Result<SimResult<P::State>, SimError>
where
    P: Protocol + Sync,
    P::State: Send,
    P::Msg: Send,
{
    execute(
        graph,
        protocol,
        cfg,
        &mut EngineScratch::empty(),
        Some(observer),
    )
}

/// [`run`], reusing caller-owned scratch buffers across runs.
///
/// Repeated executions on the same graph (parameter sweeps, benchmark
/// loops, repeated phases with one message type) skip all per-run buffer
/// allocation except the result itself.
///
/// # Errors
///
/// Same contract as [`run`].
pub fn run_with_scratch<P>(
    graph: &Graph,
    protocol: &P,
    cfg: &SimConfig,
    scratch: &mut EngineScratch<P::Msg>,
) -> Result<SimResult<P::State>, SimError>
where
    P: Protocol + Sync,
    P::State: Send,
    P::Msg: Send,
{
    execute(graph, protocol, cfg, scratch, None)
}

/// The one body behind every entry point: one shard on the calling
/// thread, or shard 0 there plus `k - 1` spawned workers.
fn execute<P>(
    graph: &Graph,
    protocol: &P,
    cfg: &SimConfig,
    scratch: &mut EngineScratch<P::Msg>,
    observer: Option<&mut dyn RoundObserver>,
) -> Result<SimResult<P::State>, SimError>
where
    P: Protocol + Sync,
    P::State: Send,
    P::Msg: Send,
{
    cfg.validate()?;
    let k = cfg.threads.max(1);
    scratch.fit_to(graph, k);
    let EngineScratch {
        plan,
        shards,
        exchange,
        sync,
    } = scratch;
    let plan: &ShardPlan = plan;
    let exchange: &Exchange<P::Msg> = exchange;
    let sync: &RoundSync = sync;

    let (first, rest) = shards.split_first_mut().expect("k >= 1 shards");
    if rest.is_empty() {
        // One shard: the whole run on the calling thread, the caller's
        // observer streaming live.
        let outcome = run_shard(
            0, graph, plan, protocol, cfg, sync, exchange, first, observer,
        );
        return merge(vec![outcome], &[], None, plan.cut_slots());
    }
    // Each shard records its slice of every busy round into its own log;
    // the merge sums them entry-wise and replays the global stream.
    let mut logs: Vec<RoundLog> = Vec::new();
    if observer.is_some() {
        logs.resize_with(k, RoundLog::new);
    }
    let mut log_of = logs.iter_mut();
    let log0 = log_of.next();
    let mut outcomes: Vec<ShardOutcome<P::State>> = Vec::with_capacity(k);
    std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, sc)| {
                let log = log_of.next();
                scope.spawn(move || {
                    let log = log.map(|l| l as &mut dyn RoundObserver);
                    run_shard(i + 1, graph, plan, protocol, cfg, sync, exchange, sc, log)
                })
            })
            .collect();
        // Shard 0 runs on the calling thread; one spawn saved.
        let log0 = log0.map(|l| l as &mut dyn RoundObserver);
        outcomes.push(run_shard(
            0, graph, plan, protocol, cfg, sync, exchange, first, log0,
        ));
        for h in handles {
            outcomes.push(h.join().expect("shard worker died outside a protocol call"));
        }
    });
    merge(outcomes, &logs, observer, plan.cut_slots())
}

/// Stitches per-shard outcomes into one [`SimResult`]: states concatenate
/// in shard (= node) order, per-node energy concatenates, counters sum,
/// and the global round counts come from shard 0 (every shard computed
/// the same values). Shard 0's buffers become the result's, so a
/// one-shard run moves its states and energy out without a copy. When
/// an observer rode along a `k`-shard run, the per-shard logs —
/// recorded in lockstep, one entry per globally busy round — are summed
/// entry-wise and replayed in round order, reproducing the one-shard
/// stream exactly.
fn merge<S>(
    mut outcomes: Vec<ShardOutcome<S>>,
    logs: &[RoundLog],
    observer: Option<&mut dyn RoundObserver>,
    cut_slots: u64,
) -> Result<SimResult<S>, SimError> {
    for o in &mut outcomes {
        if let Some(p) = o.panic.take() {
            std::panic::resume_unwind(p);
        }
    }
    for o in &mut outcomes {
        if let Some(e) = o.error.take() {
            return Err(e);
        }
    }
    if let (Some(obs), Some((head, rest))) = (observer, logs.split_first()) {
        let mut rest: Vec<_> = rest.iter().map(RoundLog::events).collect();
        for ev in head.events() {
            let mut sum = ev.clone();
            for other in &mut rest {
                let other = other.next().expect("shard logs out of lockstep");
                debug_assert_eq!(other.round, sum.round, "shard logs out of lockstep");
                sum.awake += other.awake;
                sum.messages_sent += other.messages_sent;
                sum.messages_delivered += other.messages_delivered;
                sum.messages_dropped += other.messages_dropped;
                sum.collisions += other.collisions;
                sum.bits_sent += other.bits_sent;
            }
            obs.on_round(&sum);
        }
    }
    let k = outcomes.len();
    let mut shards = outcomes.into_iter();
    let ShardOutcome {
        mut states,
        mut metrics,
        mut stats,
        ..
    } = shards.next().expect("k >= 1 outcomes");
    stats.shards = k as u64;
    stats.cut_slots = cut_slots;
    for o in shards {
        debug_assert_eq!(metrics.busy_rounds, o.metrics.busy_rounds);
        debug_assert_eq!(metrics.elapsed_rounds, o.metrics.elapsed_rounds);
        metrics.messages_sent += o.metrics.messages_sent;
        metrics.messages_delivered += o.metrics.messages_delivered;
        metrics.messages_dropped += o.metrics.messages_dropped;
        metrics.collisions += o.metrics.collisions;
        metrics.bits_sent += o.metrics.bits_sent;
        metrics.bandwidth_violations += o.metrics.bandwidth_violations;
        metrics.max_message_bits = metrics.max_message_bits.max(o.metrics.max_message_bits);
        metrics.probes.absorb(&o.metrics.probes);
        metrics
            .awake_rounds
            .extend_from_slice(&o.metrics.awake_rounds);
        stats.cut_messages += o.stats.cut_messages;
        stats.mailbox_posts += o.stats.mailbox_posts;
        stats.exchange_skipped_pairs += o.stats.exchange_skipped_pairs;
        // Every shard observes the same posted-flag snapshots, so the
        // local-only count is global, not per-shard: keep shard 0's.
        debug_assert_eq!(stats.local_only_rounds, o.stats.local_only_rounds);
        stats.peak_bucket = stats.peak_bucket.max(o.stats.peak_bucket);
        states.extend(o.states);
    }
    metrics.n = metrics.awake_rounds.len();
    debug_assert_eq!(states.len(), metrics.n);
    Ok(SimResult {
        states,
        metrics,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Inbox, InitApi, RecvApi, SendApi};
    use crate::NodeId;
    use mis_graphs::generators;
    use rand::Rng;

    /// Chatty protocol exercising every delivery path: broadcasts, rank
    /// sends, sleeping receivers, halts, and RNG draws.
    struct Gossip {
        rounds: u64,
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct GossipState {
        sum: u64,
        draws: u64,
        heard: u32,
    }

    impl Protocol for Gossip {
        type State = GossipState;
        type Msg = u32;

        fn init(&self, node: NodeId, api: &mut InitApi<'_>) -> GossipState {
            // Nodes stagger their wakeups so some messages hit sleepers.
            let offset = u64::from(node % 3);
            api.wake_range(offset..self.rounds + offset);
            GossipState {
                sum: api.rng().gen::<u32>() as u64,
                draws: 0,
                heard: 0,
            }
        }

        fn send(&self, state: &mut GossipState, api: &mut SendApi<'_, u32>) {
            let r = api.round();
            if r % 2 == 0 {
                api.broadcast((state.sum & 0xffff) as u32);
            } else if api.degree() > 0 {
                let rank = (state.sum as usize) % api.degree();
                api.send_to_rank(rank, api.node());
            }
        }

        fn recv(&self, state: &mut GossipState, inbox: Inbox<'_, u32>, api: &mut RecvApi<'_>) {
            for (src, v) in inbox {
                state.sum = state
                    .sum
                    .wrapping_mul(31)
                    .wrapping_add(u64::from(src) ^ u64::from(*v));
                state.heard += 1;
            }
            state.draws = state.draws.wrapping_add(api.rng().gen::<u64>());
            if api.round() + 1 >= self.rounds && state.heard > 0 {
                api.halt();
            }
        }
    }

    fn graphs() -> Vec<(&'static str, Graph)> {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut r = SmallRng::seed_from_u64(5);
        vec![
            ("path", generators::path(97)),
            ("star", generators::star(64)),
            ("gnp", generators::gnp(256, 8.0 / 256.0, &mut r)),
            ("grid", generators::grid2d(12, 11)),
            ("edgeless", generators::empty(30)),
            ("singleton", generators::empty(1)),
            ("nil", generators::empty(0)),
        ]
    }

    #[test]
    fn parallel_matches_sequential_at_every_thread_count() {
        for (name, g) in graphs() {
            let cfg = SimConfig::seeded(11);
            let seq = run(&g, &Gossip { rounds: 12 }, &cfg).unwrap();
            for threads in [1, 2, 3, 4, 8] {
                let par = run(&g, &Gossip { rounds: 12 }, &cfg.with_threads(threads)).unwrap();
                assert_eq!(par.metrics, seq.metrics, "{name} @ {threads} threads");
                assert_eq!(par.states, seq.states, "{name} @ {threads} threads");
            }
        }
    }

    /// The bit-identical contract extends to every channel model: the
    /// fault decisions are pure in `(seed, salt, round, edge)` /
    /// `(node, round)`, so faulty runs agree across engines and thread
    /// counts exactly like ideal ones.
    #[test]
    fn channel_models_match_sequential_at_every_thread_count() {
        use crate::channel::{AdversarySchedule, ChannelModel, SleepWindow};
        let channels = [
            ChannelModel::Loss { p: 0.2 },
            ChannelModel::RadioCollision,
            ChannelModel::Adversary(AdversarySchedule {
                crashes: vec![(3, 4), (10, 2)],
                sleeps: vec![SleepWindow {
                    nodes: vec![0, 5, 17],
                    from: 1,
                    to: 6,
                }],
            }),
        ];
        for (name, g) in graphs() {
            for ch in &channels {
                let cfg = SimConfig::seeded(11).with_channel(ch.clone());
                let mut seq_log = crate::RoundLog::new();
                let seq = run_observed(&g, &Gossip { rounds: 12 }, &cfg, &mut seq_log).unwrap();
                for threads in [1, 2, 3, 4, 8] {
                    let mut par_log = crate::RoundLog::new();
                    let par = run_observed(
                        &g,
                        &Gossip { rounds: 12 },
                        &cfg.with_threads(threads),
                        &mut par_log,
                    )
                    .unwrap();
                    assert_eq!(
                        par.metrics, seq.metrics,
                        "{name} {ch:?} @ {threads} threads"
                    );
                    assert_eq!(par.states, seq.states, "{name} {ch:?} @ {threads} threads");
                    assert_eq!(
                        par_log, seq_log,
                        "{name} {ch:?} @ {threads} threads: events"
                    );
                }
            }
        }
    }

    /// The cross-engine observation contract: the merged parallel event
    /// stream is identical to the sequential one at every thread count.
    #[test]
    fn observed_events_identical_across_thread_counts() {
        for (name, g) in graphs() {
            let cfg = SimConfig::seeded(11);
            let mut seq_log = crate::RoundLog::new();
            let seq = run_observed(&g, &Gossip { rounds: 12 }, &cfg, &mut seq_log).unwrap();
            for threads in [1, 2, 4] {
                let mut par_log = crate::RoundLog::new();
                let par = run_observed(
                    &g,
                    &Gossip { rounds: 12 },
                    &cfg.with_threads(threads),
                    &mut par_log,
                )
                .unwrap();
                assert_eq!(par.metrics, seq.metrics, "{name} @ {threads} threads");
                assert_eq!(par_log, seq_log, "{name} @ {threads} threads: event stream");
            }
        }
    }

    /// At one shard (`threads` 0 or 1) the observer streams live: when a
    /// node runs its receive half in the r-th busy round (1-based), the
    /// observer has already seen the r − 1 rounds before it. At `k >= 2`
    /// the merged stream is replayed on completion instead, so nothing
    /// is seen mid-run, and the full stream arrives at the end.
    #[test]
    fn one_shard_observer_streams_live() {
        use std::sync::atomic::{AtomicU64, Ordering};
        struct Seen<'a>(&'a AtomicU64);
        impl crate::RoundObserver for Seen<'_> {
            fn on_round(&mut self, _event: &crate::RoundEvent) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        /// Every node awake in rounds 0..5; each receive half records
        /// how many events the observer had seen at that moment.
        struct Probe<'a>(&'a AtomicU64);
        impl Protocol for Probe<'_> {
            type State = Vec<u64>;
            type Msg = ();
            fn init(&self, _node: NodeId, api: &mut InitApi<'_>) -> Vec<u64> {
                api.wake_range(0..5);
                Vec::new()
            }
            fn send(&self, _s: &mut Vec<u64>, api: &mut SendApi<'_, ()>) {
                api.broadcast(());
            }
            fn recv(&self, s: &mut Vec<u64>, _i: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {
                s.push(self.0.load(Ordering::Relaxed));
            }
        }
        let g = generators::grid2d(6, 6);
        for threads in [0, 1, 2] {
            let seen = AtomicU64::new(0);
            let cfg = SimConfig::seeded(1).with_threads(threads);
            let res = run_observed(&g, &Probe(&seen), &cfg, &mut Seen(&seen)).unwrap();
            let live: Vec<u64> = (0..5).collect();
            for (v, at) in res.states.iter().enumerate() {
                if threads <= 1 {
                    // Busy round r (1-based) sees r - 1 earlier events.
                    assert_eq!(at, &live, "threads {threads}, node {v}");
                } else {
                    assert_eq!(at, &[0; 5], "threads {threads}, node {v}: replayed");
                }
            }
            assert_eq!(seen.load(Ordering::Relaxed), 5, "threads {threads}");
        }
    }

    /// Probes (inside `Metrics`) are thread-invariant — covered by every
    /// `par.metrics == seq.metrics` assertion above — while the
    /// per-configuration `stats` legitimately differ: a one-shard run
    /// reports 1 shard and no cut traffic, a 2-worker run reports 2
    /// shards and nonzero mailbox activity.
    #[test]
    fn engine_stats_report_shards_and_cut_traffic() {
        let g = generators::grid2d(8, 8);
        let cfg = SimConfig::seeded(11);
        let seq = run(&g, &Gossip { rounds: 8 }, &cfg).unwrap();
        assert_eq!(seq.stats.shards, 1);
        assert_eq!(seq.stats.cut_messages, 0);
        assert_eq!(seq.stats.mailbox_posts, 0);
        assert!(seq.metrics.probes.wakeups_scheduled > 0, "probes dead");
        let par = run(&g, &Gossip { rounds: 8 }, &cfg.with_threads(2)).unwrap();
        assert_eq!(par.stats.shards, 2);
        assert!(par.stats.cut_messages > 0, "a split grid has cut edges");
        assert!(par.stats.mailbox_posts > 0);
        assert_eq!(par.metrics.probes, seq.metrics.probes);
    }

    #[test]
    fn run_dispatches_on_threads() {
        let g = generators::cycle(40);
        let seq = run(&g, &Gossip { rounds: 8 }, &SimConfig::seeded(3)).unwrap();
        let par = run(
            &g,
            &Gossip { rounds: 8 },
            &SimConfig::seeded(3).with_threads(4),
        )
        .unwrap();
        assert_eq!(seq.metrics, par.metrics);
        assert_eq!(seq.states, par.states);
        assert_eq!((seq.stats.shards, par.stats.shards), (1, 4));
    }

    #[test]
    fn scratch_reuse_is_deterministic_and_allocation_free() {
        let g = generators::grid2d(10, 10);
        let cfg = SimConfig::seeded(7);
        let baseline = run(&g, &Gossip { rounds: 10 }, &cfg).unwrap();

        let par = cfg.with_threads(4);
        let mut scratch = EngineScratch::new(&g, 4);
        let first = run_with_scratch(&g, &Gossip { rounds: 10 }, &par, &mut scratch).unwrap();
        // One more warmup run: exchange buffers ping-pong capacity with
        // the mailboxes, so the steady state needs a full swap cycle.
        let _ = run_with_scratch(&g, &Gossip { rounds: 10 }, &par, &mut scratch).unwrap();
        let warm = scratch.capacity_signature();
        let third = run_with_scratch(&g, &Gossip { rounds: 10 }, &par, &mut scratch).unwrap();
        assert_eq!(
            warm,
            scratch.capacity_signature(),
            "steady-state allocation"
        );
        for res in [&first, &third] {
            assert_eq!(res.metrics, baseline.metrics);
            assert_eq!(res.states, baseline.states);
        }
    }

    #[test]
    fn scratch_refits_across_graphs_and_thread_counts() {
        let g1 = generators::path(50);
        let g2 = generators::grid2d(8, 8);
        let cfg = SimConfig::seeded(2);
        let mut scratch = EngineScratch::new(&g1, 2);
        let on = |g: &Graph, threads: usize, scratch: &mut EngineScratch<u32>| {
            run_with_scratch(
                g,
                &Gossip { rounds: 6 },
                &cfg.with_threads(threads),
                scratch,
            )
            .unwrap()
        };
        let a = on(&g1, 2, &mut scratch);
        let b = on(&g2, 5, &mut scratch);
        let c = on(&g1, 3, &mut scratch);
        let d = on(&g2, 0, &mut scratch);
        assert_eq!(d.states, b.states);
        assert_eq!(
            a.metrics,
            run(&g1, &Gossip { rounds: 6 }, &cfg).unwrap().metrics
        );
        assert_eq!(
            b.metrics,
            run(&g2, &Gossip { rounds: 6 }, &cfg).unwrap().metrics
        );
        assert_eq!(c.states, a.states);
    }

    #[test]
    fn more_threads_than_nodes() {
        let g = generators::path(3);
        let cfg = SimConfig::seeded(1);
        let seq = run(&g, &Gossip { rounds: 5 }, &cfg).unwrap();
        let par = run(&g, &Gossip { rounds: 5 }, &cfg.with_threads(8)).unwrap();
        assert_eq!(par.metrics, seq.metrics);
        assert_eq!(par.states, seq.states);
    }

    /// Duplicate sends crossing a shard boundary must still be caught —
    /// by the sender-side stamp, since the receiver slot is remote.
    struct CrossDouble;
    impl Protocol for CrossDouble {
        type State = ();
        type Msg = ();
        fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
            api.wake_at(0);
        }
        fn send(&self, _s: &mut (), api: &mut SendApi<'_, ()>) {
            if api.node() == 0 {
                let last = api.degree() - 1;
                api.send_to_rank(last, ());
                api.send_to_rank(last, ());
            }
        }
        fn recv(&self, _s: &mut (), _i: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
    }

    #[test]
    fn cross_shard_duplicate_destination_rejected() {
        // Node 0 of a star talks to the highest leaf, which lands in the
        // last shard when split; every thread count must reject it.
        let g = generators::star(32);
        for threads in [1, 2, 4] {
            let cfg = SimConfig::default().with_threads(threads);
            let err = run(&g, &CrossDouble, &cfg).unwrap_err();
            assert!(
                matches!(err, SimError::DuplicateDestination { src: 0, .. }),
                "threads {threads}: {err:?}"
            );
        }
    }

    #[test]
    fn max_rounds_enforced_in_parallel() {
        struct Forever;
        impl Protocol for Forever {
            type State = ();
            type Msg = ();
            fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
                api.wake_at(0);
            }
            fn send(&self, _s: &mut (), _api: &mut SendApi<'_, ()>) {}
            fn recv(&self, _s: &mut (), _i: Inbox<'_, ()>, api: &mut RecvApi<'_>) {
                let next = api.round() + 1;
                api.wake_at(next);
            }
        }
        let g = generators::path(6);
        let cfg = SimConfig {
            max_rounds: 50,
            ..SimConfig::default()
        };
        for threads in [1, 3] {
            assert_eq!(
                run(&g, &Forever, &cfg.with_threads(threads)).unwrap_err(),
                SimError::ExceededMaxRounds { max_rounds: 50 }
            );
        }
    }

    /// `u64::MAX` is a legal round, not a sentinel: a protocol that
    /// schedules it must get the same `ExceededMaxRounds` from both
    /// engines, not a silent `Ok` from the parallel one.
    #[test]
    fn round_u64_max_is_not_treated_as_drained() {
        struct FarSleeper;
        impl Protocol for FarSleeper {
            type State = ();
            type Msg = ();
            fn init(&self, node: NodeId, api: &mut InitApi<'_>) {
                if node == 0 {
                    api.wake_at(u64::MAX);
                }
            }
            fn send(&self, _s: &mut (), _api: &mut SendApi<'_, ()>) {}
            fn recv(&self, _s: &mut (), _i: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
        }
        let g = generators::path(4);
        let cfg = SimConfig::default();
        let seq = run(&g, &FarSleeper, &cfg).unwrap_err();
        for threads in [1, 2] {
            assert_eq!(
                run(&g, &FarSleeper, &cfg.with_threads(threads)).unwrap_err(),
                seq,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn protocol_panic_propagates_without_hanging() {
        struct Bomb;
        impl Protocol for Bomb {
            type State = ();
            type Msg = ();
            fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
                api.wake_at(0);
            }
            fn send(&self, _s: &mut (), api: &mut SendApi<'_, ()>) {
                assert!(api.node() != 3, "boom at node 3");
            }
            fn recv(&self, _s: &mut (), _i: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
        }
        let g = generators::path(10);
        for threads in [0, 1, 2, 4] {
            let res = std::panic::catch_unwind(|| {
                let _ = run(&g, &Bomb, &SimConfig::default().with_threads(threads));
            });
            assert!(res.is_err(), "threads {threads}: panic swallowed");
        }
    }

    /// An error after real traffic must leave reused scratch clean.
    #[test]
    fn scratch_survives_an_aborted_run() {
        struct FailLate;
        impl Protocol for FailLate {
            type State = ();
            type Msg = u32;
            fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
                api.wake_range(0..4);
            }
            fn send(&self, _s: &mut (), api: &mut SendApi<'_, u32>) {
                api.broadcast(1);
                if api.round() == 2 && api.node() == 0 {
                    let last = api.degree() - 1;
                    api.send_to_rank(last, 9); // duplicate of the broadcast
                }
            }
            fn recv(&self, _s: &mut (), _i: Inbox<'_, u32>, _api: &mut RecvApi<'_>) {}
        }
        let g = generators::cycle(24);
        let cfg = SimConfig::default();
        let par_cfg = cfg.with_threads(3);
        let mut scratch = EngineScratch::new(&g, 3);
        let err = run_with_scratch(&g, &FailLate, &par_cfg, &mut scratch).unwrap_err();
        assert!(matches!(err, SimError::DuplicateDestination { .. }));
        // A good protocol on the same scratch still matches one shard.
        let seq = run(&g, &Gossip { rounds: 7 }, &cfg).unwrap();
        let par = run_with_scratch(&g, &Gossip { rounds: 7 }, &par_cfg, &mut scratch).unwrap();
        assert_eq!(par.metrics, seq.metrics);
        assert_eq!(par.states, seq.states);
    }

    /// Bandwidth accounting (lax and strict) is engine-independent.
    #[test]
    fn bandwidth_modes_match_sequential() {
        struct Big;
        impl Protocol for Big {
            type State = ();
            type Msg = u64;
            fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
                api.wake_at(0);
            }
            fn send(&self, _s: &mut (), api: &mut SendApi<'_, u64>) {
                api.broadcast(u64::MAX);
            }
            fn recv(&self, _s: &mut (), _i: Inbox<'_, u64>, _api: &mut RecvApi<'_>) {}
        }
        let g = generators::cycle(20);
        let lax = SimConfig {
            bandwidth_bits: Some(32),
            ..SimConfig::default()
        };
        let seq = run(&g, &Big, &lax).unwrap();
        let par = run(&g, &Big, &lax.with_threads(4)).unwrap();
        assert_eq!(seq.metrics, par.metrics);
        assert_eq!(seq.metrics.bandwidth_violations, 40);

        let strict = SimConfig {
            bandwidth_bits: Some(32),
            strict_bandwidth: true,
            ..SimConfig::default()
        };
        assert!(matches!(
            run(&g, &Big, &strict.with_threads(2)).unwrap_err(),
            SimError::BandwidthExceeded { .. }
        ));
    }
}
