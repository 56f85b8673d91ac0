//! The protocol-facing half of the engine: the [`Protocol`] trait, the
//! per-callback APIs, the [`Inbox`] view, and [`SimConfig`].
//!
//! # Hot-loop architecture
//!
//! The round loop (in `par::shard`) is built around two data structures
//! chosen so that the steady-state loop performs **no sorting, no
//! searching, and no heap allocation**:
//!
//! * a bucketed calendar queue ([`crate::sched`]) replaces an ordered
//!   map as the wakeup queue — popping the next busy round is an O(1)
//!   amortized bitmap scan, and duplicate wakeups are filtered with a
//!   per-round stamp instead of `sort + dedup`;
//! * messages are delivered into **per-directed-edge inbox slots**
//!   (indexed by [`mis_graphs::EdgeId`]) instead of a global outbox —
//!   a send addressed by neighbor rank is an O(1) write through the
//!   precomputed reverse-edge table, duplicate-destination detection is
//!   an O(1) stamp compare, and a receiver reads its slot range already
//!   in ascending sender order.
//!
//! Delivery is **zero-copy end to end**: a payload is written exactly
//! once (by the send that claims its edge slot, or by the receiving
//! shard's apply step for a cut edge) and never moved again —
//! [`Protocol::recv`] receives a borrowed [`Inbox`] view that iterates
//! `(sender, &msg)` straight out of the slot range, stamp-filtered, with
//! no per-round re-materialization of inbox buffers. Per-node hot flags
//! (awake / halted) are packed into `u64` bitset words
//! ([`crate::bits::NodeBits`]), and CONGEST message/bit accounting is
//! tallied locally per node and committed to the [`Metrics`] once per
//! send half, not once per message.
//!
//! All reusable buffers live in an [`crate::EngineScratch`], allocated
//! once per run (or once across many runs via [`crate::run_with_scratch`]).

use crate::bits::NodeBits;
use crate::channel::{ChannelModel, FaultPlan};
use crate::error::SimError;
use crate::message::Message;
use crate::metrics::Metrics;
use crate::{NodeId, Round};
use mis_graphs::{EdgeId, Graph};
use rand::rngs::SmallRng;

/// A distributed protocol in the sleeping CONGEST model.
///
/// The engine drives each awake node through a *send* half and a *receive*
/// half per round, mirroring one synchronous CONGEST round: messages sent
/// at the start of a round are delivered by its end. Sleeping nodes are
/// never called.
///
/// Implementations hold the protocol *parameters* (and any read-only input
/// from earlier phases); all per-node mutable data lives in
/// [`Protocol::State`].
pub trait Protocol {
    /// Per-node mutable state.
    type State;
    /// Message payload type.
    type Msg: Message;

    /// Called once per node before round 0. This models the paper's free
    /// local pre-computation ("each node can find its round r_v before the
    /// algorithm even starts"): it costs no energy. Wakeups requested here
    /// determine when the node first participates; a node that requests
    /// nothing sleeps through the whole run.
    fn init(&self, node: NodeId, api: &mut InitApi<'_>) -> Self::State;

    /// Send half of an awake round: inspect state, optionally transmit.
    fn send(&self, state: &mut Self::State, api: &mut SendApi<'_, Self::Msg>);

    /// Receive half of an awake round: `inbox` is a borrowed view over
    /// the messages sent to this node in this round by awake neighbors,
    /// iterated in ascending sender order directly from the delivery
    /// slots (no payload is copied). Future wakeups and halting are
    /// requested here.
    fn recv(&self, state: &mut Self::State, inbox: Inbox<'_, Self::Msg>, api: &mut RecvApi<'_>);
}

/// Borrowed view of one node's inbox for the current round.
///
/// The engine hands this to [`Protocol::recv`] instead of a materialized
/// `&[(NodeId, Msg)]` slice: iteration walks the node's contiguous
/// in-edge slot range, yields `(sender, &msg)` for every slot stamped
/// this round, and skips the rest — ascending sender order falls out of
/// the CSR slot layout for free. The payload stays in its delivery slot;
/// after the send wrote it, it is never moved or cloned again.
///
/// The view is `Copy`, so it can be passed around freely inside `recv`.
/// [`Inbox::count`] and [`Inbox::is_empty`] scan the slot range (cost
/// `O(degree)`, like one iteration); protocols that need the count *and*
/// the items should iterate once instead of calling both.
pub struct Inbox<'a, M> {
    /// The receiver's in-edge slots, `slots[k]` paired with `senders[k]`.
    slots: &'a [EdgeSlot<M>],
    /// The receiver's sorted neighbor list (slot `k` ⇔ `senders[k]`).
    senders: &'a [NodeId],
    /// Slots carrying this stamp hold a message delivered this round.
    stamp: u64,
}

impl<M> Clone for Inbox<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Inbox<'_, M> {}

impl<M: std::fmt::Debug> std::fmt::Debug for Inbox<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a, M> Inbox<'a, M> {
    /// Assembles a view over one node's slot range (engine internal).
    pub(crate) fn new(slots: &'a [EdgeSlot<M>], senders: &'a [NodeId], stamp: u64) -> Inbox<'a, M> {
        debug_assert_eq!(slots.len(), senders.len());
        Inbox {
            slots,
            senders,
            stamp,
        }
    }

    /// Iterates `(sender, &msg)` in ascending sender order.
    pub fn iter(&self) -> InboxIter<'a, M> {
        InboxIter {
            inner: self.slots.iter().zip(self.senders.iter()),
            stamp: self.stamp,
        }
    }

    /// Whether no message arrived this round (`O(degree)` scan, stopping
    /// at the first hit).
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// Number of messages delivered this round (`O(degree)` scan).
    pub fn count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.stamp == self.stamp && s.msg.is_some())
            .count()
    }

    /// The first (lowest-sender) message, if any.
    pub fn first(&self) -> Option<(NodeId, &'a M)> {
        self.iter().next()
    }
}

impl<'a, M> IntoIterator for Inbox<'a, M> {
    type Item = (NodeId, &'a M);
    type IntoIter = InboxIter<'a, M>;
    fn into_iter(self) -> InboxIter<'a, M> {
        self.iter()
    }
}

impl<'a, M> IntoIterator for &Inbox<'a, M> {
    type Item = (NodeId, &'a M);
    type IntoIter = InboxIter<'a, M>;
    fn into_iter(self) -> InboxIter<'a, M> {
        self.iter()
    }
}

/// Iterator over an [`Inbox`]: filters the slot range by the round stamp.
#[derive(Debug)]
pub struct InboxIter<'a, M> {
    inner: std::iter::Zip<std::slice::Iter<'a, EdgeSlot<M>>, std::slice::Iter<'a, NodeId>>,
    stamp: u64,
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = (NodeId, &'a M);

    fn next(&mut self) -> Option<(NodeId, &'a M)> {
        for (slot, &src) in self.inner.by_ref() {
            if slot.stamp == self.stamp {
                // A stamped slot without a payload was claimed but never
                // delivered: the receiver slept at send time, or the
                // channel destroyed it (loss drop, collision wipe).
                if let Some(msg) = slot.msg.as_ref() {
                    return Some((src, msg));
                }
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, self.inner.size_hint().1)
    }
}

/// Configuration of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Master seed; combined with `salt` and the node id for per-node RNGs.
    pub seed: u64,
    /// Phase salt, so consecutive phases draw independent randomness.
    pub salt: u64,
    /// Abort threshold for runaway protocols.
    pub max_rounds: u64,
    /// Optional bandwidth limit in bits per message. `Some(b)` with
    /// [`SimConfig::strict_bandwidth`] returns an error on violation;
    /// otherwise violations are only counted.
    pub bandwidth_bits: Option<usize>,
    /// Whether a bandwidth violation aborts the run.
    pub strict_bandwidth: bool,
    /// Worker shards of the round loop. `0` (the default) and `1` both
    /// run one shard on the calling thread; `k >= 2` splits the graph
    /// into `k` shards, one worker thread each. Results are bit-identical
    /// for every value — see [`crate::par`].
    pub threads: usize,
    /// The channel model faults are drawn from ([`ChannelModel::Ideal`]
    /// by default — the clean network, zero-cost). Fault decisions are
    /// pure in `(seed, salt, round, edge_id)`, so every channel keeps
    /// the bit-identical cross-engine contract; see [`crate::channel`].
    pub channel: ChannelModel,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            seed: 0,
            salt: 0,
            max_rounds: 50_000_000,
            bandwidth_bits: None,
            strict_bandwidth: false,
            threads: 0,
            channel: ChannelModel::Ideal,
        }
    }
}

impl SimConfig {
    /// Config with the given seed and defaults elsewhere.
    pub fn seeded(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            ..SimConfig::default()
        }
    }

    /// Returns a copy with the given phase salt.
    #[must_use]
    pub fn with_salt(&self, salt: u64) -> SimConfig {
        SimConfig {
            salt,
            ..self.clone()
        }
    }

    /// Returns a copy with the given worker count (`0` and `1` = one
    /// shard on the calling thread). Results are bit-identical for every
    /// value.
    #[must_use]
    pub fn with_threads(&self, threads: usize) -> SimConfig {
        SimConfig {
            threads,
            ..self.clone()
        }
    }

    /// Returns a copy running under the given [`ChannelModel`].
    #[must_use]
    pub fn with_channel(&self, channel: ChannelModel) -> SimConfig {
        SimConfig {
            channel,
            ..self.clone()
        }
    }

    /// Checks the configuration before a run: every run entry point
    /// calls this, so an invalid config is rejected with a descriptive error
    /// instead of producing a degenerate simulation.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidInput`] when `bandwidth_bits` is `Some(0)` (no
    /// message can ever fit; use `None` for "unlimited") or when the
    /// channel model's parameters are out of range
    /// ([`ChannelModel::validate`]).
    pub fn validate(&self) -> Result<(), SimError> {
        if self.bandwidth_bits == Some(0) {
            return Err(SimError::invalid_input(
                "\"bandwidth_bits=0\" admits no message; use None for unlimited",
            ));
        }
        self.channel.validate()
    }

    /// Parses the conventional `--threads N` / `--threads=N` flag from
    /// this process's arguments (the value for [`SimConfig::threads`]):
    /// `0` and `1` run one shard on the calling thread, `N >= 2` run `N`
    /// worker shards; `default` when the flag is absent. One
    /// shared parser so every example and binary exposes identical
    /// semantics.
    ///
    /// # Panics
    ///
    /// Panics if the flag is present without a parseable value.
    pub fn threads_from_args(default: usize) -> usize {
        let args: Vec<String> = std::env::args().collect();
        SimConfig::threads_from(&args, default)
    }

    /// [`SimConfig::threads_from_args`] over an explicit argument slice
    /// (what the process-arg variant and the `experiments` binary share).
    /// Accepts both the space-separated (`--threads 4`) and the equals
    /// (`--threads=4`) form.
    ///
    /// # Panics
    ///
    /// Panics if the flag is present without a parseable value.
    pub fn threads_from(args: &[String], default: usize) -> usize {
        for (i, a) in args.iter().enumerate() {
            if a == "--threads" {
                return args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .expect("--threads requires an integer value");
            }
            if let Some(v) = a.strip_prefix("--threads=") {
                return v.parse().expect("--threads requires an integer value");
            }
        }
        default
    }

    /// The standard CONGEST bandwidth for an `n`-node graph:
    /// `c * ceil(log2 n)` bits (at least 32).
    pub fn congest_bandwidth(n: usize, c: usize) -> usize {
        let logn = (n.max(2) as f64).log2().ceil() as usize;
        (c * logn).max(32)
    }
}

/// Outcome of a run: final per-node states plus metrics.
#[derive(Debug)]
pub struct SimResult<S> {
    /// Final state of every node, indexed by node id.
    pub states: Vec<S>,
    /// Time/energy/message accounting for the run. Bit-identical across
    /// thread counts (including the embedded [`Metrics::probes`]).
    pub metrics: Metrics,
    /// Per-engine-configuration statistics (shard count, cut-edge
    /// traffic, scheduler peaks): deterministic for a fixed
    /// [`SimConfig::threads`] but *not* invariant across thread counts,
    /// so they are carried outside [`Metrics`] and excluded from
    /// cross-engine fingerprints.
    pub stats: crate::telemetry::EngineStats,
}

/// API available during [`Protocol::init`].
#[derive(Debug)]
pub struct InitApi<'a> {
    node: NodeId,
    graph: &'a Graph,
    rng: &'a mut SmallRng,
    wakes: &'a mut Vec<Round>,
}

impl<'a> InitApi<'a> {
    /// Assembles an init API (engine internal).
    pub(crate) fn new(
        node: NodeId,
        graph: &'a Graph,
        rng: &'a mut SmallRng,
        wakes: &'a mut Vec<Round>,
    ) -> InitApi<'a> {
        InitApi {
            node,
            graph,
            rng,
            wakes,
        }
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of nodes in the graph.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// This node's degree.
    pub fn degree(&self) -> usize {
        self.graph.degree(self.node)
    }

    /// This node's sorted neighbor list.
    pub fn neighbors(&self) -> &[NodeId] {
        self.graph.neighbors(self.node)
    }

    /// The rank of `u` in this node's neighbor list, if adjacent. Useful
    /// to precompute a rank once here and use the O(1)
    /// [`SendApi::send_to_rank`] fast path in every later round.
    pub fn neighbor_rank(&self, u: NodeId) -> Option<usize> {
        self.graph.neighbor_rank(self.node, u)
    }

    /// The node's deterministic RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Schedules this node to be awake in `round`.
    pub fn wake_at(&mut self, round: Round) {
        self.wakes.push(round);
    }

    /// Schedules this node to be awake in every round of `rounds`.
    ///
    /// Debug builds reject an empty range: a protocol asking for zero
    /// awake rounds is almost always a bug silently disabling the node.
    pub fn wake_range(&mut self, rounds: std::ops::Range<Round>) {
        debug_assert!(
            rounds.start < rounds.end,
            "node {} requested empty wake_range {rounds:?} (silent no-op)",
            self.node
        );
        if rounds.start >= rounds.end {
            return;
        }
        self.wakes.reserve((rounds.end - rounds.start) as usize);
        for r in rounds {
            self.wakes.push(r);
        }
    }
}

/// One per-directed-edge delivery slot: the payload and the round stamp
/// claiming it. Kept in a single struct so the send fast path touches one
/// cache location per destination.
#[derive(Debug)]
pub(crate) struct EdgeSlot<M> {
    /// Matches the engine tick of the round the slot was last written.
    pub(crate) stamp: u64,
    /// The in-flight message, taken by the receiver.
    pub(crate) msg: Option<M>,
}

impl<M> EdgeSlot<M> {
    pub(crate) fn vacant() -> EdgeSlot<M> {
        EdgeSlot {
            stamp: 0,
            msg: None,
        }
    }
}

/// Where a send's payload lands: one shard's delivery backend behind a
/// [`SendApi`]. A shard owns its contiguous slot range; payloads for its
/// own nodes go straight into those slots, payloads crossing a cut edge
/// are staged per destination shard for the exchange step. With one
/// shard every receiver is local, so no send ever stages.
#[derive(Debug)]
pub(crate) struct ShardSink<'a, M> {
    /// Delivery slots of this shard's slot range only; index
    /// `global EdgeId - slot_base`. A receiver-side slot id falls inside
    /// this range iff the receiver is one of this shard's nodes, so the
    /// bounds test doubles as the local/cross test.
    pub(crate) slots: &'a mut [EdgeSlot<M>],
    /// Duplicate-destination stamps over this shard's *outgoing* slots
    /// (same index space as `slots`), consulted by cross-shard sends
    /// only: the receiver-side stamp cannot be used there because the
    /// receiver lives on another shard. Empty when the shard has no cut
    /// edges.
    pub(crate) out_stamp: &'a mut [u64],
    /// Awake bits of this shard's nodes; bit `NodeId - node_base`.
    pub(crate) awake: &'a NodeBits,
    /// First node owned by this shard.
    pub(crate) node_base: NodeId,
    /// First slot owned by this shard.
    pub(crate) slot_base: EdgeId,
    /// Slot boundaries of all shards (`k + 1` entries), for O(log k)
    /// destination-shard classification of cross-shard payloads.
    pub(crate) slot_starts: &'a [EdgeId],
    /// Destination shard → staging-buffer index (`k` entries,
    /// [`crate::par::partition::NO_PAIR`] where this shard shares no cut
    /// edges with the destination — unreachable from a real send, since
    /// a cross-shard payload *is* a cut edge).
    pub(crate) pair_local: &'a [u32],
    /// Cross-shard staging buffers, one per *cut* destination pair
    /// (indexed through `pair_local`); entry `(rid, dst, msg)` is the
    /// receiver-side slot (and its owning node) the destination shard
    /// writes on this shard's behalf during the exchange step.
    pub(crate) out: &'a mut [Vec<crate::par::exchange::Staged<M>>],
}

/// Resolved placement of one payload; computed by [`SendApi::claim`].
enum Place {
    /// Store in the sink's slot slice at this (sink-local) index.
    Slot(usize),
    /// Stage for the exchange step: `(staging-buffer index, receiver
    /// slot, destination node)` — the buffer index is the sender
    /// shard's *local cut-pair* rank of the destination shard, not the
    /// shard id; the destination rides along so the receiving shard's
    /// apply loop needs no graph lookups.
    Stage(usize, EdgeId, NodeId),
    /// Receiver is asleep: the payload is dropped (but still counted).
    Lost,
    /// The channel destroyed the delivery (receiver awake, payload
    /// never arrives); tallied as `messages_dropped`.
    Dropped,
}

/// Per-node, per-round CONGEST accounting, tallied locally during one
/// node's send half and committed to the [`Metrics`] in one batch after
/// the protocol returns ([`Metrics::commit_send`]) — the round loop never
/// updates global counters per message.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SendTally {
    /// Messages sent (including those lost to sleeping receivers).
    pub(crate) sent: u64,
    /// Messages stored for an awake receiver on this sink. Cross-shard
    /// stages are *not* counted here; the owning shard counts them when
    /// it applies the exchange (it alone knows the receiver's state).
    pub(crate) delivered: u64,
    /// Bits across all sent messages.
    pub(crate) bits: u64,
    /// Largest single message, in bits.
    pub(crate) max_bits: usize,
    /// Messages exceeding the (non-strict) bandwidth limit.
    pub(crate) violations: u64,
    /// Messages the channel destroyed en route to an awake receiver
    /// (loss drops decided at claim time). Collision wipes are tallied
    /// at the receiver pass, not here.
    pub(crate) dropped: u64,
}

/// API available during [`Protocol::send`].
#[derive(Debug)]
pub struct SendApi<'a, M: Message> {
    node: NodeId,
    round: Round,
    graph: &'a Graph,
    rng: &'a mut SmallRng,
    /// Stamp of the current round; a slot with this stamp already holds a
    /// message sent this round.
    tick: u64,
    sink: ShardSink<'a, M>,
    /// Every node is awake this round: skip the per-message receiver
    /// check entirely (the dense-workload fast path).
    all_awake: bool,
    /// The run's channel fault plan; `Ideal` on the clean network.
    faults: FaultPlan<'a>,
    /// Local accounting, committed once when the send half ends.
    tally: SendTally,
    bandwidth_bits: Option<usize>,
    strict_bandwidth: bool,
    /// First CONGEST violation observed during this node's send half;
    /// checked by the engine after the protocol returns.
    error: &'a mut Option<SimError>,
}

impl<'a, M: Message> SendApi<'a, M> {
    /// Assembles a send API over the given shard's delivery sink
    /// (engine internal; the round loop constructs one per awake node
    /// per round).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        node: NodeId,
        round: Round,
        graph: &'a Graph,
        rng: &'a mut SmallRng,
        tick: u64,
        sink: ShardSink<'a, M>,
        all_awake: bool,
        faults: FaultPlan<'a>,
        cfg: &SimConfig,
        error: &'a mut Option<SimError>,
    ) -> SendApi<'a, M> {
        SendApi {
            node,
            round,
            graph,
            rng,
            tick,
            sink,
            all_awake,
            faults,
            tally: SendTally::default(),
            bandwidth_bits: cfg.bandwidth_bits,
            strict_bandwidth: cfg.strict_bandwidth,
            error,
        }
    }

    /// Consumes the API, returning this node's batched round accounting
    /// (engine internal; committed via [`Metrics::commit_send`]).
    pub(crate) fn into_tally(self) -> SendTally {
        self.tally
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The current round.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Number of nodes in the graph.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// This node's degree.
    pub fn degree(&self) -> usize {
        self.graph.degree(self.node)
    }

    /// This node's sorted neighbor list.
    pub fn neighbors(&self) -> &[NodeId] {
        self.graph.neighbors(self.node)
    }

    /// The rank of `u` in this node's neighbor list, if adjacent.
    pub fn neighbor_rank(&self, u: NodeId) -> Option<usize> {
        self.graph.neighbor_rank(self.node, u)
    }

    /// The node's deterministic RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Sends `msg` to the neighbor at position `rank` of this node's
    /// sorted neighbor list (delivered at the end of this round if that
    /// neighbor is awake, silently lost otherwise).
    ///
    /// This is the engine's O(1) fast path: the destination slot is found
    /// through the precomputed reverse-edge table, with no neighbor
    /// search. Protocols that already iterate their adjacency list (or
    /// that precompute a rank via [`InitApi::neighbor_rank`]) should
    /// prefer it over the id-addressed [`SendApi::send`].
    ///
    /// # Panics
    ///
    /// Panics if `rank >= degree()` (debug builds panic with a rank
    /// message; release builds via index bounds).
    pub fn send_to_rank(&mut self, rank: usize, msg: M) {
        if self.error.is_some() {
            return; // a violation already aborts this round
        }
        let eid = self.graph.edge_id(self.node, rank);
        let Some(place) = self.claim(eid) else {
            return; // duplicate destination recorded
        };
        let bits = msg.bits();
        self.tally.sent += 1;
        self.tally.bits += bits as u64;
        self.tally.max_bits = self.tally.max_bits.max(bits);
        if let Some(limit) = self.bandwidth_bits {
            if bits > limit {
                if self.strict_bandwidth {
                    *self.error = Some(SimError::BandwidthExceeded {
                        node: self.node,
                        round: self.round,
                        bits,
                        limit,
                    });
                    return;
                }
                self.tally.violations += 1;
            }
        }
        self.place(place, msg);
    }

    /// Sends `msg` to neighbor `dst` (delivered at the end of this round
    /// if `dst` is awake, silently lost otherwise).
    ///
    /// Id-addressed legacy path: costs a binary search over the neighbor
    /// list to validate adjacency and resolve the rank. Hot protocols
    /// should address by rank ([`SendApi::send_to_rank`]) instead.
    pub fn send(&mut self, dst: NodeId, msg: M) {
        match self.graph.neighbor_rank(self.node, dst) {
            Some(rank) => self.send_to_rank(rank, msg),
            None => {
                if self.error.is_none() {
                    *self.error = Some(SimError::NotANeighbor {
                        src: self.node,
                        dst,
                    });
                }
            }
        }
    }

    /// Sends a copy of `msg` to every neighbor; the last neighbor
    /// receives the original without a clone.
    ///
    /// Every copy has the same size, so the CONGEST bit accounting and
    /// bandwidth check are hoisted out of the per-neighbor loop; each
    /// copy costs one reverse-edge lookup, one stamp compare, and one
    /// slot write.
    pub fn broadcast(&mut self, msg: M) {
        if self.error.is_some() {
            return;
        }
        let range = self.graph.edge_range(self.node);
        let deg = range.len();
        if deg == 0 {
            return;
        }
        let bits = msg.bits();
        self.tally.sent += deg as u64;
        self.tally.bits += (bits * deg) as u64;
        self.tally.max_bits = self.tally.max_bits.max(bits);
        if let Some(limit) = self.bandwidth_bits {
            if bits > limit {
                if self.strict_bandwidth {
                    *self.error = Some(SimError::BandwidthExceeded {
                        node: self.node,
                        round: self.round,
                        bits,
                        limit,
                    });
                    return;
                }
                self.tally.violations += deg as u64;
            }
        }
        let last = range.end - 1;
        for eid in range.start..last {
            match self.claim(eid) {
                Some(Place::Lost) => {} // receiver asleep: skip the clone
                Some(Place::Dropped) => self.tally.dropped += 1, // channel loss: no clone either
                Some(place) => self.place(place, msg.clone()),
                None => return,
            }
        }
        if let Some(place) = self.claim(last) {
            self.place(place, msg); // final copy moves, no clone
        }
    }

    /// Claims the outgoing edge `eid` for this round and resolves where
    /// its payload goes, or returns `None` after recording a
    /// duplicate-destination violation.
    ///
    /// A local receiver's slot is this shard's own memory, so its claim
    /// stamp doubles as the duplicate check (one touch claims and
    /// delivers). A cross-shard send stamps the sender-side `out_stamp`
    /// instead — the receiver slot belongs to another shard, but the
    /// *outgoing* slot always belongs to the sender, so the check stays
    /// lock-free and thread-local.
    #[inline]
    fn claim(&mut self, eid: mis_graphs::EdgeId) -> Option<Place> {
        let rid = self.graph.reverse_edge(eid);
        let s = &mut self.sink;
        let local = rid.wrapping_sub(s.slot_base);
        if let Some(slot) = s.slots.get_mut(local) {
            if slot.stamp == self.tick {
                *self.error = Some(SimError::DuplicateDestination {
                    src: self.node,
                    dst: self.graph.edge_target(eid),
                    round: self.round,
                });
                return None;
            }
            slot.stamp = self.tick;
            let awake = self.all_awake
                || s.awake
                    .get((self.graph.edge_target(eid) - s.node_base) as usize);
            return Some(if !awake {
                Place::Lost
            } else if self.faults.drops(self.round, rid) {
                // Keyed on the *global* receiver-side id, so every shard
                // layout draws the same decision. The slot keeps its
                // claim stamp (duplicate sends to the same receiver are
                // still CONGEST violations) but never gets a payload;
                // zero-copy delivery parks old payloads in slots, so
                // wipe any stale one or the claim stamp would resurrect
                // it for the receiver.
                slot.msg = None;
                Place::Dropped
            } else {
                Place::Slot(local)
            });
        }
        let dst = self.graph.edge_target(eid);
        let out = &mut s.out_stamp[eid - s.slot_base];
        if *out == self.tick {
            *self.error = Some(SimError::DuplicateDestination {
                src: self.node,
                dst,
                round: self.round,
            });
            return None;
        }
        *out = self.tick;
        // Cross-shard: stage for the exchange step; the owning shard
        // performs the awake check on apply.
        let shard = s.slot_starts.partition_point(|&b| b <= rid) - 1;
        let pair = s.pair_local[shard];
        debug_assert_ne!(
            pair,
            crate::par::partition::NO_PAIR,
            "cross payload on a pair the plan saw no cut edges for"
        );
        Some(Place::Stage(pair as usize, rid, dst))
    }

    /// Stores a claimed payload: write the slot (stamping it so the
    /// receiver's [`Inbox`] sees it), stage it for the cross-shard
    /// exchange, or drop it (sleeping receiver). A stored slot *is* the
    /// delivery — the receiver borrows it in place — so `delivered` is
    /// tallied here rather than in the receive half.
    #[inline]
    fn place(&mut self, place: Place, msg: M) {
        match place {
            Place::Slot(i) => {
                let slot = &mut self.sink.slots[i];
                slot.stamp = self.tick;
                slot.msg = Some(msg);
                self.tally.delivered += 1;
            }
            Place::Stage(pair, rid, dst) => self.sink.out[pair].push((rid, dst, msg)),
            Place::Lost => {}
            Place::Dropped => self.tally.dropped += 1,
        }
    }
}

/// API available during [`Protocol::recv`].
#[derive(Debug)]
pub struct RecvApi<'a> {
    node: NodeId,
    round: Round,
    graph: &'a Graph,
    rng: &'a mut SmallRng,
    wakes: &'a mut Vec<Round>,
    halt: &'a mut bool,
}

impl<'a> RecvApi<'a> {
    /// Assembles a receive API (engine internal).
    pub(crate) fn new(
        node: NodeId,
        round: Round,
        graph: &'a Graph,
        rng: &'a mut SmallRng,
        wakes: &'a mut Vec<Round>,
        halt: &'a mut bool,
    ) -> RecvApi<'a> {
        RecvApi {
            node,
            round,
            graph,
            rng,
            wakes,
            halt,
        }
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The current round.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Number of nodes in the graph.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// This node's degree.
    pub fn degree(&self) -> usize {
        self.graph.degree(self.node)
    }

    /// This node's sorted neighbor list.
    pub fn neighbors(&self) -> &[NodeId] {
        self.graph.neighbors(self.node)
    }

    /// The rank of `u` in this node's neighbor list, if adjacent.
    pub fn neighbor_rank(&self, u: NodeId) -> Option<usize> {
        self.graph.neighbor_rank(self.node, u)
    }

    /// The node's deterministic RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Schedules this node to be awake in `round` (must be in the future).
    ///
    /// # Panics
    ///
    /// Panics if `round` is not strictly after the current round.
    pub fn wake_at(&mut self, round: Round) {
        assert!(
            round > self.round,
            "node {} asked to wake at {} during round {}",
            self.node,
            round,
            self.round
        );
        self.wakes.push(round);
    }

    /// Schedules this node to be awake in every round of `rounds` (all in
    /// the future).
    ///
    /// Debug builds reject an empty range: a protocol asking for zero
    /// awake rounds is almost always a bug silently stalling the node.
    pub fn wake_range(&mut self, rounds: std::ops::Range<Round>) {
        debug_assert!(
            rounds.start < rounds.end,
            "node {} requested empty wake_range {rounds:?} (silent no-op)",
            self.node
        );
        if rounds.start >= rounds.end {
            return;
        }
        self.wakes.reserve((rounds.end - rounds.start) as usize);
        for r in rounds {
            self.wake_at(r);
        }
    }

    /// Permanently stops this node: all of its pending and future wakeups
    /// are cancelled and it spends no more energy. Models a node that has
    /// terminated (e.g. it joined the MIS or was removed).
    pub fn halt(&mut self) {
        *self.halt = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, run_observed, run_with_scratch, EngineScratch};
    use mis_graphs::generators;

    /// Flood protocol: node 0 starts "infected" in round 0; infection
    /// spreads one hop per round; infected nodes halt after notifying.
    struct Flood {
        rounds_cap: u64,
    }

    #[derive(Debug, Clone, Default)]
    struct FloodState {
        infected_at: Option<Round>,
        notified: bool,
    }

    impl Protocol for Flood {
        type State = FloodState;
        type Msg = ();

        fn init(&self, node: NodeId, api: &mut InitApi<'_>) -> FloodState {
            // Everyone listens every round (energy-naive baseline style).
            api.wake_range(0..self.rounds_cap);
            FloodState {
                infected_at: (node == 0).then_some(0),
                notified: false,
            }
        }

        fn send(&self, state: &mut FloodState, api: &mut SendApi<'_, ()>) {
            if state.infected_at.is_some() && !state.notified {
                api.broadcast(());
                state.notified = true;
            }
        }

        fn recv(&self, state: &mut FloodState, inbox: Inbox<'_, ()>, api: &mut RecvApi<'_>) {
            if state.infected_at.is_none() && !inbox.is_empty() {
                state.infected_at = Some(api.round() + 1);
            }
            if state.notified {
                api.halt();
            }
        }
    }

    #[test]
    fn flood_reaches_everyone_on_path() {
        let g = generators::path(6);
        let res = run(&g, &Flood { rounds_cap: 10 }, &SimConfig::default()).unwrap();
        for (v, s) in res.states.iter().enumerate() {
            assert_eq!(s.infected_at, Some(v as u64), "node {v}");
        }
        assert!(res.metrics.elapsed_rounds <= 10);
        assert!(res.metrics.messages_sent > 0);
    }

    #[test]
    fn halted_nodes_pay_no_more_energy() {
        let g = generators::path(3);
        let res = run(&g, &Flood { rounds_cap: 50 }, &SimConfig::default()).unwrap();
        // Node 0 halts after round 0 (notify + halt): energy exactly 1.
        assert_eq!(res.metrics.awake_rounds[0], 1);
        // Node 2 hears in round 1, notifies in round 2, halts: 3 awake rounds.
        assert_eq!(res.metrics.awake_rounds[2], 3);
    }

    /// Protocol where nobody wakes: the run ends immediately.
    struct Silent;
    impl Protocol for Silent {
        type State = ();
        type Msg = ();
        fn init(&self, _node: NodeId, _api: &mut InitApi<'_>) {}
        fn send(&self, _state: &mut (), _api: &mut SendApi<'_, ()>) {}
        fn recv(&self, _state: &mut (), _inbox: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
    }

    #[test]
    fn silent_protocol_costs_nothing() {
        let g = generators::cycle(10);
        let res = run(&g, &Silent, &SimConfig::default()).unwrap();
        assert_eq!(res.metrics.elapsed_rounds, 0);
        assert_eq!(res.metrics.max_awake(), 0);
        assert_eq!(res.metrics.messages_sent, 0);
    }

    /// Messages to sleeping neighbors are lost.
    struct LonelySender;
    impl Protocol for LonelySender {
        type State = usize;
        type Msg = ();
        fn init(&self, node: NodeId, api: &mut InitApi<'_>) -> usize {
            if node == 0 {
                api.wake_at(0);
            } else {
                api.wake_at(1); // neighbors awake only in round 1
            }
            0
        }
        fn send(&self, _state: &mut usize, api: &mut SendApi<'_, ()>) {
            if api.node() == 0 && api.round() == 0 {
                api.broadcast(());
            }
        }
        fn recv(&self, state: &mut usize, inbox: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {
            *state += inbox.count();
        }
    }

    #[test]
    fn sleeping_receivers_lose_messages() {
        let g = generators::star(5);
        let res = run(&g, &LonelySender, &SimConfig::default()).unwrap();
        assert_eq!(res.metrics.messages_sent, 4);
        assert_eq!(res.metrics.messages_delivered, 0);
        assert!(res.states[1..].iter().all(|&c| c == 0));
    }

    /// A runaway protocol trips the round limit.
    struct Runaway;
    impl Protocol for Runaway {
        type State = ();
        type Msg = ();
        fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
            api.wake_at(0);
        }
        fn send(&self, _state: &mut (), _api: &mut SendApi<'_, ()>) {}
        fn recv(&self, _state: &mut (), _inbox: Inbox<'_, ()>, api: &mut RecvApi<'_>) {
            let next = api.round() + 1;
            api.wake_at(next);
        }
    }

    #[test]
    fn max_rounds_enforced() {
        let g = generators::path(2);
        let cfg = SimConfig {
            max_rounds: 100,
            ..SimConfig::default()
        };
        assert_eq!(
            run(&g, &Runaway, &cfg).unwrap_err(),
            SimError::ExceededMaxRounds { max_rounds: 100 }
        );
    }

    /// Sending to a non-neighbor is rejected.
    struct BadAddress;
    impl Protocol for BadAddress {
        type State = ();
        type Msg = ();
        fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
            api.wake_at(0);
        }
        fn send(&self, _state: &mut (), api: &mut SendApi<'_, ()>) {
            if api.node() == 0 {
                api.send(3, ()); // not adjacent on a path of 4
            }
        }
        fn recv(&self, _state: &mut (), _inbox: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
    }

    #[test]
    fn non_neighbor_send_rejected() {
        let g = generators::path(4);
        assert_eq!(
            run(&g, &BadAddress, &SimConfig::default()).unwrap_err(),
            SimError::NotANeighbor { src: 0, dst: 3 }
        );
    }

    /// Duplicate destination in one round is rejected.
    struct DoubleSend;
    impl Protocol for DoubleSend {
        type State = ();
        type Msg = ();
        fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
            api.wake_at(0);
        }
        fn send(&self, _state: &mut (), api: &mut SendApi<'_, ()>) {
            if api.node() == 0 {
                api.send(1, ());
                api.send(1, ());
            }
        }
        fn recv(&self, _state: &mut (), _inbox: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
    }

    #[test]
    fn duplicate_destination_rejected() {
        let g = generators::path(2);
        assert!(matches!(
            run(&g, &DoubleSend, &SimConfig::default()).unwrap_err(),
            SimError::DuplicateDestination { src: 0, dst: 1, .. }
        ));
    }

    /// Mixing the rank-addressed fast path with the id-addressed legacy
    /// path still trips the one-message-per-edge check.
    struct MixedDoubleSend;
    impl Protocol for MixedDoubleSend {
        type State = ();
        type Msg = ();
        fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
            api.wake_at(0);
        }
        fn send(&self, _state: &mut (), api: &mut SendApi<'_, ()>) {
            if api.node() == 0 {
                api.send_to_rank(0, ());
                api.send(1, ()); // same neighbor, by id
            }
        }
        fn recv(&self, _state: &mut (), _inbox: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
    }

    #[test]
    fn rank_and_id_sends_share_duplicate_detection() {
        let g = generators::path(2);
        assert!(matches!(
            run(&g, &MixedDoubleSend, &SimConfig::default()).unwrap_err(),
            SimError::DuplicateDestination { src: 0, dst: 1, .. }
        ));
    }

    /// Rank-addressed sends land on the rank-th neighbor, in order.
    struct RankSender;
    impl Protocol for RankSender {
        type State = Vec<(NodeId, u32)>;
        type Msg = u32;
        fn init(&self, _node: NodeId, api: &mut InitApi<'_>) -> Self::State {
            api.wake_at(0);
            Vec::new()
        }
        fn send(&self, _state: &mut Self::State, api: &mut SendApi<'_, u32>) {
            if api.node() == 0 {
                // Send each neighbor its own rank, highest rank first: the
                // receiver order must still come out ascending by sender.
                for rank in (0..api.degree()).rev() {
                    api.send_to_rank(rank, rank as u32);
                }
            }
        }
        fn recv(&self, state: &mut Self::State, inbox: Inbox<'_, u32>, _api: &mut RecvApi<'_>) {
            state.extend(inbox.iter().map(|(src, &v)| (src, v)));
        }
    }

    #[test]
    fn send_to_rank_addresses_sorted_neighbors() {
        let g = generators::star(5); // center 0, leaves 1..=4
        let res = run(&g, &RankSender, &SimConfig::default()).unwrap();
        for leaf in 1..5u32 {
            assert_eq!(res.states[leaf as usize], vec![(0, leaf - 1)]);
        }
    }

    /// Oversized messages: counted, or fatal in strict mode.
    struct BigTalker;
    impl Protocol for BigTalker {
        type State = ();
        type Msg = u64;
        fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
            api.wake_at(0);
        }
        fn send(&self, _state: &mut (), api: &mut SendApi<'_, u64>) {
            if api.node() == 0 {
                api.send(1, u64::MAX); // 64 bits
            }
        }
        fn recv(&self, _state: &mut (), _inbox: Inbox<'_, u64>, _api: &mut RecvApi<'_>) {}
    }

    #[test]
    fn bandwidth_counting_and_strict_modes() {
        let g = generators::path(2);
        let lax = SimConfig {
            bandwidth_bits: Some(32),
            ..SimConfig::default()
        };
        let res = run(&g, &BigTalker, &lax).unwrap();
        assert_eq!(res.metrics.bandwidth_violations, 1);
        assert_eq!(res.metrics.max_message_bits, 64);

        let strict = SimConfig {
            bandwidth_bits: Some(32),
            strict_bandwidth: true,
            ..SimConfig::default()
        };
        assert!(matches!(
            run(&g, &BigTalker, &strict).unwrap_err(),
            SimError::BandwidthExceeded {
                bits: 64,
                limit: 32,
                ..
            }
        ));
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        use rand::Rng;
        struct Sampler;
        impl Protocol for Sampler {
            type State = u64;
            type Msg = ();
            fn init(&self, _node: NodeId, api: &mut InitApi<'_>) -> u64 {
                api.wake_at(0);
                api.rng().gen()
            }
            fn send(&self, _state: &mut u64, _api: &mut SendApi<'_, ()>) {}
            fn recv(&self, _state: &mut u64, _inbox: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
        }
        let g = generators::cycle(16);
        let a = run(&g, &Sampler, &SimConfig::seeded(7)).unwrap();
        let b = run(&g, &Sampler, &SimConfig::seeded(7)).unwrap();
        let c = run(&g, &Sampler, &SimConfig::seeded(8)).unwrap();
        assert_eq!(a.states, b.states);
        assert_ne!(a.states, c.states);
    }

    #[test]
    fn congest_bandwidth_helper() {
        assert_eq!(SimConfig::congest_bandwidth(1 << 20, 4), 80);
        assert!(SimConfig::congest_bandwidth(2, 1) >= 32);
    }

    #[test]
    fn threads_flag_accepts_space_and_equals_forms() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<String>>();
        assert_eq!(
            SimConfig::threads_from(&args(&["bin", "--threads", "4"]), 1),
            4
        );
        assert_eq!(
            SimConfig::threads_from(&args(&["bin", "--threads=8"]), 1),
            8
        );
        assert_eq!(
            SimConfig::threads_from(&args(&["bin", "--threads=0"]), 1),
            0
        );
        assert_eq!(SimConfig::threads_from(&args(&["bin", "--quick"]), 3), 3);
    }

    #[test]
    #[should_panic(expected = "--threads requires an integer value")]
    fn threads_flag_rejects_garbage_value() {
        let args: Vec<String> = vec!["bin".into(), "--threads=lots".into()];
        SimConfig::threads_from(&args, 1);
    }

    #[test]
    fn elapsed_counts_gap_rounds() {
        struct Sparse;
        impl Protocol for Sparse {
            type State = ();
            type Msg = ();
            fn init(&self, node: NodeId, api: &mut InitApi<'_>) {
                if node == 0 {
                    api.wake_at(0);
                    api.wake_at(41);
                }
            }
            fn send(&self, _state: &mut (), _api: &mut SendApi<'_, ()>) {}
            fn recv(&self, _state: &mut (), _inbox: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
        }
        let g = generators::path(2);
        let res = run(&g, &Sparse, &SimConfig::default()).unwrap();
        assert_eq!(res.metrics.elapsed_rounds, 42);
        assert_eq!(res.metrics.busy_rounds, 2);
        assert_eq!(res.metrics.awake_rounds[0], 2);
    }

    /// Duplicate `wake_at` calls for one round cost one awake round.
    struct DoubleWake;
    impl Protocol for DoubleWake {
        type State = ();
        type Msg = ();
        fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
            api.wake_at(3);
            api.wake_at(3);
            api.wake_at(3);
        }
        fn send(&self, _state: &mut (), _api: &mut SendApi<'_, ()>) {}
        fn recv(&self, _state: &mut (), _inbox: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
    }

    #[test]
    fn duplicate_wakeups_are_idempotent_in_energy() {
        let g = generators::path(2);
        let res = run(&g, &DoubleWake, &SimConfig::default()).unwrap();
        assert_eq!(res.metrics.awake_rounds, vec![1, 1]);
        assert_eq!(res.metrics.busy_rounds, 1);
        assert_eq!(res.metrics.elapsed_rounds, 4);
    }

    /// Far-future wakeups (past the scheduler's dense ring window) fire,
    /// fire in order, and count gap rounds in elapsed time.
    struct FarFuture;
    impl Protocol for FarFuture {
        type State = Vec<Round>;
        type Msg = ();
        fn init(&self, node: NodeId, api: &mut InitApi<'_>) -> Vec<Round> {
            match node {
                0 => {
                    // Scheduled out of order, spanning several ring laps.
                    api.wake_at(100_000);
                    api.wake_at(0);
                    api.wake_at(700);
                    api.wake_at(99_000);
                }
                _ => api.wake_at(5),
            }
            Vec::new()
        }
        fn send(&self, _state: &mut Vec<Round>, _api: &mut SendApi<'_, ()>) {}
        fn recv(&self, state: &mut Vec<Round>, _inbox: Inbox<'_, ()>, api: &mut RecvApi<'_>) {
            state.push(api.round());
        }
    }

    #[test]
    fn far_future_wakeups_fire_in_order() {
        let g = generators::path(2);
        let res = run(&g, &FarFuture, &SimConfig::default()).unwrap();
        assert_eq!(res.states[0], vec![0, 700, 99_000, 100_000]);
        assert_eq!(res.states[1], vec![5]);
        assert_eq!(res.metrics.busy_rounds, 5);
        assert_eq!(res.metrics.elapsed_rounds, 100_001);
    }

    /// Halting cancels wakeups that were already queued for the future,
    /// including far-future (overflow) ones.
    struct EagerThenHalt;
    impl Protocol for EagerThenHalt {
        type State = u64;
        type Msg = ();
        fn init(&self, _node: NodeId, api: &mut InitApi<'_>) -> u64 {
            api.wake_at(0);
            api.wake_at(5);
            api.wake_at(10_000); // far future: lands in the overflow spill
            0
        }
        fn send(&self, _state: &mut u64, _api: &mut SendApi<'_, ()>) {}
        fn recv(&self, state: &mut u64, _inbox: Inbox<'_, ()>, api: &mut RecvApi<'_>) {
            *state += 1;
            api.halt();
        }
    }

    #[test]
    fn halt_cancels_queued_future_wakeups() {
        let g = generators::path(2);
        let res = run(&g, &EagerThenHalt, &SimConfig::default()).unwrap();
        // Both nodes halt in round 0; the queued rounds 5 and 10_000 fire
        // nothing and cost nothing.
        assert_eq!(res.states, vec![1, 1]);
        assert_eq!(res.metrics.awake_rounds, vec![1, 1]);
        assert_eq!(res.metrics.busy_rounds, 1);
        assert_eq!(res.metrics.elapsed_rounds, 1);
    }

    /// Scratch reuse: identical results, and the second run performs zero
    /// scratch allocations (capacities are unchanged — `Vec` growth
    /// strictly increases capacity, so equality proves no reallocation on
    /// the steady-state path).
    #[test]
    fn scratch_reuse_is_deterministic_and_allocation_free() {
        let g = generators::grid2d(8, 8);
        let cfg = SimConfig::seeded(3);
        let baseline = run(&g, &Flood { rounds_cap: 30 }, &cfg).unwrap();

        let mut scratch = EngineScratch::new(&g, 0);
        let first = run_with_scratch(&g, &Flood { rounds_cap: 30 }, &cfg, &mut scratch).unwrap();
        let warm = scratch.capacity_signature();
        let second = run_with_scratch(&g, &Flood { rounds_cap: 30 }, &cfg, &mut scratch).unwrap();
        assert_eq!(
            warm,
            scratch.capacity_signature(),
            "steady-state allocation"
        );

        for res in [&first, &second] {
            assert_eq!(res.metrics, baseline.metrics);
            for (a, b) in res.states.iter().zip(baseline.states.iter()) {
                assert_eq!(a.infected_at, b.infected_at);
            }
        }
    }

    /// The signature layout of a one-shard scratch is exactly the shard
    /// list, the plan, the shard's fixed buffers plus its scheduler, and
    /// the exchange's empty cell list — pinning that the slice-era
    /// per-node inbox buffer is gone (it would show up as an extra
    /// entry) and that one shard carries no staging buffer and no
    /// exchange cell.
    #[test]
    fn capacity_signature_is_fixed_buffers_plus_scheduler() {
        let g = generators::grid2d(4, 4);
        let mut s: EngineScratch<u32> = EngineScratch::new(&g, 1);
        let mut plan_sig = Vec::new();
        crate::par::partition::ShardPlan::new().capacity_signature(&mut plan_sig);
        let mut sched_sig = Vec::new();
        crate::sched::BucketScheduler::new().capacity_signature(&mut sched_sig);
        assert_eq!(
            s.capacity_signature().len(),
            1 + plan_sig.len() + EngineScratch::<u32>::FIXED_BUFFERS + sched_sig.len() + 1
        );
    }

    /// Payloads addressed to sleeping receivers are dropped at send
    /// time, not parked in delivery slots until the edge is next used —
    /// on one shard and across a shard boundary alike.
    #[test]
    fn undelivered_payloads_are_dropped_at_send_time() {
        use std::sync::Arc;
        #[derive(Clone, Debug)]
        struct Tracked(#[allow(dead_code, reason = "held only to track drops")] Arc<()>);
        impl crate::Message for Tracked {
            fn bits(&self) -> usize {
                1
            }
        }
        struct SendToSleepers(Arc<()>);
        impl Protocol for SendToSleepers {
            type State = ();
            type Msg = Tracked;
            fn init(&self, node: NodeId, api: &mut InitApi<'_>) {
                if node == 0 {
                    api.wake_at(0);
                }
            }
            fn send(&self, _state: &mut (), api: &mut SendApi<'_, Tracked>) {
                api.broadcast(Tracked(self.0.clone()));
            }
            fn recv(&self, _state: &mut (), _inbox: Inbox<'_, Tracked>, _api: &mut RecvApi<'_>) {}
        }
        let g = generators::star(5);
        for threads in [0, 2] {
            let handle = Arc::new(());
            let proto = SendToSleepers(handle.clone());
            let cfg = SimConfig::default().with_threads(threads);
            let mut scratch = EngineScratch::new(&g, threads);
            let res = run_with_scratch(&g, &proto, &cfg, &mut scratch).unwrap();
            assert_eq!(res.metrics.messages_sent, 4, "threads {threads}");
            assert_eq!(res.metrics.messages_delivered, 0, "threads {threads}");
            // Scratch is still alive, yet no broadcast copy survives: only
            // the local handle and the protocol's own copy remain.
            assert_eq!(Arc::strong_count(&handle), 2, "threads {threads}");
        }
    }

    /// The observed event stream partitions the aggregate metrics: the
    /// per-round deltas sum back to every counter, in round order.
    #[test]
    fn observer_streams_per_round_aggregates() {
        let g = generators::grid2d(5, 5);
        let mut log = crate::observer::RoundLog::new();
        let res = run_observed(
            &g,
            &Flood { rounds_cap: 20 },
            &SimConfig::default(),
            &mut log,
        )
        .unwrap();
        assert_eq!(log.busy_rounds() as u64, res.metrics.busy_rounds);
        let sum = |f: fn(&crate::RoundEvent) -> u64| log.events().map(f).sum::<u64>();
        assert_eq!(sum(|e| e.messages_sent), res.metrics.messages_sent);
        assert_eq!(
            sum(|e| e.messages_delivered),
            res.metrics.messages_delivered
        );
        assert_eq!(sum(|e| e.bits_sent), res.metrics.bits_sent);
        assert_eq!(sum(|e| e.awake), res.metrics.total_awake());
        let rounds: Vec<_> = log.events().map(|e| e.round).collect();
        assert!(
            rounds.windows(2).all(|w| w[0] < w[1]),
            "rounds out of order"
        );
    }

    /// Unobserved entry points and observed ones produce the same run.
    #[test]
    fn observation_does_not_perturb_the_run() {
        let g = generators::grid2d(6, 6);
        let cfg = SimConfig::seeded(5);
        let plain = run(&g, &Flood { rounds_cap: 15 }, &cfg).unwrap();
        let mut log = crate::observer::RoundLog::new();
        let observed = run_observed(&g, &Flood { rounds_cap: 15 }, &cfg, &mut log).unwrap();
        assert_eq!(plain.metrics, observed.metrics);
    }

    /// Always-awake broadcaster: every node wakes rounds `0..rounds`
    /// and broadcasts each round, so no message is ever lost to a
    /// sleeping receiver — channel accounting is exactly
    /// `sent = delivered + dropped`.
    struct Beacon {
        rounds: u64,
    }
    impl Protocol for Beacon {
        type State = u64; // messages heard
        type Msg = ();
        fn init(&self, _node: NodeId, api: &mut InitApi<'_>) -> u64 {
            api.wake_range(0..self.rounds);
            0
        }
        fn send(&self, _state: &mut u64, api: &mut SendApi<'_, ()>) {
            api.broadcast(());
        }
        fn recv(&self, state: &mut u64, inbox: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {
            *state += inbox.count() as u64;
        }
    }

    #[test]
    fn invalid_configs_are_rejected_at_run_entry() {
        let g = generators::path(4);
        let zero_bw = SimConfig {
            bandwidth_bits: Some(0),
            ..SimConfig::default()
        };
        assert!(matches!(
            run(&g, &Beacon { rounds: 1 }, &zero_bw).unwrap_err(),
            SimError::InvalidInput { .. }
        ));
        let bad_p = SimConfig::default().with_channel(ChannelModel::Loss { p: 1.5 });
        assert!(matches!(
            run(&g, &Beacon { rounds: 1 }, &bad_p).unwrap_err(),
            SimError::InvalidInput { .. }
        ));
    }

    #[test]
    fn loss_channel_accounting_adds_up() {
        use rand::SeedableRng;
        let mut r = rand::rngs::SmallRng::seed_from_u64(3);
        let g = generators::gnp(128, 8.0 / 128.0, &mut r);
        let ideal = run(&g, &Beacon { rounds: 20 }, &SimConfig::seeded(1)).unwrap();
        assert_eq!(ideal.metrics.messages_dropped, 0);
        assert_eq!(ideal.metrics.collisions, 0);
        assert_eq!(
            ideal.metrics.messages_sent,
            ideal.metrics.messages_delivered
        );

        let lossy = SimConfig::seeded(1).with_channel(ChannelModel::Loss { p: 0.25 });
        let res = run(&g, &Beacon { rounds: 20 }, &lossy).unwrap();
        let m = &res.metrics;
        assert_eq!(m.messages_sent, ideal.metrics.messages_sent);
        assert!(m.messages_dropped > 0, "p=0.25 must drop something");
        assert_eq!(m.messages_sent, m.messages_delivered + m.messages_dropped);
        // Heard counts match what was actually delivered.
        let heard: u64 = res.states.iter().sum();
        assert_eq!(heard, m.messages_delivered);
    }

    #[test]
    fn loss_p1_drops_everything_and_p0_nothing() {
        let g = generators::cycle(16);
        let all = SimConfig::seeded(2).with_channel(ChannelModel::Loss { p: 1.0 });
        let res = run(&g, &Beacon { rounds: 5 }, &all).unwrap();
        assert_eq!(res.metrics.messages_delivered, 0);
        assert_eq!(res.metrics.messages_dropped, res.metrics.messages_sent);
        assert!(res.states.iter().all(|&h| h == 0));

        let none = SimConfig::seeded(2).with_channel(ChannelModel::Loss { p: 0.0 });
        let ideal = run(&g, &Beacon { rounds: 5 }, &SimConfig::seeded(2)).unwrap();
        let z = run(&g, &Beacon { rounds: 5 }, &none).unwrap();
        assert_eq!(z.metrics, ideal.metrics);
        assert_eq!(z.states, ideal.states);
    }

    #[test]
    fn radio_collision_wipes_contended_receivers() {
        // Star: every leaf hears only the hub (1 message — no
        // collision); the hub hears every leaf at once (collision).
        let g = generators::star(9); // hub 0 + 8 leaves
        let cfg = SimConfig::seeded(4).with_channel(ChannelModel::RadioCollision);
        let rounds = 3u64;
        let res = run(&g, &Beacon { rounds }, &cfg).unwrap();
        let m = &res.metrics;
        assert_eq!(m.collisions, rounds, "hub collides every round");
        assert_eq!(m.messages_dropped, 8 * rounds, "all leaf→hub wiped");
        assert_eq!(res.states[0], 0, "hub never hears anything");
        assert!(res.states[1..].iter().all(|&h| h == rounds));
        assert_eq!(m.messages_sent, m.messages_delivered + m.messages_dropped);
    }

    #[test]
    fn adversary_crash_and_forced_sleep() {
        use crate::channel::{AdversarySchedule, SleepWindow};
        let g = generators::cycle(8);
        let sched = AdversarySchedule {
            crashes: vec![(2, 3)],
            sleeps: vec![SleepWindow {
                nodes: vec![5],
                from: 1,
                to: 2,
            }],
        };
        let cfg = SimConfig::seeded(6).with_channel(ChannelModel::Adversary(sched));
        let res = run(&g, &Beacon { rounds: 6 }, &cfg).unwrap();
        // Node 2 crashes at round 3: awake rounds 0..3 only.
        assert_eq!(res.metrics.awake_rounds[2], 3);
        // Node 5 misses rounds 1 and 2 but participates otherwise.
        assert_eq!(res.metrics.awake_rounds[5], 4);
        // An untouched node pays the full schedule.
        assert_eq!(res.metrics.awake_rounds[0], 6);
        // Messages to crashed/sleeping nodes are sleep-losses, not
        // channel drops.
        assert_eq!(res.metrics.messages_dropped, 0);
        assert!(res.metrics.messages_delivered < res.metrics.messages_sent);
    }

    #[test]
    #[should_panic(expected = "empty wake_range")]
    #[cfg(debug_assertions)]
    fn empty_wake_range_panics_in_debug() {
        struct EmptyRange;
        impl Protocol for EmptyRange {
            type State = ();
            type Msg = ();
            fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
                api.wake_range(7..7);
            }
            fn send(&self, _state: &mut (), _api: &mut SendApi<'_, ()>) {}
            fn recv(&self, _state: &mut (), _inbox: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
        }
        let g = generators::path(2);
        let _ = run(&g, &EmptyRange, &SimConfig::default());
    }
}
