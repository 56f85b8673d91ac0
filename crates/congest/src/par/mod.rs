//! The round loop and its run entry points: deterministic sharded
//! round execution.
//!
//! [`run`] executes the sleeping-CONGEST semantics on
//! [`crate::SimConfig::threads`] shards. `0` and `1` both mean one shard
//! on the calling thread — the same loop with no peer, no cut pair and no
//! exchange traffic; `k >= 2` spreads each round's work across `k`
//! worker threads. **Determinism is the contract:** for every graph,
//! protocol, config, and thread count the run produces *bit-identical*
//! [`crate::Metrics`], final states and observed round events. Thread
//! count is a pure performance knob, never an observable. Because every
//! thread count runs the same loop, this holds by construction for the
//! loop's logic; the tests pin what remains — that the partition and
//! the exchange deliver each payload exactly as a local send would.
//!
//! # Why this is possible
//!
//! Within a round, per-node work is already order-free by construction:
//! every node draws from its own RNG (derived from `(seed, salt, node)`),
//! and messages land in per-directed-edge slots indexed by the receiver's
//! CSR layout, so inboxes come out ascending-by-sender no matter who
//! wrote first. The loop exploits this to skip sorting within a shard
//! and to skip coordination between shards.
//!
//! # Architecture: the one-barrier round
//!
//! Each worker crosses exactly **one rendezvous per round**. Everything
//! else — round agreement, the busy/empty decision, failure aborts, and
//! the cross-shard payload hand-off — rides on that single barrier or on
//! per-pair sequence counters, so synchronization overhead scales with
//! actual cross-shard traffic, not with `k²` or with barrier count:
//!
//! ```text
//!        ┌──────────────── one loop iteration (round r) ───────────────┐
//! shard: │ drain bucket → publish(round, active, posted, failed)       │
//!        │                        ═══ barrier ═══                      │
//!        │ read snapshot: agreed round = min, busy = Σ active,         │
//!        │                abort if any shard published failure         │
//!        │ send: local slots directly, cross payloads per cut pair     │
//!        │ bump every out-pair sequence counter (cut-aware: only       │
//!        │   non-empty buffers post; empty pairs publish counter only) │
//!        │ apply: await in-pair counters of participating senders,     │
//!        │   drain payload cells into own slots; recv half             │
//!        └───────────── next iteration's barrier orders r before r+1 ──┘
//! ```
//!
//! * [`partition`] — a [`mis_graphs::Partition`] cuts nodes into `k`
//!   contiguous shards balanced by degree weight and refined toward the
//!   sparsest nearby cut; the [`partition::ShardPlan`] enumerates the
//!   *cut pairs* (directed shard pairs that actually share cut edges)
//!   with per-pair capacities, so the exchange allocates one cell per
//!   cut pair instead of a `k²` mailbox matrix.
//! * [`shard`] — each shard owns its nodes: their RNGs, calendar
//!   scheduler, halt flags, awake stamps, delivery slots, and states.
//!   Local sends write the shard's own slots directly; the round loop
//!   lives here. Its one-shard differences are decided once per run from
//!   the plan: no cut pairs means no staging, no `out_stamp` array and
//!   no exchange; no peers means no `catch_unwind` and a live observer.
//! * [`exchange`] — all inter-shard synchronization: the spinning
//!   rendezvous barrier, the parity-double-buffered round-agreement
//!   snapshot, and the per-cut-pair payload cells whose atomic sequence
//!   counters replace the post-send barrier. A pair that moved nothing
//!   this round costs its receiver one atomic load; a round in which no
//!   shard posted at all is counted as local-only.
//! * [`engine`] — the three entry points, [`EngineScratch`] reuse,
//!   spawning, and the merge of per-shard outcomes into one result (at
//!   one shard a move, not a copy).
//!
//! Since the workspace forbids `unsafe`, no thread ever writes another
//! shard's memory: all cross-shard traffic moves by ownership through the
//! payload cells (a swap under a mutex that the sequence counters keep
//! uncontended), and the barrier plus counter protocol makes every phase
//! data-race-free by construction.
//!
//! # Caveat
//!
//! A protocol that *panics* mid-run aborts the whole run. At one shard
//! the panic unwinds straight to the caller; at `k >= 2` it is caught at
//! the protocol boundary, all workers shut down at the next
//! synchronization point, and the payload is re-raised on the calling
//! thread. Protocol panics are programming errors, not control flow.

pub(crate) mod engine;
pub(crate) mod exchange;
pub(crate) mod partition;
pub(crate) mod shard;

pub use engine::{run, run_observed, run_with_scratch, EngineScratch};
