//! Section 4: constant node-averaged energy.
//!
//! Phase I already has `O(1)` *average* energy (a node is ever sampled
//! with probability `O(1/log n)`, and only sampled nodes wake at all).
//! The new ingredient is the Phase I–II module of Lemma 4.1/4.2: a
//! re-parameterized regularized Luby on the `poly(log n)`-degree residual
//! graph whose iterations last only `O(log log n)` rounds, with an
//! explicit *failed* set `F` (nodes whose neighborhood violates the
//! invariants get dropped from the module instead of voiding the w.h.p.
//! analysis), followed by a node-count reduction that leaves
//! `O(n / log² log n)` nodes — cheap enough that running the
//! `O(log² log n)`-energy Phases II+III on the leftovers costs `O(1)`
//! averaged over all `n` nodes.
//!
//! Two status-exchange modes are provided (DESIGN.md §7): the paper's
//! literal per-iteration 3-round exchange among all alive nodes
//! (`sampled_only_status = false`), and a lazier variant that defers the
//! exchange to the end of the module, preserving the `O(1)` average that
//! Section 4 claims (`sampled_only_status = true`, the default). The node
//! reduction stands in for GP22's Lemma 3.2 black box.

use crate::alg1::phase1::Phase1Protocol;
use crate::ghaffari::GhaffariMis;
use crate::params::{log2n, Alg1Params, AvgEnergyParams};
use crate::report::MisReport;
use crate::status::{StatusBoard, StatusSync};
use crate::tail::{run_tail, TailConfig};
use congest_sim::{
    Inbox, InitApi, NodeId, Pipeline, Protocol, RecvApi, RoundObserver, SendApi, SimConfig,
    SimError,
};
use mis_graphs::{props, Graph};

/// The per-iteration failure check of Lemma 4.2 (3 rounds, all alive
/// nodes awake): (0) MIS members announce; (1) alive nodes exchange
/// spoiled bits so everyone counts spoiled / active-non-spoiled
/// neighbors; (2) nodes over either threshold declare themselves failed.
#[derive(Debug)]
pub struct FailureCheck<'a> {
    /// Members of the module's current graph.
    pub participating: &'a [bool],
    /// Current MIS membership.
    pub in_mis: &'a [bool],
    /// Cumulative spoiled flags.
    pub spoiled: &'a [bool],
    /// Already-failed nodes (sleep through the check).
    pub failed_in: &'a [bool],
    /// Condition (A) threshold on spoiled neighbors.
    pub spoil_threshold: f64,
    /// Condition (B) threshold on active non-spoiled neighbors.
    pub degree_threshold: f64,
}

/// Per-node outcome of [`FailureCheck`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailState {
    /// Covered by the MIS (possibly learned here).
    pub removed: bool,
    /// Spoiled neighbors counted.
    pub spoiled_neighbors: u32,
    /// Active non-spoiled neighbors counted.
    pub active_neighbors: u32,
    /// Whether this node failed (condition A or B).
    pub failed: bool,
}

impl Protocol for FailureCheck<'_> {
    type State = FailState;
    type Msg = bool;

    fn init(&self, node: NodeId, api: &mut InitApi<'_>) -> FailState {
        let v = node as usize;
        if self.participating[v] && !self.failed_in[v] {
            api.wake_range(0..3);
        }
        FailState::default()
    }

    fn send(&self, state: &mut FailState, api: &mut SendApi<'_, bool>) {
        let v = api.node() as usize;
        match api.round() {
            0 => {
                if self.in_mis[v] {
                    api.broadcast(true);
                }
            }
            1 => {
                if !self.in_mis[v] && !state.removed {
                    api.broadcast(self.spoiled[v]);
                }
            }
            _ => {
                if state.failed {
                    api.broadcast(true);
                }
            }
        }
    }

    fn recv(&self, state: &mut FailState, inbox: Inbox<'_, bool>, api: &mut RecvApi<'_>) {
        let v = api.node() as usize;
        match api.round() {
            0 if !self.in_mis[v] && !inbox.is_empty() => {
                state.removed = true;
            }
            1 => {
                state.spoiled_neighbors = inbox.iter().filter(|&(_, &s)| s).count() as u32;
                state.active_neighbors = inbox.iter().filter(|&(_, &s)| !s).count() as u32;
                if !self.in_mis[v] && !state.removed {
                    state.failed = f64::from(state.spoiled_neighbors) > self.spoil_threshold
                        || f64::from(state.active_neighbors) > self.degree_threshold;
                }
            }
            _ => {
                // Failed neighbors announced themselves; nothing further
                // to record — they simply go silent from now on.
            }
        }
    }
}

/// Measured outcome of the Lemma 4.2 + node-reduction module.
#[derive(Debug, Clone, Default)]
pub struct PhaseI2Stats {
    /// Iterations executed.
    pub iterations: u32,
    /// Nodes in the failed set `F`.
    pub failed: usize,
    /// Active nodes left after the node reduction (these and `F` carry
    /// into Phases II+III).
    pub remaining: usize,
}

/// Runs the full constant-average-energy pipeline — Phase I, the Lemma
/// 4.1/4.2 module with node reduction, then Phases II+III on the
/// leftovers — under an explicit engine config; with
/// [`SimConfig::threads`] `>= 2` every phase executes on that many
/// worker shards, with bit-identical results to the one-shard run.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn run_avg_energy_with(
    g: &Graph,
    base: &Alg1Params,
    ae: &AvgEnergyParams,
    cfg: &SimConfig,
) -> Result<MisReport, SimError> {
    avg1_pipeline(g, base, ae, cfg, None)
}

/// [`run_avg_energy_with`] with a [`RoundObserver`] attached (see
/// [`crate::alg1::run_algorithm1_observed`] for the observation
/// contract).
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn run_avg_energy_observed(
    g: &Graph,
    base: &Alg1Params,
    ae: &AvgEnergyParams,
    cfg: &SimConfig,
    observer: &mut dyn RoundObserver,
) -> Result<MisReport, SimError> {
    avg1_pipeline(g, base, ae, cfg, Some(observer))
}

fn avg1_pipeline(
    g: &Graph,
    base: &Alg1Params,
    ae: &AvgEnergyParams,
    cfg: &SimConfig,
    observer: Option<&mut dyn RoundObserver>,
) -> Result<MisReport, SimError> {
    let n = g.n();
    let mut pipe = Pipeline::new(g, cfg.clone());
    if let Some(obs) = observer {
        pipe.observe(obs);
    }
    let mut board = StatusBoard::new(n);
    let mut extras = std::collections::BTreeMap::new();
    extras.insert("finish_retries".into(), 0.0);
    extras.insert("finish_fallback_nodes".into(), 0.0);

    // ---------------- Phase I (as in Algorithm 1) ----------------
    let delta = g.max_degree();
    let iters = base.phase1_iterations(n, delta);
    if iters > 0 {
        let participating = vec![true; n];
        let proto = Phase1Protocol::new(
            &participating,
            iters,
            base.phase1_rounds_per_iter(n),
            delta.max(1),
            base.mark_base,
        );
        let states = pipe.run_phase("phase1", &proto)?;
        let joined: Vec<bool> = states.iter().map(|s| s.joined).collect();
        board.absorb_joins(g, &joined);
        let participants = vec![true; n];
        let in_mis = board.mis_mask();
        pipe.run_phase(
            "phase1:sync",
            &StatusSync {
                participants: &participants,
                in_mis: &in_mis,
            },
        )?;
    }

    // ---------------- Phase I–II module (Lemma 4.2) ----------------
    let stats = run_phase_i_ii(&mut pipe, g, &mut board, ae)?;
    extras.insert("ae_iterations".into(), f64::from(stats.iterations));
    extras.insert("ae_failed".into(), stats.failed as f64);
    extras.insert("ae_remaining".into(), stats.remaining as f64);

    // ---------------- Phases II + III on the leftovers ----------------
    run_tail(
        &mut pipe,
        g,
        &mut board,
        &TailConfig::from_alg1(base),
        &mut extras,
    )?;

    let in_mis = board.mis_mask();
    let (metrics, phases, engine) = pipe.into_parts();
    Ok(MisReport::assemble(g, in_mis, metrics, phases, extras).with_engine(engine))
}

/// The Algorithm 2 variant of the Section 4 pipeline ("all this can also
/// be achieved with constant node-averaged energy" applies to both
/// algorithms): Algorithm 2's Phase I, the Lemma 4.2 module, then the
/// Algorithm 2 tail (fixed-point coloring); see [`run_avg_energy_with`]
/// for the engine-config contract.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn run_avg_energy2_with(
    g: &Graph,
    base: &crate::params::Alg2Params,
    ae: &AvgEnergyParams,
    cfg: &SimConfig,
) -> Result<MisReport, SimError> {
    avg2_pipeline(g, base, ae, cfg, None)
}

/// [`run_avg_energy2_with`] with a [`RoundObserver`] attached (see
/// [`crate::alg1::run_algorithm1_observed`] for the observation
/// contract).
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn run_avg_energy2_observed(
    g: &Graph,
    base: &crate::params::Alg2Params,
    ae: &AvgEnergyParams,
    cfg: &SimConfig,
    observer: &mut dyn RoundObserver,
) -> Result<MisReport, SimError> {
    avg2_pipeline(g, base, ae, cfg, Some(observer))
}

fn avg2_pipeline(
    g: &Graph,
    base: &crate::params::Alg2Params,
    ae: &AvgEnergyParams,
    cfg: &SimConfig,
    observer: Option<&mut dyn RoundObserver>,
) -> Result<MisReport, SimError> {
    use crate::alg2::phase1::{Alg2Cleanup, Alg2Phase1Iteration};

    let n = g.n();
    let mut pipe = Pipeline::new(g, cfg.clone());
    if let Some(obs) = observer {
        pipe.observe(obs);
    }
    let mut board = StatusBoard::new(n);
    let mut extras = std::collections::BTreeMap::new();
    extras.insert("finish_retries".into(), 0.0);
    extras.insert("finish_fallback_nodes".into(), 0.0);

    // Algorithm 2 Phase I (identical to alg2::run_algorithm2's loop).
    let floor = base.degree_floor(n);
    let rounds = base.phase1_rounds_per_iter(n);
    let mut delta = g.max_degree() as f64;
    let mut iterations = 0u32;
    while delta > floor as f64 && iterations < base.max_iterations && board.active_count() > 0 {
        let participating = board.active_mask();
        let proto = Alg2Phase1Iteration::new(
            &participating,
            rounds,
            delta.max(2.0),
            base.tag_exp,
            base.premark_exp,
        );
        let states = pipe.run_phase("alg2p1:iter", &proto)?;
        let joined: Vec<bool> = states.iter().map(|s| s.joined).collect();
        let spoiled: Vec<bool> = states.iter().map(|s| s.spoiled()).collect();
        board.absorb_joins(g, &joined);
        let in_mis = board.mis_mask();
        let cleanup = pipe.run_phase(
            "alg2p1:cleanup",
            &Alg2Cleanup {
                participating: &participating,
                in_mis: &in_mis,
                spoiled: &spoiled,
                threshold: base.cleanup_coeff * delta.powf(base.premark_exp),
            },
        )?;
        let cleanup_joins: Vec<bool> = cleanup.iter().map(|s| s.joined).collect();
        board.absorb_joins(g, &cleanup_joins);
        delta = delta.powf(base.shrink).max(2.0);
        iterations += 1;
    }
    extras.insert("alg2_phase1_iterations".into(), f64::from(iterations));

    let stats = run_phase_i_ii(&mut pipe, g, &mut board, ae)?;
    extras.insert("ae_iterations".into(), f64::from(stats.iterations));
    extras.insert("ae_failed".into(), stats.failed as f64);
    extras.insert("ae_remaining".into(), stats.remaining as f64);

    run_tail(
        &mut pipe,
        g,
        &mut board,
        &TailConfig::from_alg2(base),
        &mut extras,
    )?;

    let in_mis = board.mis_mask();
    let (metrics, phases, engine) = pipe.into_parts();
    Ok(MisReport::assemble(g, in_mis, metrics, phases, extras).with_engine(engine))
}

/// The Lemma 4.2 iteration ladder plus the GP22-style node reduction.
fn run_phase_i_ii(
    pipe: &mut Pipeline<'_, '_>,
    g: &Graph,
    board: &mut StatusBoard,
    ae: &AvgEnergyParams,
) -> Result<PhaseI2Stats, SimError> {
    let n = g.n();
    let loglog = log2n(n).log2().max(1.0);
    let target = loglog.powf(ae.target_exp).max(4.0);
    let active0 = board.active_mask();
    let delta2 = props::masked_max_degree(g, &active0).max(1);

    let iterations = if (delta2 as f64) <= target {
        0
    } else {
        ((delta2 as f64 / target).log2().ceil()).max(0.0) as u32
    };
    let rounds_per_iter = (ae.c_rounds * loglog).ceil().max(2.0) as u32;

    let mut sampled = vec![false; n]; // cumulative: spoiled or joined here
    let mut failed = vec![false; n];
    let mut stats = PhaseI2Stats {
        iterations,
        ..PhaseI2Stats::default()
    };

    for i in 0..iterations {
        if board.active_count() == 0 {
            break;
        }
        // Iteration i: marking probability 2^i/(base·∆₂), i.e. the
        // Phase I ladder with an effective degree bound ∆₂ / 2^i.
        let delta_i = ((delta2 as f64) / f64::from(1u32 << i.min(30))).max(1.0);
        let participating: Vec<bool> = (0..n)
            .map(|v| board.status[v].is_active() && !sampled[v] && !failed[v])
            .collect();
        let proto = Phase1Protocol::new(
            &participating,
            1,
            rounds_per_iter,
            delta_i.ceil() as usize,
            ae.mark_base,
        );
        let states = pipe.run_phase("ae:iter", &proto)?;
        let joined: Vec<bool> = states.iter().map(|s| s.joined).collect();
        for v in 0..n {
            if states[v].sampled_round.is_some() {
                sampled[v] = true;
            }
        }
        board.absorb_joins(g, &joined);

        if !ae.sampled_only_status {
            // Literal per-iteration failure check (3 all-awake rounds).
            let members = active_members(board, &failed);
            let in_mis = board.mis_mask();
            let spoiled = spoiled_mask(board, &sampled);
            let check = pipe.run_phase(
                "ae:failcheck",
                &FailureCheck {
                    participating: &members,
                    in_mis: &in_mis,
                    spoiled: &spoiled,
                    failed_in: &failed,
                    spoil_threshold: f64::from(i + 1) * ae.fail_c * loglog,
                    degree_threshold: delta2 as f64 / f64::from(1u32 << (i + 1).min(30)),
                },
            )?;
            for v in 0..n {
                if check[v].failed {
                    failed[v] = true;
                }
            }
        } else {
            // Deferred mode: mirror the same thresholds offline.
            let spoiled = spoiled_mask(board, &sampled);
            for v in 0..n as u32 {
                if !board.status[v as usize].is_active() || failed[v as usize] {
                    continue;
                }
                let mut spoiled_nbrs = 0u32;
                let mut active_nbrs = 0u32;
                for &u in g.neighbors(v) {
                    if board.status[u as usize].is_active() && !failed[u as usize] {
                        if spoiled[u as usize] {
                            spoiled_nbrs += 1;
                        } else {
                            active_nbrs += 1;
                        }
                    }
                }
                if f64::from(spoiled_nbrs) > f64::from(i + 1) * ae.fail_c * loglog
                    || f64::from(active_nbrs) > delta2 as f64 / f64::from(1u32 << (i + 1).min(30))
                {
                    failed[v as usize] = true;
                }
            }
        }
    }

    if ae.sampled_only_status && iterations > 0 {
        // One 2-round exchange at module end replaces the per-iteration
        // syncs: membership + spoiled status.
        let members = vec![true; n];
        let in_mis = board.mis_mask();
        pipe.run_phase(
            "ae:final-sync",
            &StatusSync {
                participants: &members,
                in_mis: &in_mis,
            },
        )?;
    }
    stats.failed = failed.iter().filter(|&&f| f).count();

    // ---- Node reduction (GP22 Lemma 3.2 substitute). ----
    // The set A (active, not failed) has degree ~ target; run Ghaffari's
    // MIS long enough to decide the bulk of A.
    let a_mask: Vec<bool> = (0..n)
        .map(|v| board.status[v].is_active() && !failed[v])
        .collect();
    let a_count = a_mask.iter().filter(|&&b| b).count();
    if a_count > 0 {
        let d = props::masked_max_degree(g, &a_mask).max(1);
        let reduce_iters = (ae.reduce_c * ((d + 2) as f64).log2()).ceil() as u32 + 4;
        let gh = pipe.run_phase(
            "ae:reduce",
            &GhaffariMis {
                participating: &a_mask,
                iterations: reduce_iters,
                executions: 1,
                halt_when_done: true,
            },
        )?;
        let joined: Vec<bool> = gh.iter().map(|s| s.joined.get(0)).collect();
        board.absorb_joins(g, &joined);
    }
    stats.remaining = board.active_count();
    Ok(stats)
}

fn active_members(board: &StatusBoard, failed: &[bool]) -> Vec<bool> {
    (0..board.n())
        .map(|v| board.status[v].is_active() && !failed[v])
        .collect()
}

fn spoiled_mask(board: &StatusBoard, sampled: &[bool]) -> Vec<bool> {
    (0..board.n())
        .map(|v| sampled[v] && board.status[v].is_active())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::run;
    use mis_graphs::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn run_avg_energy(
        g: &Graph,
        base: &Alg1Params,
        ae: &AvgEnergyParams,
        seed: u64,
    ) -> Result<MisReport, SimError> {
        run_avg_energy_with(g, base, ae, &SimConfig::seeded(seed))
    }

    fn run_avg_energy2(
        g: &Graph,
        base: &crate::params::Alg2Params,
        ae: &AvgEnergyParams,
        seed: u64,
    ) -> Result<MisReport, SimError> {
        run_avg_energy2_with(g, base, ae, &SimConfig::seeded(seed))
    }

    #[test]
    fn avg_energy_pipeline_computes_mis() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = generators::gnp(1200, 10.0 / 1200.0, &mut rng);
        let r = run_avg_energy(&g, &Alg1Params::default(), &AvgEnergyParams::default(), 7).unwrap();
        assert!(r.independent);
        assert!(r.maximal);
    }

    #[test]
    fn avg_energy_alg2_variant_computes_mis() {
        let mut rng = SmallRng::seed_from_u64(7);
        let g = generators::random_regular(1024, 128, &mut rng);
        let r = run_avg_energy2(
            &g,
            &crate::params::Alg2Params::default(),
            &AvgEnergyParams::default(),
            9,
        )
        .unwrap();
        assert!(r.is_mis());
        // The average stays far below the worst case here too.
        assert!(r.metrics.avg_awake() * 2.0 < r.metrics.max_awake() as f64);
    }

    #[test]
    fn avg_energy_literal_mode_also_works() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = generators::random_regular(1024, 64, &mut rng);
        let ae = AvgEnergyParams {
            sampled_only_status: false,
            ..AvgEnergyParams::default()
        };
        let r = run_avg_energy(&g, &Alg1Params::default(), &ae, 3).unwrap();
        assert!(r.is_mis());
    }

    #[test]
    fn avg_energy_is_lower_than_worst_case() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = generators::random_regular(4096, 64, &mut rng);
        let r = run_avg_energy(&g, &Alg1Params::default(), &AvgEnergyParams::default(), 5).unwrap();
        assert!(r.is_mis());
        // The average must sit far below the worst case: most nodes sleep
        // through almost everything.
        assert!(
            r.metrics.avg_awake() * 3.0 < r.metrics.max_awake() as f64,
            "avg {} vs max {}",
            r.metrics.avg_awake(),
            r.metrics.max_awake()
        );
    }

    #[test]
    fn failure_check_counts_and_trips() {
        // Star with a tiny degree threshold: the hub must fail by (B).
        let g = generators::star(12);
        let participating = vec![true; 12];
        let in_mis = vec![false; 12];
        let spoiled = vec![false; 12];
        let failed_in = vec![false; 12];
        let res = run(
            &g,
            &FailureCheck {
                participating: &participating,
                in_mis: &in_mis,
                spoiled: &spoiled,
                failed_in: &failed_in,
                spoil_threshold: 100.0,
                degree_threshold: 3.0,
            },
            &SimConfig::seeded(0),
        )
        .unwrap();
        assert!(res.states[0].failed, "hub under-threshold?");
        assert_eq!(res.states[0].active_neighbors, 11);
        assert!(!res.states[1].failed);
    }

    #[test]
    fn failure_check_condition_a() {
        let g = generators::star(12);
        let participating = vec![true; 12];
        let in_mis = vec![false; 12];
        let mut spoiled = vec![false; 12];
        spoiled[1..].fill(true);
        let failed_in = vec![false; 12];
        let res = run(
            &g,
            &FailureCheck {
                participating: &participating,
                in_mis: &in_mis,
                spoiled: &spoiled,
                failed_in: &failed_in,
                spoil_threshold: 5.0,
                degree_threshold: 100.0,
            },
            &SimConfig::seeded(0),
        )
        .unwrap();
        assert!(res.states[0].failed);
        assert_eq!(res.states[0].spoiled_neighbors, 11);
    }

    #[test]
    fn failure_check_respects_mis_coverage() {
        let g = generators::path(3);
        let participating = vec![true; 3];
        let in_mis = vec![false, true, false];
        let spoiled = vec![false; 3];
        let failed_in = vec![false; 3];
        let res = run(
            &g,
            &FailureCheck {
                participating: &participating,
                in_mis: &in_mis,
                spoiled: &spoiled,
                failed_in: &failed_in,
                spoil_threshold: 0.0,
                degree_threshold: 0.0,
            },
            &SimConfig::seeded(0),
        )
        .unwrap();
        // Covered nodes never fail.
        assert!(res.states[0].removed && !res.states[0].failed);
        assert!(res.states[2].removed && !res.states[2].failed);
    }
}
