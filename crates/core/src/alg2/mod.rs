//! Algorithm 2 (Theorem 1.2): `O(log n · log log n · log* n)` time,
//! `O(log² log n)` energy.
//!
//! Phase I ([`phase1`]) repeatedly shrinks the maximum degree
//! `∆ → ∆^0.7` (each iteration `O(log n)` rounds, `O(log log n)` energy,
//! `O(log log ∆)` iterations) until `∆` falls below the polylog floor;
//! Phases II and III are shared with Algorithm 1 ([`crate::tail`]),
//! except that the cluster-graph coloring runs Linial to its `O(1)`-color
//! fixed point (Section 3.2 of the paper).

pub mod phase1;

use crate::params::Alg2Params;
use crate::report::MisReport;
use crate::status::StatusBoard;
use crate::tail::{run_tail, TailConfig};
use congest_sim::{Pipeline, RoundObserver, SimConfig, SimError};
use mis_graphs::{props, Graph};
use phase1::{Alg2Cleanup, Alg2Phase1Iteration};

/// Runs Algorithm 2 end to end under an explicit engine config; with
/// [`SimConfig::threads`] `>= 2` every phase executes on that many
/// worker shards, with bit-identical results to the one-shard run.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn run_algorithm2_with(
    g: &Graph,
    params: &Alg2Params,
    cfg: &SimConfig,
) -> Result<MisReport, SimError> {
    alg2_pipeline(g, params, cfg, None)
}

/// [`run_algorithm2_with`] with a [`RoundObserver`] attached (see
/// [`crate::alg1::run_algorithm1_observed`] for the observation
/// contract).
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn run_algorithm2_observed(
    g: &Graph,
    params: &Alg2Params,
    cfg: &SimConfig,
    observer: &mut dyn RoundObserver,
) -> Result<MisReport, SimError> {
    alg2_pipeline(g, params, cfg, Some(observer))
}

fn alg2_pipeline(
    g: &Graph,
    params: &Alg2Params,
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
    extras.insert("phase3_clusters".into(), 0.0);

    // ---------------- Phase I: degree-reduction recursion ----------------
    let floor = params.degree_floor(n);
    let rounds = params.phase1_rounds_per_iter(n);
    let mut delta = g.max_degree() as f64;
    let mut iterations = 0u32;
    while delta > floor as f64 && iterations < params.max_iterations && board.active_count() > 0 {
        let participating = board.active_mask();
        let proto = Alg2Phase1Iteration::new(
            &participating,
            rounds,
            delta.max(2.0),
            params.tag_exp,
            params.premark_exp,
        );
        let states = pipe.run_phase("alg2p1:iter", &proto)?;
        let joined: Vec<bool> = states.iter().map(|s| s.joined).collect();
        let spoiled: Vec<bool> = states.iter().map(|s| s.spoiled()).collect();
        board.absorb_joins(g, &joined);

        // 4-round cleanup: status sync + exact degrees + the high-degree
        // independent set.
        let in_mis = board.mis_mask();
        let cleanup = pipe.run_phase(
            "alg2p1:cleanup",
            &Alg2Cleanup {
                participating: &participating,
                in_mis: &in_mis,
                spoiled: &spoiled,
                threshold: params.cleanup_coeff * delta.powf(params.premark_exp),
            },
        )?;
        let cleanup_joins: Vec<bool> = cleanup.iter().map(|s| s.joined).collect();
        board.absorb_joins(g, &cleanup_joins);

        delta = delta.powf(params.shrink).max(2.0);
        iterations += 1;
    }
    extras.insert("alg2_phase1_iterations".into(), f64::from(iterations));
    extras.insert(
        "phase1_residual_degree".into(),
        props::masked_max_degree(g, &board.active_mask()) as f64,
    );
    extras.insert("phase1_active".into(), board.active_count() as f64);

    // ---------------- Phases II + III ----------------
    run_tail(
        &mut pipe,
        g,
        &mut board,
        &TailConfig::from_alg2(params),
        &mut extras,
    )?;

    let in_mis = board.mis_mask();
    let (metrics, phases, engine) = pipe.into_parts();
    Ok(MisReport::assemble(g, in_mis, metrics, phases, extras).with_engine(engine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_graphs::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn run_algorithm2(g: &Graph, params: &Alg2Params, seed: u64) -> Result<MisReport, SimError> {
        run_algorithm2_with(g, params, &SimConfig::seeded(seed))
    }

    #[test]
    fn algorithm2_computes_mis_on_gnp() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = generators::gnp(800, 12.0 / 800.0, &mut rng);
        let r = run_algorithm2(&g, &Alg2Params::default(), 9).unwrap();
        assert!(r.independent);
        assert!(r.maximal);
    }

    #[test]
    fn algorithm2_on_structured_graphs() {
        for (name, g) in [
            ("path", generators::path(100)),
            ("cycle", generators::cycle(99)),
            ("star", generators::star(64)),
            ("grid", generators::grid2d(10, 10)),
            ("edgeless", generators::empty(25)),
        ] {
            let r = run_algorithm2(&g, &Alg2Params::default(), 4).unwrap();
            assert!(r.is_mis(), "family {name}: not an MIS");
        }
    }

    #[test]
    fn algorithm2_dense_graph_runs_phase1_iterations() {
        let mut rng = SmallRng::seed_from_u64(6);
        let g = generators::random_regular(2048, 512, &mut rng);
        let r = run_algorithm2(&g, &Alg2Params::default(), 13).unwrap();
        assert!(r.is_mis());
        assert!(
            r.extras["alg2_phase1_iterations"] >= 1.0,
            "phase 1 never ran"
        );
        assert!(r.extras["phase1_residual_degree"] < 512.0);
    }

    #[test]
    fn algorithm2_energy_well_below_time() {
        let mut rng = SmallRng::seed_from_u64(8);
        let g = generators::random_regular(2048, 256, &mut rng);
        let r = run_algorithm2(&g, &Alg2Params::default(), 3).unwrap();
        assert!(r.is_mis());
        assert!(
            (r.metrics.max_awake() as f64) < (r.metrics.elapsed_rounds as f64) / 2.0,
            "max awake {} vs rounds {}",
            r.metrics.max_awake(),
            r.metrics.elapsed_rounds
        );
    }

    #[test]
    fn algorithm2_deterministic_per_seed() {
        let mut rng = SmallRng::seed_from_u64(10);
        let g = generators::gnp(300, 0.05, &mut rng);
        let a = run_algorithm2(&g, &Alg2Params::default(), 5).unwrap();
        let b = run_algorithm2(&g, &Alg2Params::default(), 5).unwrap();
        assert_eq!(a.in_mis, b.in_mis);
    }
}
