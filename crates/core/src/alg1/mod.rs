//! Algorithm 1 (Theorem 1.1): `O(log² n)` time, `O(log log n)` energy.
//!
//! The three phases, exactly as in Section 2 of the paper:
//!
//! 1. [`phase1`] — regularized Luby with spoiled-once sampling reduces the
//!    maximum degree to `O(log² n)` at `O(log log n)` energy,
//! 2. shattering + clustering ([`crate::shatter`]) breaks the residual
//!    graph into `poly(log n)`-size components of `O(log log n)`-diameter
//!    clusters,
//! 3. Borůvka merging ([`crate::cluster::merge`]) builds one spanning tree
//!    per component, and the parallel-execution finish
//!    ([`crate::finish`]) computes the MIS inside every component.

pub mod phase1;

use crate::params::Alg1Params;
use crate::report::MisReport;
use crate::status::{StatusBoard, StatusSync};
use crate::tail::{run_tail, TailConfig};
use congest_sim::{Pipeline, RoundObserver, SimConfig, SimError};
use mis_graphs::{props, Graph};
use phase1::Phase1Protocol;

/// Runs Algorithm 1 end to end under an explicit engine config: every
/// phase runs with `cfg`'s seed, round cap, bandwidth policy, and — most
/// notably — [`SimConfig::threads`], so the whole pipeline executes on
/// that many worker shards when `threads >= 2` (bit-identical results
/// either way).
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn run_algorithm1_with(
    g: &Graph,
    params: &Alg1Params,
    cfg: &SimConfig,
) -> Result<MisReport, SimError> {
    alg1_pipeline(g, params, cfg, None)
}

/// [`run_algorithm1_with`] with a [`RoundObserver`] attached: every
/// phase announces itself and streams one event per busy round, giving
/// the full awake/message time series of the run (identical across
/// [`SimConfig::threads`] values per the engine's determinism contract).
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn run_algorithm1_observed(
    g: &Graph,
    params: &Alg1Params,
    cfg: &SimConfig,
    observer: &mut dyn RoundObserver,
) -> Result<MisReport, SimError> {
    alg1_pipeline(g, params, cfg, Some(observer))
}

fn alg1_pipeline(
    g: &Graph,
    params: &Alg1Params,
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
    // Defaults for phases that may be skipped on small/sparse inputs.
    extras.insert("finish_retries".into(), 0.0);
    extras.insert("finish_fallback_nodes".into(), 0.0);
    extras.insert("phase3_clusters".into(), 0.0);
    extras.insert("phase3_merge_iterations".into(), 0.0);
    extras.insert("phase3_tree_depth".into(), 0.0);
    extras.insert("phase1_sampled".into(), 0.0);

    // ---------------- Phase I ----------------
    let delta = g.max_degree();
    let iters = params.phase1_iterations(n, delta);
    extras.insert("phase1_iterations".into(), f64::from(iters));
    if iters > 0 {
        let participating = vec![true; n];
        let proto = Phase1Protocol::new(
            &participating,
            iters,
            params.phase1_rounds_per_iter(n),
            delta.max(1),
            params.mark_base,
        );
        let states = pipe.run_phase("phase1", &proto)?;
        let joined: Vec<bool> = states.iter().map(|s| s.joined).collect();
        board.absorb_joins(g, &joined);
        extras.insert(
            "phase1_sampled".into(),
            states.iter().filter(|s| s.sampled_round.is_some()).count() as f64,
        );
        // One all-awake round: everyone learns its exact status.
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
        &TailConfig::from_alg1(params),
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

    fn run_algorithm1(g: &Graph, params: &Alg1Params, seed: u64) -> Result<MisReport, SimError> {
        run_algorithm1_with(g, params, &SimConfig::seeded(seed))
    }

    #[test]
    fn algorithm1_computes_mis_on_gnp() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = generators::gnp(800, 10.0 / 800.0, &mut rng);
        let r = run_algorithm1(&g, &Alg1Params::default(), 7).unwrap();
        assert!(r.independent, "independence violated");
        assert!(r.maximal, "maximality violated");
        assert_eq!(r.extras["finish_fallback_nodes"], 0.0);
    }

    #[test]
    fn algorithm1_on_structured_graphs() {
        for (name, g) in [
            ("path", generators::path(120)),
            ("cycle", generators::cycle(121)),
            ("star", generators::star(60)),
            ("grid", generators::grid2d(12, 12)),
            ("torus", generators::torus2d(8, 8)),
            ("edgeless", generators::empty(40)),
            ("singleton", generators::empty(1)),
        ] {
            let r = run_algorithm1(&g, &Alg1Params::default(), 3).unwrap();
            assert!(r.is_mis(), "family {name}: not an MIS");
        }
    }

    #[test]
    fn algorithm1_dense_graph_exercises_phase1() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = generators::random_regular(1024, 512, &mut rng);
        let r = run_algorithm1(&g, &Alg1Params::default(), 11).unwrap();
        assert!(r.is_mis());
        assert!(r.extras["phase1_iterations"] >= 1.0);
        // Phase 1 must have reduced the degree.
        assert!(r.extras["phase1_residual_degree"] < 512.0);
    }

    #[test]
    fn algorithm1_energy_beats_luby_scale() {
        let mut rng = SmallRng::seed_from_u64(9);
        let g = generators::random_regular(2048, 256, &mut rng);
        let r = run_algorithm1(&g, &Alg1Params::default(), 5).unwrap();
        assert!(r.is_mis());
        // Energy must be well below the round count (the whole point).
        assert!(
            (r.metrics.max_awake() as f64) < (r.metrics.elapsed_rounds as f64) / 2.0,
            "max awake {} vs rounds {}",
            r.metrics.max_awake(),
            r.metrics.elapsed_rounds
        );
    }

    #[test]
    fn algorithm1_deterministic_per_seed() {
        let mut rng = SmallRng::seed_from_u64(13);
        let g = generators::gnp(300, 0.02, &mut rng);
        let a = run_algorithm1(&g, &Alg1Params::default(), 21).unwrap();
        let b = run_algorithm1(&g, &Alg1Params::default(), 21).unwrap();
        assert_eq!(a.in_mis, b.in_mis);
        assert_eq!(a.metrics.elapsed_rounds, b.metrics.elapsed_rounds);
    }

    #[test]
    fn algorithm1_messages_fit_congest_bandwidth() {
        let mut rng = SmallRng::seed_from_u64(17);
        let g = generators::gnp(600, 0.03, &mut rng);
        let r = run_algorithm1(&g, &Alg1Params::default(), 2).unwrap();
        assert!(r.is_mis());
        let bandwidth = congest_sim::SimConfig::congest_bandwidth(600, 12);
        assert!(
            r.metrics.max_message_bits <= bandwidth,
            "max message {} bits exceeds O(log n) = {bandwidth}",
            r.metrics.max_message_bits
        );
    }
}
