//! The workloads and one pass of the timed path through the public API:
//! `WorkloadSpec::from_str` → `WorkloadSpec::build` → `Algorithm::run`
//! per static cell (or `IncrementalAlgorithm` repairs per churn cell) →
//! the independent MIS check → `render_trace`.

use crate::trace::{now, secs_since, Layer, RoundClock, Tracer};
use congest_sim::{plan_repair, Metrics, SimConfig, SimError};
use energy_mis::params::{Alg1Params, Alg2Params, AvgEnergyParams};
use mis_graphs::{props, DeltaGraph, Graph};
use mis_runner::{
    incremental, registry, render_trace, ChurnSpec, ChurnStream, IncrementalAlgorithm, RepairStats,
    RunConfig, RunReport, WorkloadSpec,
};

/// One benchmark workload. Every cell runs on the sequential engine:
/// on a host with few cores, worker threads time the scheduler more
/// than the program (see README.md).
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name `--workload` selects it by.
    pub name: &'static str,
    /// Workload spec. The static cells run on its graph (the base graph
    /// of an `edits:` spec), the churn cells on its edit stream when it
    /// has one. Generator and churn seeds stay 0; the benchmark's
    /// `--seed` is the algorithm seed.
    pub spec: &'static str,
    /// Refuse to report unless the graph is in the paper's regime
    /// (Δ > log²n) and Algorithm 1's Phase I runs.
    pub paper_regime: bool,
}

/// The two workloads. Every workload runs the static cells, so the
/// paper measures exist on `churn` too; only `churn` has an edit stream
/// and runs the churn cells.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "dense-paper",
        spec: "regular:n=16384,d=256",
        paper_regime: true,
    },
    Workload {
        name: "churn",
        spec: "edits:base=gnp:n=65536,deg=8;batches=1024;ops=16",
        paper_regime: false,
    },
];

/// Static cells: registry algorithms run on the base graph.
pub const STATIC_CELLS: [&str; 4] = ["alg1", "alg2", "avg1", "luby"];

/// Churn cells: an incremental algorithm and the static cell whose MIS
/// of the same base graph it starts its edit stream from (what
/// `IncrementalAlgorithm::solve` would compute; the equivalence check
/// against `run_churn_on` proves it).
pub const CHURN_CELLS: [(&str, &str); 2] = [("inc-alg1", "alg1"), ("inc-luby", "luby")];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Shape of the base graph, recorded beside every result.
#[derive(Debug, Clone, Copy)]
pub struct GraphFacts {
    /// Nodes.
    pub n: usize,
    /// Directed edge slots of the CSR.
    pub directed_edges: usize,
    /// Δ.
    pub max_degree: usize,
}

impl GraphFacts {
    fn of(g: &Graph) -> GraphFacts {
        GraphFacts {
            n: g.n(),
            directed_edges: g.directed_m(),
            max_degree: g.max_degree(),
        }
    }

    /// log²n, base 2 — the degree above which Phase I runs.
    pub fn log2n_sq(&self) -> f64 {
        (self.n as f64).log2().powi(2)
    }

    /// Δ > log²n.
    pub fn in_paper_regime(&self) -> bool {
        self.max_degree as f64 > self.log2n_sq()
    }
}

/// One static cell's result.
#[derive(Debug)]
pub struct StaticCell {
    /// Registry name.
    pub name: &'static str,
    /// Wall time of the solve.
    pub solve_s: f64,
    /// The unified report.
    pub report: RunReport,
    /// Whether `props::is_mis` accepted the set.
    pub is_mis: bool,
    /// Gaps between consecutive `on_round` calls (traced passes only).
    pub round_gaps_ns: Vec<u64>,
}

/// One churn cell's result.
#[derive(Debug)]
pub struct ChurnCell {
    /// Incremental registry name.
    pub name: &'static str,
    /// Per batch: `next_batch` + repair (+ compaction when due), µs.
    pub batch_us: Vec<f64>,
    /// Repair accounting, folded exactly as `run_churn_on` folds it.
    pub stats: RepairStats,
    /// The final set.
    pub in_mis: Vec<bool>,
    /// Whether `DeltaGraph::check_mis` accepted the final set.
    pub is_mis: bool,
}

/// One pass of the whole path for a workload.
#[derive(Debug)]
pub struct Pass {
    /// Algorithm seed of the pass.
    pub seed: u64,
    /// Parse + generation (+ delta-graph construction with an edit
    /// stream).
    pub setup_s: f64,
    /// Whole pass.
    pub total_s: f64,
    /// Base graph shape.
    pub facts: GraphFacts,
    /// Static cells in [`STATIC_CELLS`] order.
    pub cells: Vec<StaticCell>,
    /// Churn cells in [`CHURN_CELLS`] order; none without an edit stream.
    pub churn: Vec<ChurnCell>,
    /// The edit stream the churn cells ran, if any.
    pub churn_spec: Option<ChurnSpec>,
}

impl Pass {
    /// Solve wall time: every static solve plus every churn batch.
    pub fn solve_s(&self) -> f64 {
        let statics: f64 = self.cells.iter().map(|c| c.solve_s).sum();
        let batches: f64 = self.churn.iter().flat_map(|c| &c.batch_us).sum();
        statics + batches * 1e-6
    }

    /// Operations checked: one per static cell, one per churn cell (its
    /// final set).
    pub fn attempted(&self) -> u64 {
        (self.cells.len() + self.churn.len()) as u64
    }

    /// Operations whose output failed the independent MIS check.
    pub fn failed(&self) -> u64 {
        (self.cells.iter().filter(|c| !c.is_mis).count()
            + self.churn.iter().filter(|c| !c.is_mis).count()) as u64
    }

    /// The static cell named `name`.
    pub fn cell(&self, name: &str) -> &StaticCell {
        self.cells
            .iter()
            .find(|c| c.name == name)
            .expect("every static cell runs in every pass")
    }
}

/// A failed pass: an engine error or a malformed spec. Either way every
/// operation of the pass counts as failed.
#[derive(Debug)]
pub struct PassError(pub String);

impl From<SimError> for PassError {
    fn from(e: SimError) -> PassError {
        PassError(format!("engine error: {e}"))
    }
}

/// Runs one pass of `w` with algorithm seed `seed`.
///
/// # Errors
///
/// [`PassError`] on a malformed spec or an engine error.
pub fn run_pass(w: &Workload, seed: u64, tracer: &mut Tracer) -> Result<Pass, PassError> {
    let t0 = now();
    tracer.open(Layer::Harness, "pass");
    let spec: WorkloadSpec = tracer
        .span(Layer::Workload, "parse", |_| w.spec.parse())
        .map_err(|e| PassError(format!("spec {:?}: {e}", w.spec)))?;
    let base = tracer.span(Layer::Generators, "generate", |_| spec.build());
    // With an edit stream, one delta graph per churn cell; the last one
    // takes the base graph, whose untouched CSR the static cells run on
    // first.
    let (mut graphs, plain) = if spec.churn.is_some() {
        let graphs = tracer.span(Layer::Delta, "delta_new", |_| {
            let mut v: Vec<DeltaGraph> = (1..CHURN_CELLS.len())
                .map(|_| DeltaGraph::new(base.clone()))
                .collect();
            v.push(DeltaGraph::new(base));
            v
        });
        (graphs, None)
    } else {
        (Vec::new(), Some(base))
    };
    let setup_s = secs_since(t0);
    let cfg = RunConfig::seeded(seed);
    let g = match &plain {
        Some(g) => g,
        None => graphs
            .last()
            .expect("one delta graph per churn cell")
            .base(),
    };
    let facts = GraphFacts::of(g);
    let cells = run_static(g, &cfg, w.name, tracer)?;
    let mut churn = Vec::with_capacity(graphs.len());
    if let Some(churn_spec) = spec.churn {
        for ((inc_name, from), dg) in CHURN_CELLS.iter().zip(graphs.iter_mut()) {
            let inc = incremental::from_name(inc_name).expect("churn cells are registered");
            let start = cells
                .iter()
                .find(|c| c.name == *from)
                .expect("churn cells start from a static cell")
                .report
                .in_mis
                .clone();
            churn.push(run_churn(
                inc, inc_name, dg, start, churn_spec, &cfg, tracer,
            )?);
        }
    }
    tracer.close();
    Ok(Pass {
        seed,
        setup_s,
        total_s: secs_since(t0),
        facts,
        cells,
        churn,
        churn_spec: spec.churn,
    })
}

/// Runs every static cell on `g`: solve, independent check, report.
///
/// # Errors
///
/// Propagates engine errors.
pub fn run_static(
    g: &Graph,
    cfg: &RunConfig,
    label: &str,
    tracer: &mut Tracer,
) -> Result<Vec<StaticCell>, PassError> {
    let mut cells = Vec::with_capacity(STATIC_CELLS.len());
    for name in STATIC_CELLS {
        tracer.begin_cell(name);
        tracer.open(Layer::Registry, "cell");
        let t = now();
        let (report, round_gaps_ns) = if tracer.on() {
            solve_traced(name, g, &cfg.sim, tracer)?
        } else {
            let alg = registry::from_name(name).expect("static cells are registered");
            (alg.run(g, cfg)?, Vec::new())
        };
        let solve_s = secs_since(t);
        let is_mis = tracer.span(Layer::Props, "is_mis", |_| props::is_mis(g, &report.in_mis));
        let rendered = tracer.span(Layer::Report, "render_trace", |_| {
            render_trace(&report, label, cfg.sim.seed, cfg.sim.threads)
        });
        std::hint::black_box(rendered);
        tracer.close();
        tracer.end_cell();
        cells.push(StaticCell {
            name,
            solve_s,
            report,
            is_mis,
            round_gaps_ns,
        });
    }
    Ok(cells)
}

/// A static solve through the `_observed` entry point the registry
/// wraps, with the benchmark's [`RoundClock`] attached; the phase marks
/// become spans. Produces the same report `Algorithm::run` does (the
/// trace run checks it).
fn solve_traced(
    name: &str,
    g: &Graph,
    sim: &SimConfig,
    tracer: &mut Tracer,
) -> Result<(RunReport, Vec<u64>), SimError> {
    tracer.open(Layer::Registry, "solve");
    let mut clock = RoundClock::new(tracer);
    let report = match name {
        "alg1" => RunReport::from_mis_report(
            name,
            energy_mis::alg1::run_algorithm1_observed(g, &Alg1Params::default(), sim, &mut clock)?,
            None,
        ),
        "alg2" => RunReport::from_mis_report(
            name,
            energy_mis::alg2::run_algorithm2_observed(g, &Alg2Params::default(), sim, &mut clock)?,
            None,
        ),
        "avg1" => RunReport::from_mis_report(
            name,
            energy_mis::avg_energy::run_avg_energy_observed(
                g,
                &Alg1Params::default(),
                &AvgEnergyParams::default(),
                sim,
                &mut clock,
            )?,
            None,
        ),
        "luby" => {
            // Luby has no pipeline to announce its phase; the registry
            // announces it the same way.
            congest_sim::RoundObserver::on_phase(&mut clock, name);
            RunReport::from_mis_run(
                name,
                g,
                mis_baselines::luby_observed(g, sim, &mut clock)?,
                None,
            )
        }
        other => unreachable!("no traced entry point for static cell {other}"),
    };
    let end_ns = tracer.ns();
    let host = if name == "luby" {
        Layer::Baselines
    } else {
        Layer::Core
    };
    tracer.add_phases(&clock, end_ns, host);
    tracer.close();
    Ok((report, clock.gaps_ns))
}

/// Overlay size at which `run_churn_on` compacts the delta graph.
fn compact_threshold(n: usize) -> usize {
    (n / 16).max(32)
}

/// The timed churn loop. It mirrors `run_churn_on` step for step — the
/// same per-batch salts, the default `repair` (`plan_repair`, then the
/// base run on `plan.sub`) split open so each half gets its own span,
/// and compaction at the same overlay size — starting from the static
/// cell's set instead of a second solve of the same graph.
///
/// # Errors
///
/// Propagates planner and engine errors.
pub fn run_churn(
    inc: &dyn IncrementalAlgorithm,
    name: &'static str,
    dg: &mut DeltaGraph,
    mut in_mis: Vec<bool>,
    churn: ChurnSpec,
    cfg: &RunConfig,
    tracer: &mut Tracer,
) -> Result<ChurnCell, PassError> {
    tracer.begin_cell(name);
    tracer.open(Layer::Incremental, "churn");
    let mut stream = ChurnStream::new(churn);
    let mut stats = RepairStats::default();
    let mut batch_us = Vec::with_capacity(churn.batches as usize);
    for b in 0..u64::from(churn.batches) {
        let t = now();
        tracer.open(Layer::Incremental, "batch");
        let applied = tracer.span(Layer::Delta, "next_batch", |_| stream.next_batch(dg))?;
        let mut sub_cfg = cfg.clone();
        sub_cfg.sim = cfg
            .sim
            .with_salt(cfg.sim.salt ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(b + 1));
        sub_cfg.telemetry = false;
        let plan = tracer.span(Layer::Repair, "plan_repair", |_| {
            plan_repair(dg, &applied, &in_mis)
        })?;
        let (affected, metrics) = if plan.is_trivial() {
            in_mis = plan.merge(&[]);
            (0, Metrics::new(0))
        } else {
            let sub = tracer.span(Layer::Incremental, "subrun", |_| {
                inc.base().run(&plan.sub, &sub_cfg)
            })?;
            in_mis = plan.merge(&sub.in_mis);
            (plan.affected(), sub.metrics)
        };
        stats.record(
            applied.changes() as u64,
            plan.demoted.len() as u64,
            affected as u64,
            &metrics,
        );
        if dg.overlay_edits() >= compact_threshold(dg.base().n()) {
            tracer.span(Layer::Delta, "compact", |_| dg.compact());
        }
        tracer.close();
        batch_us.push(secs_since(t) * 1e6);
    }
    let is_mis = tracer.span(Layer::Delta, "check_mis", |_| {
        dg.check_mis(&in_mis).is_mis()
    });
    tracer.close();
    tracer.end_cell();
    Ok(ChurnCell {
        name,
        batch_us,
        stats,
        in_mis,
        is_mis,
    })
}

/// Replays churn `cells` (the churn cells of a pass with algorithm seed
/// `seed` over edit stream `churn`) through `run_churn_on` on a fresh
/// copy of the base graph and checks each ends with the same set and
/// the same `RepairStats`, so the timed loop cannot drift from the
/// program. Nothing to check without an edit stream.
///
/// # Errors
///
/// A description of the first mismatch or engine error.
pub fn check_churn_equivalence(
    w: &Workload,
    seed: u64,
    churn: Option<ChurnSpec>,
    cells: &[ChurnCell],
) -> Result<(), String> {
    let Some(churn) = churn else {
        return Ok(());
    };
    let spec: WorkloadSpec = w.spec.parse().map_err(|e| format!("{e}"))?;
    let base = spec.build();
    let cfg = RunConfig::seeded(seed);
    for cell in cells {
        let inc = incremental::from_name(cell.name).expect("churn cells are registered");
        let report = mis_runner::run_churn_on(inc, base.clone(), churn, &cfg)
            .map_err(|e| format!("run_churn_on({}): {e}", cell.name))?;
        if report.in_mis != cell.in_mis {
            return Err(format!(
                "{}: final set differs from run_churn_on",
                cell.name
            ));
        }
        if report.repair != Some(cell.stats) {
            return Err(format!(
                "{}: RepairStats differ from run_churn_on: {:?} vs {:?}",
                cell.name, cell.stats, report.repair
            ));
        }
    }
    Ok(())
}

/// Checks the paper-regime guard of `w` on `pass`.
///
/// # Errors
///
/// Why the pass fell out of the paper's regime.
pub fn check_paper_regime(w: &Workload, pass: &Pass) -> Result<(), String> {
    if !w.paper_regime {
        return Ok(());
    }
    let f = pass.facts;
    if !f.in_paper_regime() {
        return Err(format!(
            "{}: Δ = {} ≤ log²n = {:.1}; not in the paper's regime",
            w.name,
            f.max_degree,
            f.log2n_sq()
        ));
    }
    let iters = pass
        .cell("alg1")
        .report
        .extras
        .get("phase1_iterations")
        .copied()
        .unwrap_or(0.0);
    if iters <= 0.0 {
        return Err(format!("{}: alg1 ran no Phase I iterations", w.name));
    }
    Ok(())
}

/// The `dense-paper` seed-0 paper measures (rounds, max awake, avg awake
/// to two decimals) recorded in ROADMAP item 2.
pub const DENSE_SEED0_PINS: [(&str, u64, u64, f64); 4] = [
    ("alg1", 207, 39, 3.21),
    ("alg2", 202, 43, 7.36),
    ("avg1", 238, 34, 3.05),
    ("luby", 54, 54, 9.83),
];

/// Checks `pass` (a `dense-paper` pass at seed 0) against
/// [`DENSE_SEED0_PINS`].
///
/// # Errors
///
/// The first measure that differs.
pub fn check_seed0_pins(pass: &Pass) -> Result<(), String> {
    for (name, rounds, max_awake, avg_awake) in DENSE_SEED0_PINS {
        let m = &pass.cell(name).report.metrics;
        let got = (m.elapsed_rounds, m.max_awake(), m.avg_awake());
        if got.0 != rounds || got.1 != max_awake || (got.2 - avg_awake).abs() > 0.005 {
            return Err(format!(
                "dense-paper seed 0 {name}: rounds/max/avg awake {}/{}/{:.2}, pinned {rounds}/{max_awake}/{avg_awake}",
                got.0, got.1, got.2
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_unique_and_specs_parse() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            let spec: WorkloadSpec = w.spec.parse().expect("spec parses");
            assert_eq!(spec.churn.is_some(), w.name == "churn", "{}", w.name);
        }
    }

    #[test]
    fn self_times_cover_the_root() {
        let mut t = Tracer::new(true);
        t.span(Layer::Harness, "root", |t| {
            t.span(Layer::Workload, "a", |_| std::hint::black_box(0));
            t.span(Layer::Props, "b", |_| std::hint::black_box(1));
        });
        let total = t.spans[0].secs();
        let sum: f64 = t.self_times(0..t.spans.len()).values().sum();
        assert!((sum - total).abs() < 1e-9, "{sum} vs {total}");
    }

    /// The ROADMAP's seed-0 paper measures on `dense-paper`. Release
    /// only: a debug-build solve of this graph takes minutes.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "run with cargo test --release")]
    fn dense_paper_seed0_matches_the_pins() {
        let w = workload("dense-paper").expect("registered");
        let pass = run_pass(&w, 0, &mut Tracer::new(false)).expect("pass runs");
        check_paper_regime(&w, &pass).expect("paper regime");
        check_seed0_pins(&pass).expect("pins hold");
        assert_eq!(pass.failed(), 0);
    }

    /// The timed churn loop ends where `run_churn_on` does. Release only.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "run with cargo test --release")]
    fn churn_loop_matches_run_churn_on() {
        let w = workload("churn").expect("registered");
        let pass = run_pass(&w, 1, &mut Tracer::new(false)).expect("pass runs");
        assert_eq!(pass.churn.len(), CHURN_CELLS.len());
        assert_eq!(pass.failed(), 0);
        check_churn_equivalence(&w, pass.seed, pass.churn_spec, &pass.churn)
            .expect("timed loop matches run_churn_on");
    }
}
