//! Declarative scenarios: algorithm × workload × seed sweep in one
//! value.

use crate::algorithm::UnknownAlgorithm;
use crate::report::RunReport;
use crate::workload::{ParseWorkloadError, WorkloadSpec};
use crate::RunConfig;
use congest_sim::SimError;
use std::ops::Range;

/// One cell-row of the experimental matrix: run a registered algorithm
/// on a described workload across a seed range, on a chosen engine.
///
/// ```
/// use mis_runner::Scenario;
///
/// let reports = Scenario::parse("luby", "cycle:n=64")
///     .unwrap()
///     .seeds(0..3)
///     .run()
///     .unwrap();
/// assert_eq!(reports.len(), 3);
/// assert!(reports.iter().all(|r| r.is_mis()));
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Registry name of the algorithm to run.
    pub algo: String,
    /// The workload to run it on.
    pub workload: WorkloadSpec,
    /// Algorithm seeds to sweep (one report per seed).
    pub seeds: Range<u64>,
    /// Worker threads (`0` and `1` = one shard); never observable in
    /// the reports, per the engine's determinism contract.
    pub threads: usize,
    /// Collect per-round time series into every report.
    pub collect_rounds: bool,
    /// Attach a telemetry artifact to every report (see
    /// [`RunConfig::telemetry`]).
    pub telemetry: bool,
}

impl Scenario {
    /// A scenario with one seed (0), one shard (`threads` 0), no round
    /// collection.
    pub fn new(algo: impl Into<String>, workload: WorkloadSpec) -> Scenario {
        Scenario {
            algo: algo.into(),
            workload,
            seeds: 0..1,
            threads: 0,
            collect_rounds: false,
            telemetry: false,
        }
    }

    /// [`Scenario::new`] from textual parts (the CLI path): validates
    /// the algorithm name against the registry the workload calls for
    /// and parses the workload grammar. `edits:` workloads require an
    /// incremental algorithm; static workloads accept either (an
    /// incremental algorithm solves once, without repairs).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] on an unknown algorithm or malformed
    /// workload spec.
    pub fn parse(algo: &str, workload: &str) -> Result<Scenario, ScenarioError> {
        let spec = workload.parse::<WorkloadSpec>()?;
        // Fail fast on typos, against the right registry.
        if spec.churn.is_some() || crate::registry::from_name(algo).is_err() {
            let _ = crate::incremental::from_name(algo)?;
        }
        Ok(Scenario::new(algo, spec))
    }

    /// Sets the algorithm seed range.
    #[must_use]
    pub fn seeds(mut self, seeds: Range<u64>) -> Scenario {
        self.seeds = seeds;
        self
    }

    /// Sets the worker-thread count (`0` = sequential).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Scenario {
        self.threads = threads;
        self
    }

    /// Switches per-round time-series collection on or off.
    #[must_use]
    pub fn collect_rounds(mut self, yes: bool) -> Scenario {
        self.collect_rounds = yes;
        self
    }

    /// Switches telemetry collection on or off.
    #[must_use]
    pub fn telemetry(mut self, yes: bool) -> Scenario {
        self.telemetry = yes;
        self
    }

    /// Builds the workload once and runs the algorithm for every seed,
    /// returning one [`RunReport`] per seed in order.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] on an unknown algorithm name or an
    /// engine error in any run.
    pub fn run(&self) -> Result<Vec<RunReport>, ScenarioError> {
        self.run_on(&self.workload.build())
    }

    /// [`Scenario::run`] on a caller-built graph — for sweeps that run
    /// *several* scenarios on the same workload (e.g. the whole registry,
    /// as the scenario CLI does): build the graph once, share it across
    /// scenarios. `g` must be the graph `self.workload` describes (its
    /// *base* graph for `edits:` workloads) for the reports to be labeled
    /// truthfully; this is not checked.
    ///
    /// Dispatch follows [`Scenario::parse`]: a churn workload resolves
    /// `algo` in the incremental registry and drives the full edit
    /// stream per seed; a static workload prefers the static registry
    /// and falls back to a solve-only incremental run.
    ///
    /// # Errors
    ///
    /// Same contract as [`Scenario::run`].
    pub fn run_on(&self, g: &mis_graphs::Graph) -> Result<Vec<RunReport>, ScenarioError> {
        let mut reports = Vec::with_capacity(self.seeds.clone().count());
        // The workload's channel arm expands against the concrete graph
        // size, then applies identically to every seed in the sweep.
        let channel = self.workload.channel.to_model(g.n());
        let configs = self.seeds.clone().map(|seed| {
            RunConfig::seeded(seed)
                .threads(self.threads)
                .collect_rounds(self.collect_rounds)
                .telemetry(self.telemetry)
                .channel(channel.clone())
        });
        if let Some(churn) = self.workload.churn {
            let alg = crate::incremental::from_name(&self.algo)?;
            for cfg in configs {
                reports.push(crate::incremental::run_churn_on(
                    alg,
                    g.clone(),
                    churn,
                    &cfg,
                )?);
            }
        } else if let Ok(alg) = crate::registry::from_name(&self.algo) {
            for cfg in configs {
                reports.push(alg.run(g, &cfg)?);
            }
        } else {
            let alg = crate::incremental::from_name(&self.algo)?;
            let dg = mis_graphs::DeltaGraph::new(g.clone());
            for cfg in configs {
                reports.push(alg.solve(&dg, &cfg)?);
            }
        }
        Ok(reports)
    }
}

/// Error running a [`Scenario`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The algorithm name is not registered.
    UnknownAlgorithm(UnknownAlgorithm),
    /// The workload spec did not parse.
    Workload(ParseWorkloadError),
    /// The engine rejected a run.
    Sim(SimError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::UnknownAlgorithm(e) => write!(f, "{e}"),
            ScenarioError::Workload(e) => write!(f, "workload: {e}"),
            ScenarioError::Sim(e) => write!(f, "engine: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<UnknownAlgorithm> for ScenarioError {
    fn from(e: UnknownAlgorithm) -> ScenarioError {
        ScenarioError::UnknownAlgorithm(e)
    }
}

impl From<ParseWorkloadError> for ScenarioError {
    fn from(e: ParseWorkloadError) -> ScenarioError {
        ScenarioError::Workload(e)
    }
}

impl From<SimError> for ScenarioError {
    fn from(e: SimError) -> ScenarioError {
        ScenarioError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ChannelSpec;

    #[test]
    fn scenario_sweeps_seeds() {
        let reports = Scenario::parse("permutation", "path:n=40")
            .unwrap()
            .seeds(3..6)
            .run()
            .unwrap();
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert!(r.is_mis());
            assert_eq!(r.algorithm, "permutation");
        }
    }

    #[test]
    fn scenario_rejects_unknowns_eagerly() {
        assert!(matches!(
            Scenario::parse("quantum", "path:n=10"),
            Err(ScenarioError::UnknownAlgorithm(_))
        ));
        assert!(matches!(
            Scenario::parse("luby", "path"),
            Err(ScenarioError::Workload(_))
        ));
    }

    #[test]
    fn scenario_threads_are_unobservable() {
        let seq = Scenario::parse("luby", "gnp:n=128,deg=6")
            .unwrap()
            .seeds(0..2)
            .run()
            .unwrap();
        let par = Scenario::parse("luby", "gnp:n=128,deg=6")
            .unwrap()
            .seeds(0..2)
            .threads(2)
            .run()
            .unwrap();
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.in_mis, b.in_mis);
            assert_eq!(a.metrics, b.metrics);
        }
    }

    #[test]
    fn churn_scenarios_dispatch_to_the_incremental_registry() {
        let reports = Scenario::parse("inc-luby", "edits:base=cycle:n=48;batches=3;ops=5")
            .unwrap()
            .seeds(0..2)
            .run()
            .unwrap();
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(r.is_mis());
            assert_eq!(r.algorithm, "inc-luby");
            assert_eq!(r.repair.unwrap().batches, 3);
        }
        // A static algorithm on a churn workload is rejected eagerly,
        // pointing at its wrapper.
        let err = Scenario::parse("luby", "edits:base=cycle:n=48;batches=3;ops=5").unwrap_err();
        match err {
            ScenarioError::UnknownAlgorithm(e) => {
                assert_eq!(e.suggestion.as_deref(), Some("inc-luby"));
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn channel_arm_reaches_the_engine_and_stays_thread_invariant() {
        let run = |threads| {
            Scenario::parse("luby", "gnp:n=96,deg=6;channel=loss:p=0.3")
                .unwrap()
                .threads(threads)
                .run()
                .unwrap()
        };
        let seq = run(0);
        assert!(
            seq[0].metrics.messages_dropped > 0,
            "loss channel must reach the engine"
        );
        let par = run(2);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.in_mis, b.in_mis);
            assert_eq!(a.metrics, b.metrics);
        }
        // An invalid engine config surfaces as a scenario error.
        let mut s = Scenario::parse("luby", "path:n=16").unwrap();
        s.workload.channel = ChannelSpec::Loss { p_ppm: 2_000_000 };
        assert!(matches!(s.run(), Err(ScenarioError::Sim(_))));
    }

    #[test]
    fn incremental_algorithms_solve_static_workloads() {
        let reports = Scenario::parse("inc-permutation", "path:n=32")
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].is_mis());
        assert!(reports[0].repair.is_none(), "no edits, no repair stats");
    }

    #[test]
    fn error_display_names_the_culprit() {
        let e = Scenario::parse("warp-drive", "path:n=4").unwrap_err();
        assert!(e.to_string().contains("warp-drive"));
        let e = Scenario::parse("luby", "path:n=").unwrap_err();
        assert!(e.to_string().contains("workload"), "{e}");
    }
}
