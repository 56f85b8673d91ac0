//! Multi-phase accounting.

use crate::engine::{Protocol, SimConfig, SimResult};
use crate::error::SimError;
use crate::metrics::Metrics;
use crate::observer::RoundObserver;
use crate::par::{run, run_observed};
use mis_graphs::Graph;

/// Chains protocol phases on one graph, accumulating time and energy the
/// way the paper's theorems add phase budgets: elapsed rounds add up and
/// each node's awake rounds add up across phases.
///
/// Each phase gets a distinct RNG salt automatically, so phases draw
/// independent randomness from the same master seed.
///
/// # Example
///
/// ```
/// use congest_sim::{Inbox, InitApi, Pipeline, Protocol, RecvApi, SendApi, SimConfig};
/// use mis_graphs::{generators, NodeId};
///
/// struct OneRound;
/// impl Protocol for OneRound {
///     type State = ();
///     type Msg = ();
///     fn init(&self, _n: NodeId, api: &mut InitApi<'_>) { api.wake_at(0); }
///     fn send(&self, _s: &mut (), _api: &mut SendApi<'_, ()>) {}
///     fn recv(&self, _s: &mut (), _i: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
/// }
///
/// let g = generators::cycle(5);
/// let mut pipe = Pipeline::new(&g, SimConfig::seeded(1));
/// pipe.run_phase("a", &OneRound).unwrap();
/// pipe.run_phase("b", &OneRound).unwrap();
/// assert_eq!(pipe.metrics().elapsed_rounds, 2);
/// assert_eq!(pipe.metrics().max_awake(), 2);
/// assert_eq!(pipe.phases().len(), 2);
/// ```
pub struct Pipeline<'g, 'o> {
    graph: &'g Graph,
    cfg: SimConfig,
    next_salt: u64,
    total: Metrics,
    phases: Vec<(String, Metrics)>,
    /// Per-configuration engine stats accumulated across phases (cut
    /// traffic adds, peaks max; see [`crate::telemetry::EngineStats`]).
    engine: crate::telemetry::EngineStats,
    /// Optional per-round event sink; phases announce themselves through
    /// [`RoundObserver::on_phase`] before their rounds stream.
    observer: Option<&'o mut dyn RoundObserver>,
}

impl std::fmt::Debug for Pipeline<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("cfg", &self.cfg)
            .field("next_salt", &self.next_salt)
            .field("phases", &self.phases.len())
            .field("observed", &self.observer.is_some())
            .finish_non_exhaustive()
    }
}

impl<'g, 'o> Pipeline<'g, 'o> {
    /// Creates a pipeline over `graph`; `cfg.salt` is the salt of the
    /// first phase, later phases increment it.
    pub fn new(graph: &'g Graph, cfg: SimConfig) -> Pipeline<'g, 'o> {
        Pipeline {
            graph,
            next_salt: cfg.salt,
            cfg,
            total: Metrics::new(graph.n()),
            phases: Vec::new(),
            engine: crate::telemetry::EngineStats::default(),
            observer: None,
        }
    }

    /// Attaches a round observer: every subsequent phase announces
    /// itself via [`RoundObserver::on_phase`] and streams one
    /// [`crate::RoundEvent`] per busy round. The stream is identical
    /// for every [`SimConfig::threads`] value (the engine's
    /// determinism contract; see [`crate::observer`]).
    pub fn observe(&mut self, observer: &'o mut dyn RoundObserver) {
        self.observer = Some(observer);
    }

    /// Runs one phase, folds its metrics into the total, and returns the
    /// final per-node states.
    ///
    /// Phases execute on [`SimConfig::threads`] shards (one on the
    /// calling thread at 0 or 1) with bit-identical results for every
    /// value.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the engine.
    pub fn run_phase<P>(&mut self, name: &str, protocol: &P) -> Result<Vec<P::State>, SimError>
    where
        P: Protocol + Sync,
        P::State: Send,
        P::Msg: Send,
    {
        let cfg = self.cfg.with_salt(self.next_salt);
        self.next_salt += 1;
        let SimResult {
            states,
            metrics,
            stats,
        } = match self.observer.as_deref_mut() {
            Some(obs) => {
                obs.on_phase(name);
                run_observed(self.graph, protocol, &cfg, obs)?
            }
            None => run(self.graph, protocol, &cfg)?,
        };
        self.total.absorb(&metrics);
        self.engine.absorb(&stats);
        self.phases.push((name.to_string(), metrics));
        Ok(states)
    }

    /// The graph this pipeline runs on.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Aggregate metrics across all phases run so far.
    pub fn metrics(&self) -> &Metrics {
        &self.total
    }

    /// Per-phase metrics in execution order.
    pub fn phases(&self) -> &[(String, Metrics)] {
        &self.phases
    }

    /// Per-configuration engine stats accumulated across all phases run
    /// so far (deterministic per thread count, not thread-invariant).
    pub fn engine_stats(&self) -> &crate::telemetry::EngineStats {
        &self.engine
    }

    /// Consumes the pipeline, returning aggregate and per-phase metrics.
    pub fn into_metrics(self) -> (Metrics, Vec<(String, Metrics)>) {
        (self.total, self.phases)
    }

    /// Consumes the pipeline, returning aggregate metrics, per-phase
    /// metrics, and the accumulated per-configuration engine stats.
    pub fn into_parts(
        self,
    ) -> (
        Metrics,
        Vec<(String, Metrics)>,
        crate::telemetry::EngineStats,
    ) {
        (self.total, self.phases, self.engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Inbox, InitApi, RecvApi, SendApi};
    use crate::NodeId;
    use mis_graphs::generators;
    use rand::Rng;

    /// Stays awake for `rounds` rounds doing nothing.
    struct Idle {
        rounds: u64,
    }
    impl Protocol for Idle {
        type State = ();
        type Msg = ();
        fn init(&self, _node: NodeId, api: &mut InitApi<'_>) {
            api.wake_range(0..self.rounds);
        }
        fn send(&self, _s: &mut (), _api: &mut SendApi<'_, ()>) {}
        fn recv(&self, _s: &mut (), _i: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
    }

    #[test]
    fn phases_accumulate() {
        let g = generators::path(4);
        let mut pipe = Pipeline::new(&g, SimConfig::seeded(3));
        pipe.run_phase("p1", &Idle { rounds: 5 }).unwrap();
        pipe.run_phase("p2", &Idle { rounds: 2 }).unwrap();
        assert_eq!(pipe.metrics().elapsed_rounds, 7);
        assert_eq!(pipe.metrics().max_awake(), 7);
        assert_eq!(pipe.phases()[0].1.elapsed_rounds, 5);
        assert_eq!(pipe.phases()[1].1.elapsed_rounds, 2);
        let (total, phases) = pipe.into_metrics();
        assert_eq!(total.elapsed_rounds, 7);
        assert_eq!(phases.len(), 2);
    }

    #[test]
    fn observer_gets_phase_marks_and_rounds() {
        let g = generators::path(4);
        let mut log = crate::RoundLog::new();
        {
            let mut pipe = Pipeline::new(&g, SimConfig::seeded(3));
            pipe.observe(&mut log);
            pipe.run_phase("p1", &Idle { rounds: 5 }).unwrap();
            pipe.run_phase("p2", &Idle { rounds: 2 }).unwrap();
        }
        assert_eq!(log.phases.len(), 2);
        assert_eq!(log.phases[0].name, "p1");
        assert_eq!(log.phases[0].rounds.len(), 5);
        assert_eq!(log.phases[1].name, "p2");
        assert_eq!(log.phases[1].rounds.len(), 2);
        assert!(log.events().all(|e| e.awake == 4));
    }

    #[test]
    fn phases_use_distinct_randomness() {
        struct Draw;
        impl Protocol for Draw {
            type State = u64;
            type Msg = ();
            fn init(&self, _node: NodeId, api: &mut InitApi<'_>) -> u64 {
                api.rng().gen()
            }
            fn send(&self, _s: &mut u64, _api: &mut SendApi<'_, ()>) {}
            fn recv(&self, _s: &mut u64, _i: Inbox<'_, ()>, _api: &mut RecvApi<'_>) {}
        }
        let g = generators::path(8);
        let mut pipe = Pipeline::new(&g, SimConfig::seeded(5));
        let a = pipe.run_phase("a", &Draw).unwrap();
        let b = pipe.run_phase("b", &Draw).unwrap();
        assert_ne!(a, b, "two phases drew identical randomness");
    }
}
