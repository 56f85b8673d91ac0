//! The object-safe algorithm abstraction and its run configuration.

use crate::report::RunReport;
use congest_sim::{SimConfig, SimError};
use mis_graphs::Graph;

/// Configuration of one algorithm run under the unified API.
///
/// Wraps the engine's [`SimConfig`] (seed, salt, round cap, bandwidth
/// policy, worker threads) and adds runner-level switches. Built
/// fluently:
///
/// ```
/// use mis_runner::RunConfig;
/// let cfg = RunConfig::seeded(7).threads(4).collect_rounds(true);
/// assert_eq!(cfg.sim.seed, 7);
/// assert_eq!(cfg.sim.threads, 4);
/// assert!(cfg.collect_rounds);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunConfig {
    /// Engine configuration every simulated phase runs under.
    pub sim: SimConfig,
    /// Collect the per-round awake/message time series into
    /// [`RunReport::rounds`] (identical across thread counts per the
    /// engine's determinism contract).
    pub collect_rounds: bool,
    /// Build a [`congest_sim::Telemetry`] snapshot into
    /// [`RunReport::telemetry`]: counters, engine stats, energy
    /// histograms, and wall-clock timings. Counters and histograms are
    /// bit-identical across thread counts; timings and the engine
    /// section are not and never enter fingerprints. Off by default —
    /// the disabled path allocates nothing.
    pub telemetry: bool,
}

impl From<SimConfig> for RunConfig {
    fn from(sim: SimConfig) -> RunConfig {
        RunConfig {
            sim,
            collect_rounds: false,
            telemetry: false,
        }
    }
}

impl RunConfig {
    /// Config with the given master seed and defaults elsewhere.
    pub fn seeded(seed: u64) -> RunConfig {
        SimConfig::seeded(seed).into()
    }

    /// Sets the worker count (`0` and `1` = one shard on the calling
    /// thread); results are bit-identical for every value.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> RunConfig {
        self.sim.threads = threads;
        self
    }

    /// Switches per-round time-series collection on or off.
    #[must_use]
    pub fn collect_rounds(mut self, yes: bool) -> RunConfig {
        self.collect_rounds = yes;
        self
    }

    /// Switches telemetry collection on or off (see
    /// [`RunConfig::telemetry`]).
    #[must_use]
    pub fn telemetry(mut self, yes: bool) -> RunConfig {
        self.telemetry = yes;
        self
    }

    /// Sets the channel model every simulated phase delivers messages
    /// through (default [`congest_sim::ChannelModel::Ideal`]).
    #[must_use]
    pub fn channel(mut self, channel: congest_sim::ChannelModel) -> RunConfig {
        self.sim.channel = channel;
        self
    }
}

/// A distributed (or oracle) MIS algorithm behind one type-erased
/// interface: every entry of the registry — the paper's Algorithm 1/2,
/// the Section 4 average-energy variants, Luby, the permutation variant,
/// and the sequential greedy oracle — runs through this trait and
/// returns the same [`RunReport`].
///
/// The trait is object-safe; resolve registry entries by name with
/// [`<dyn Algorithm>::from_name`](trait.Algorithm.html#method.from_name)
/// (or [`crate::registry::from_name`]):
///
/// ```
/// use mis_runner::{Algorithm, RunConfig, WorkloadSpec};
///
/// let g = "gnp:n=256,deg=8".parse::<WorkloadSpec>().unwrap().build();
/// let report = <dyn Algorithm>::from_name("luby")
///     .unwrap()
///     .run(&g, &RunConfig::seeded(7))
///     .unwrap();
/// assert!(report.is_mis());
/// ```
pub trait Algorithm: Send + Sync + std::fmt::Debug {
    /// Stable registry name (`alg1`, `alg2`, `avg1`, `avg2`, `luby`,
    /// `permutation`, `greedy`).
    fn name(&self) -> &str;

    /// Runs the algorithm on `g` under `cfg`, returning the unified
    /// report. Metrics are bit-identical for every
    /// [`SimConfig::threads`] value (the engine's determinism contract).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the engine.
    fn run(&self, g: &Graph, cfg: &RunConfig) -> Result<RunReport, SimError>;
}

impl dyn Algorithm {
    /// Looks up a registered algorithm by name; the type-erased entry
    /// point of the whole scenario matrix.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownAlgorithm`] (listing the valid names) when
    /// `name` is not registered.
    pub fn from_name(name: &str) -> Result<&'static dyn Algorithm, UnknownAlgorithm> {
        crate::registry::from_name(name)
    }
}

/// Error returned when an algorithm name is not in the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownAlgorithm {
    /// The name that failed to resolve.
    pub name: String,
    /// The nearest registered name, when one is close enough to look
    /// like a typo (`"alg_1"` → `"alg1"`).
    pub suggestion: Option<String>,
}

impl UnknownAlgorithm {
    /// Builds the error for `name`, deriving [`UnknownAlgorithm::suggestion`]
    /// from `candidates`: a candidate equal up to case and punctuation
    /// wins; otherwise the closest within Levenshtein distance 2 (ties
    /// broken by candidate order).
    pub(crate) fn with_suggestion_from(name: &str, candidates: &[&str]) -> UnknownAlgorithm {
        let suggestion = nearest_name(name, candidates).map(str::to_string);
        UnknownAlgorithm {
            name: name.to_string(),
            suggestion,
        }
    }
}

impl std::fmt::Display for UnknownAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown algorithm {:?} (registered: {}; incremental: {})",
            self.name,
            crate::registry::names().join(", "),
            crate::incremental::names().join(", ")
        )?;
        if let Some(s) = &self.suggestion {
            write!(f, " — did you mean {s:?}?")?;
        }
        Ok(())
    }
}

impl std::error::Error for UnknownAlgorithm {}

/// The candidate closest to `name`: normalized (case/punctuation
/// insensitive) equality first, then minimum Levenshtein distance ≤ 2.
fn nearest_name<'a>(name: &str, candidates: &[&'a str]) -> Option<&'a str> {
    fn normalize(s: &str) -> String {
        s.chars()
            .filter(char::is_ascii_alphanumeric)
            .map(|c| c.to_ascii_lowercase())
            .collect()
    }
    let norm = normalize(name);
    if let Some(&hit) = candidates.iter().find(|c| normalize(c) == norm) {
        return Some(hit);
    }
    candidates
        .iter()
        .map(|&c| (levenshtein(name, c), c))
        .filter(|&(d, _)| d <= 2)
        .min_by_key(|&(d, _)| d)
        .map(|(_, c)| c)
}

/// Plain dynamic-programming edit distance, small enough for registry
/// name lookups.
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = Vec::with_capacity(b.len() + 1);
        cur.push(i + 1);
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur.push((prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builder_chains() {
        let cfg = RunConfig::seeded(3).threads(2).collect_rounds(true);
        assert_eq!(cfg.sim.seed, 3);
        assert_eq!(cfg.sim.threads, 2);
        assert!(cfg.collect_rounds);
        let back = RunConfig::from(cfg.sim.clone());
        assert!(!back.collect_rounds);
    }

    #[test]
    fn from_name_resolves_and_rejects() {
        assert_eq!(<dyn Algorithm>::from_name("alg1").unwrap().name(), "alg1");
        let err = <dyn Algorithm>::from_name("simulated-annealing").unwrap_err();
        assert!(err.to_string().contains("luby"), "{err}");
    }

    #[test]
    fn unknown_algorithm_suggests_near_misses() {
        // Punctuation/case normalization: "alg_1" → "alg1".
        let err = <dyn Algorithm>::from_name("alg_1").unwrap_err();
        assert_eq!(err.suggestion.as_deref(), Some("alg1"));
        assert!(err.to_string().contains("did you mean \"alg1\""), "{err}");
        // Small edit distance: "lubyy" → "luby".
        let err = <dyn Algorithm>::from_name("lubyy").unwrap_err();
        assert_eq!(err.suggestion.as_deref(), Some("luby"));
        // Nothing close: no suggestion, no trailing hint.
        let err = <dyn Algorithm>::from_name("simulated-annealing").unwrap_err();
        assert_eq!(err.suggestion, None);
        assert!(!err.to_string().contains("did you mean"), "{err}");
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("alg1", "alg2"), 1);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
    }
}
