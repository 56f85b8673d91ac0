//! The benchmark's only wall-clock reads, and the span recorder built on
//! them.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer's public functions and from the engine's
//! [`RoundObserver`] hooks ([`RoundClock`]); nothing is traced inside
//! the program. A disabled [`Tracer`] records nothing, so the untraced
//! runs that give the end-to-end numbers pay only for the timings they
//! report.

use congest_sim::{RoundEvent, RoundObserver};
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

/// Reads the wall clock. Every timing the benchmark takes goes through
/// this one helper.
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    // lint:allow(det-wall-clock, reason = "benchmark harness timing; wall seconds are the measurement, never an engine input")
    Instant::now()
}

/// Seconds elapsed since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    now().duration_since(t0).as_secs_f64()
}

/// The program layer a span's self time is charged to, named after the
/// workspace module the wrapped call enters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own glue (the root span of a pass).
    Harness,
    /// `runner::workload` — spec parsing.
    Workload,
    /// `graphs::generators` — graph generation.
    Generators,
    /// `graphs::delta` — delta-graph construction, edits, compaction, checks.
    Delta,
    /// `graphs::partition` — `Graph::partition`.
    Partition,
    /// `graphs::props` — the independent MIS check.
    Props,
    /// `runner::registry` — a static cell outside its protocol phases.
    Registry,
    /// `core` — protocol time outside the round loop (init and post).
    Core,
    /// `baselines` — Luby's time outside the round loop.
    Baselines,
    /// `congest::engine` — the round loop (first to last busy round).
    Engine,
    /// `congest::repair` — `plan_repair`.
    Repair,
    /// `runner::incremental` — repair sub-runs and batch bookkeeping.
    Incremental,
    /// `runner::trace` — `render_trace`.
    Report,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 13] = [
        Layer::Harness,
        Layer::Workload,
        Layer::Generators,
        Layer::Delta,
        Layer::Partition,
        Layer::Props,
        Layer::Registry,
        Layer::Core,
        Layer::Baselines,
        Layer::Engine,
        Layer::Repair,
        Layer::Incremental,
        Layer::Report,
    ];

    /// Metric-name form of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Workload => "runner.workload",
            Layer::Generators => "graphs.generators",
            Layer::Delta => "graphs.delta",
            Layer::Partition => "graphs.partition",
            Layer::Props => "graphs.props",
            Layer::Registry => "runner.registry",
            Layer::Core => "core",
            Layer::Baselines => "baselines",
            Layer::Engine => "congest.engine",
            Layer::Repair => "congest.repair",
            Layer::Incremental => "runner.incremental",
            Layer::Report => "runner.report",
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran (`generate`, `phase1`, `plan_repair`, …).
    pub name: String,
    /// Layer its self time is charged to.
    pub layer: Layer,
    /// Index into [`Tracer::cells`] of the cell it belongs to.
    pub cell: Option<usize>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder; spans are written out once, when the
/// benchmark ends.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    /// Every span recorded so far, in opening order.
    pub spans: Vec<Span>,
    /// Cell names; a span's `cell` indexes this table (one id per cell).
    pub cells: Vec<String>,
    open: Vec<usize>,
    cell: Option<usize>,
}

impl Tracer {
    /// A recorder; `on = false` makes every method a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: now(),
            spans: Vec::new(),
            cells: Vec::new(),
            open: Vec::new(),
            cell: None,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the origin.
    pub fn ns(&self) -> u64 {
        u64::try_from(now().duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a new cell: spans opened until [`Tracer::end_cell`] carry
    /// its id.
    pub fn begin_cell(&mut self, name: &str) {
        if self.on {
            self.cells.push(name.to_string());
            self.cell = Some(self.cells.len() - 1);
        }
    }

    /// Ends the current cell.
    pub fn end_cell(&mut self) {
        self.cell = None;
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, layer: Layer, name: &str) {
        if self.on {
            let start_ns = self.ns();
            self.push(layer, name, start_ns, start_ns);
            self.open.push(self.spans.len() - 1);
        }
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if self.on {
            let end_ns = self.ns();
            let idx = self.open.pop().expect("close matches an open");
            self.spans[idx].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, layer: Layer, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.open(layer, name);
        let out = f(self);
        self.close();
        out
    }

    /// Records an already-closed interval under the innermost open span
    /// (or under `parent`), returning its index.
    fn push_under(
        &mut self,
        parent: Option<usize>,
        layer: Layer,
        name: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            cell: self.cell,
            parent: parent.or_else(|| self.open.last().copied()),
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    fn push(&mut self, layer: Layer, name: &str, start_ns: u64, end_ns: u64) -> usize {
        self.push_under(None, layer, name, start_ns, end_ns)
    }

    /// Turns the phase marks a [`RoundClock`] collected during one solve
    /// (which ended at `end_ns`) into spans under the innermost open
    /// span: per phase, `init` (phase start → first busy round) and
    /// `post` (last busy round → next phase) charged to `host`, and
    /// `rounds` (first → last busy round) charged to the engine.
    pub fn add_phases(&mut self, clock: &RoundClock, end_ns: u64, host: Layer) {
        if !self.on {
            return;
        }
        for (i, p) in clock.phases.iter().enumerate() {
            let stop = clock.phases.get(i + 1).map_or(end_ns, |next| next.start_ns);
            let phase = self.push(host, &p.name, p.start_ns, stop);
            match (p.first_round_ns, p.last_round_ns) {
                (Some(first), Some(last)) => {
                    self.push_under(Some(phase), host, "init", p.start_ns, first);
                    self.push_under(Some(phase), Layer::Engine, "rounds", first, last);
                    self.push_under(Some(phase), host, "post", last, stop);
                }
                _ => {
                    self.push_under(Some(phase), host, "init", p.start_ns, stop);
                }
            }
        }
    }

    /// Self time per layer over `spans[range]`: each span's duration
    /// minus the part its direct children cover (children never overlap,
    /// since every span is recorded on one thread in call order).
    pub fn self_times(&self, range: Range<usize>) -> BTreeMap<Layer, f64> {
        let from = range.start;
        let spans = &self.spans[range];
        let mut child = vec![0.0; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p >= from) {
                child[p - from] += s.secs();
            }
        }
        let mut out: BTreeMap<Layer, f64> = Layer::ALL.iter().map(|&l| (l, 0.0)).collect();
        for (s, c) in spans.iter().zip(&child) {
            *out.entry(s.layer).or_default() += (s.secs() - c).max(0.0);
        }
        out
    }

    /// The spans as JSON lines (name, layer, cell, parent, start, end).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let cell = s
                .cell
                .map_or("null".to_string(), |c| format!("\"{}\"", self.cells[c]));
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"cell\":{cell},\"cell_id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name,
                s.layer.name(),
                s.cell.map_or(-1, |c| c as i64),
                s.start_ns,
                s.end_ns
            ));
        }
        out
    }
}

/// Wall-clock marks of one protocol phase.
#[derive(Debug, Clone)]
pub struct PhaseMarks {
    /// Phase name as announced by `on_phase`.
    pub name: String,
    /// When `on_phase` fired.
    pub start_ns: u64,
    /// When the first busy round's `on_round` fired.
    pub first_round_ns: Option<u64>,
    /// When the last busy round's `on_round` fired.
    pub last_round_ns: Option<u64>,
}

/// The benchmark's [`RoundObserver`]: timestamps every `on_phase` and
/// `on_round` call. On the sequential engine `on_round` fires live at
/// the end of each busy round, so the gaps between consecutive calls
/// are per-round wall times; the sharded engine replays the calls after
/// a phase ends, which is why round-level figures come from
/// `threads = 0` passes only.
#[derive(Debug)]
pub struct RoundClock {
    origin: Instant,
    /// Phases in announcement order.
    pub phases: Vec<PhaseMarks>,
    /// Gaps between consecutive `on_round` calls within a phase, ns.
    pub gaps_ns: Vec<u64>,
}

impl RoundClock {
    /// A clock sharing `tracer`'s origin.
    pub fn new(tracer: &Tracer) -> RoundClock {
        RoundClock {
            origin: tracer.origin,
            phases: Vec::new(),
            gaps_ns: Vec::new(),
        }
    }

    fn ns(&self) -> u64 {
        u64::try_from(now().duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }
}

impl RoundObserver for RoundClock {
    fn on_phase(&mut self, name: &str) {
        let start_ns = self.ns();
        self.phases.push(PhaseMarks {
            name: name.to_string(),
            start_ns,
            first_round_ns: None,
            last_round_ns: None,
        });
    }

    fn on_round(&mut self, _event: &RoundEvent) {
        let t = self.ns();
        let Some(p) = self.phases.last_mut() else {
            return;
        };
        if let Some(last) = p.last_round_ns {
            self.gaps_ns.push(t - last);
        }
        p.first_round_ns.get_or_insert(t);
        p.last_round_ns = Some(t);
    }
}
