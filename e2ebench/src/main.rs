//! End-to-end benchmark of the energy-MIS reproduction.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload dense-paper --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Each run drives one workload (see [`pass::WORKLOADS`]) through the
//! whole path — spec parse → graph generation → solve → independent MIS
//! check → `render_trace` — repeatedly for `--seconds`, and prints every
//! metric by name and unit, a host/input context line, and, last, one
//! JSON result object. `--trace 0` reports the end-to-end metrics from
//! untraced passes; `--trace 1` pairs untraced and traced passes and
//! reports the per-layer split, writing its spans to
//! `.bench_out/e2ebench-spans-<workload>-seed<seed>.jsonl`. Any failed
//! check makes the result `"correct": false` and the exit code 1.

mod pass;
mod stats;
mod trace;

use pass::{
    check_churn_equivalence, check_paper_regime, check_seed0_pins, run_pass, run_static,
    GraphFacts, Pass, StaticCell, Workload, CHURN_CELLS, STATIC_CELLS,
};
use stats::{median, quantile};
use std::fmt::Write as _;
use std::ops::Range;
use std::process::ExitCode;
use trace::{now, secs_since, Layer, Tracer};

/// Passes every `--trace 0` run makes, whatever `--seconds` says. Pass
/// `i` runs with algorithm seed [`pass_seed`]`(seed, i)`, and the paper
/// measures are means over exactly these passes without the highest and
/// the lowest value: a single seed's max awake rounds swing by up to a
/// quarter from seed to seed, and Luby's take a few values 6 or 12
/// rounds apart, so a median of a few seeds jumps between them; and a
/// rare seed runs several times as many rounds: on `churn` one or two
/// alg1 seeds in a hundred each lift a plain ten-seed mean by a quarter.
const PAPER_SEEDS: usize = 10;

/// Workers of the sharded engine a traced run checks the sequential
/// one against.
const SHARDED_THREADS: usize = 2;

/// glibc malloc settings the benchmark runs under: the documented
/// static defaults of the mmap and trim thresholds, set explicitly. That
/// turns off glibc's dynamic threshold, which otherwise rises after
/// each large free and lets the heap keep up to twice the largest freed
/// block, so a pass's peak RSS would depend on what earlier passes
/// freed.
const MALLOC_TUNABLES: &str =
    "glibc.malloc.mmap_threshold=131072:glibc.malloc.trim_threshold=131072";

/// Algorithm seed of pass `i` of a run with `--seed seed`.
fn pass_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1 << 16)
        .wrapping_add(i as u64 % (1 << 16))
}

/// The eight paper measures, in [`END_TO_END`] order.
const PAPER_MEASURES: [(&str, &str); 8] = [
    ("alg1", "rounds"),
    ("alg1", "max_awake"),
    ("alg1", "avg_awake"),
    ("alg2", "rounds"),
    ("alg2", "max_awake"),
    ("alg2", "avg_awake"),
    ("avg1", "avg_awake"),
    ("luby", "max_awake"),
];

/// What a `--trace 0` run keeps of a pass once its checks ran, so memory
/// does not grow with the number of passes. Timings are in reference
/// seconds: measured seconds × `host_speed`.
#[derive(Debug)]
struct PassSummary {
    peak_rss_mb: f64,
    setup_s: f64,
    solve_s: f64,
    total_s: f64,
    measured_total_s: f64,
    kernel_s: f64,
    paper: [f64; 8],
}

impl PassSummary {
    /// `kernel_s`: the reference kernel's mean time just before and
    /// just after the pass.
    fn of(p: &Pass, peak_rss_mb: f64, kernel_s: f64) -> PassSummary {
        let host_speed = stats::REFERENCE_KERNEL_S / kernel_s;
        PassSummary {
            peak_rss_mb,
            setup_s: p.setup_s * host_speed,
            solve_s: p.solve_s() * host_speed,
            total_s: p.total_s * host_speed,
            measured_total_s: p.total_s,
            kernel_s,
            paper: PAPER_MEASURES.map(|(algo, what)| {
                let m = &p.cell(algo).report.metrics;
                match what {
                    "rounds" => m.elapsed_rounds as f64,
                    "max_awake" => m.max_awake() as f64,
                    _ => m.avg_awake(),
                }
            }),
        }
    }
}

/// End-to-end metrics: name and unit, in report order. Per-batch repair
/// latency is a per-layer metric (`repair.p50_us`, `repair.p99_us`): its
/// spread across runs exceeded the largest bound a metric may carry
/// (0.25) on this benchmark's 2-vCPU reference host, whose speed flips
/// between states for minutes at a time. Repair cost is still gated
/// through `solve_s` on `churn`, two thirds of which are batches.
const END_TO_END: [(&str, &str); 13] = [
    ("total_s", "s"),
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pass_rate", "ratio"),
    ("alg1.rounds", "rounds"),
    ("alg1.max_awake", "rounds"),
    ("alg1.avg_awake", "rounds"),
    ("alg2.rounds", "rounds"),
    ("alg2.max_awake", "rounds"),
    ("alg2.avg_awake", "rounds"),
    ("avg1.avg_awake", "rounds"),
    ("luby.max_awake", "rounds"),
];

/// Phase groups reported per static cell: Phase I (`phase1*`,
/// `alg2p1:*`), the Section 4 averaging module (`ae:*`), and the tail
/// (shattering, clustering, finish); Luby has one phase.
fn phase_groups(algo: &str) -> &'static [&'static str] {
    match algo {
        "alg1" | "alg2" => &["phase1", "tail"],
        "avg1" => &["phase1", "avg", "tail"],
        _ => &["run"],
    }
}

/// The phase group of `phase` in `algo`.
fn phase_group(algo: &str, phase: &str) -> &'static str {
    if algo == "luby" {
        "run"
    } else if phase.starts_with("phase1") || phase.starts_with("alg2p1") {
        "phase1"
    } else if phase.starts_with("ae:") {
        "avg"
    } else {
        "tail"
    }
}

/// Per-layer metrics of the traced run: name and unit, in report order.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut put = |name: String, unit: &'static str| v.push((name, unit));
    for (name, unit) in [
        ("graphs.generate_s", "s"),
        ("graphs.directed_edges", "count"),
        ("graphs.csr_mb", "MiB"),
        ("graphs.partition_s", "s"),
        ("graphs.cut_edge_fraction", "ratio"),
        ("graphs.verify_s", "s"),
    ] {
        put(name.into(), unit);
    }
    for algo in STATIC_CELLS {
        for group in phase_groups(algo) {
            put(format!("core.{algo}.{group}.wall_s"), "s");
            put(format!("core.{algo}.{group}.rounds"), "rounds");
            put(format!("core.{algo}.{group}.awake_total"), "count");
            put(format!("core.{algo}.{group}.messages"), "count");
        }
        put(format!("core.{algo}.init_s"), "s");
        put(format!("core.{algo}.post_s"), "s");
    }
    for name in [
        "core.alg1.phase1_residual_degree",
        "core.alg1.phase2_max_component",
        "core.alg1.finish_fallback_nodes",
    ] {
        put(name.into(), "count");
    }
    for algo in STATIC_CELLS
        .iter()
        .copied()
        .chain(CHURN_CELLS.iter().map(|c| c.0))
    {
        put(format!("cell.{algo}.solve_s"), "s");
    }
    for (name, unit) in [
        ("congest.round_us.p50", "us"),
        ("congest.round_us.p99", "us"),
        ("congest.round_us.samples", "count"),
        ("congest.busy_ratio", "ratio"),
        ("congest.delivered_ratio", "ratio"),
        ("congest.msgs_per_s", "1/s"),
        ("congest.probe.wakeups_scheduled", "count"),
        ("congest.probe.sched_spills", "count"),
        ("congest.probe.wakeups_deduped", "count"),
        ("congest.peak_bucket", "count"),
        ("par.cut_messages", "count"),
        ("par.mailbox_posts", "count"),
        ("par.exchange_skipped_pairs", "count"),
        ("par.local_only_rounds", "count"),
        ("par.speedup", "ratio"),
        ("par.solve_s_seq", "s"),
        ("par.solve_s_sharded", "s"),
        ("repair.p50_us", "us"),
        ("repair.p99_us", "us"),
        ("repair.samples", "count"),
        ("delta.next_batch_us", "us"),
        ("repair.plan_us", "us"),
        ("repair.subrun_us", "us"),
        ("delta.compact_s", "s"),
        ("repair.avg_affected", "count"),
        ("repair.max_affected", "count"),
        ("repair.trivial_fraction", "ratio"),
        ("repair.rounds_per_repair", "rounds"),
        ("repair.awake_per_affected", "rounds"),
        ("runner.report_s", "s"),
        ("telemetry.overhead", "ratio"),
        ("telemetry.traced_total_s", "s"),
        ("telemetry.untraced_total_s", "s"),
    ] {
        put(name.into(), unit);
    }
    for layer in Layer::ALL {
        put(format!("layer.{}.self_s", layer.name()), "s");
    }
    put("trace.span_coverage".into(), "ratio");
    put("trace.spans".into(), "count");
    v
}

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Metrics in report order.
#[derive(Debug, Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// The metric names must be exactly `expected`, in order.
    fn check_names<'a>(&self, expected: impl Iterator<Item = &'a str>) -> Result<(), String> {
        let got: Vec<&str> = self.metrics.iter().map(|m| m.0.as_str()).collect();
        let want: Vec<&str> = expected.collect();
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "emitted metrics {got:?} differ from the declared {want:?}"
            ))
        }
    }
}

/// Outcome of a run: metrics plus the correctness tally.
#[derive(Debug, Default)]
struct Outcome {
    report: Report,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    context: String,
}

fn main() -> ExitCode {
    // glibc reads its tunables only at start-up: run the benchmark as a
    // child with them set, and wait for it.
    if std::env::var("GLIBC_TUNABLES").as_deref() != Ok(MALLOC_TUNABLES) {
        let child = std::env::current_exe().and_then(|exe| {
            std::process::Command::new(exe)
                .args(std::env::args_os().skip(1))
                .env("GLIBC_TUNABLES", MALLOC_TUNABLES)
                .status()
        });
        return match child {
            Ok(status) if status.success() => ExitCode::SUCCESS,
            Ok(status) => ExitCode::from(status.code().map_or(1, |c| c.clamp(1, 255) as u8)),
            Err(e) => {
                eprintln!("e2ebench: cannot start the benchmark process: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = pass::workload(&args.workload) else {
        let names: Vec<&str> = pass::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "e2ebench: unknown workload {:?} (have {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    let out = if args.trace {
        traced_run(&w, args.seed, args.seconds)
    } else {
        plain_run(&w, args.seed, args.seconds)
    };
    for (name, value, unit) in &out.report.metrics {
        println!("{:<40} {value:>16.6} {unit}", format!("{}/{name}", w.name));
    }
    for p in &out.problems {
        println!("FAILED CHECK: {p}");
    }
    println!("{}", out.context);
    let correct = out.problems.is_empty() && out.failed == 0;
    println!(
        "{}",
        result_json(correct, out.attempted.max(1), out.failed, &out.report)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// JSON number: full shortest-round-trip digits; non-finite values
/// (never expected) become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, report: &Report) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    s.push_str("}}");
    s
}

/// Host and input context of a run, as one JSON line; `extra` holds
/// further `"key": value` pairs, each with a leading comma.
fn context_json(
    w: &Workload,
    seed: u64,
    trace: bool,
    facts: Option<GraphFacts>,
    extra: &str,
) -> String {
    let mut s = format!(
        "{{\"context\": {{\"workload\": \"{}\", \"spec\": \"{}\", \"seed\": {seed}, \"trace\": {trace}, \"threads\": 0, \"commit\": \"{}\", \"cpus_online\": {}, \"available_parallelism\": {}",
        w.name,
        w.spec,
        stats::commit(),
        stats::cpus_online(),
        stats::available_parallelism(),
    );
    if let Some(f) = facts {
        let _ = write!(
            s,
            ", \"n\": {}, \"directed_edges\": {}, \"max_degree\": {}, \"log2n_sq\": {}, \"paper_regime\": {}",
            f.n,
            f.directed_edges,
            f.max_degree,
            num(f.log2n_sq()),
            f.in_paper_regime()
        );
    }
    s.push_str(extra);
    s.push_str("}}");
    s
}

/// Operations a pass would have checked, charged as failed when the
/// pass errors out.
fn planned_ops(w: &Workload) -> u64 {
    let has_churn = w
        .spec
        .parse::<mis_runner::WorkloadSpec>()
        .is_ok_and(|s| s.churn.is_some());
    (STATIC_CELLS.len() + if has_churn { CHURN_CELLS.len() } else { 0 }) as u64
}

/// Checks made on the first pass of a run: the paper-regime guard and,
/// at seed 0, the pins.
fn first_pass_checks(w: &Workload, p: &Pass) -> Vec<String> {
    let mut problems = Vec::new();
    if let Err(e) = check_paper_regime(w, p) {
        problems.push(e);
    }
    if w.paper_regime && p.seed == 0 {
        if let Err(e) = check_seed0_pins(p) {
            problems.push(e);
        }
    }
    problems
}

/// The deterministic results of two runs of the same static cells
/// agree: set, aggregate and per-phase metrics, extras.
fn same_work(a: &[StaticCell], b: &[StaticCell]) -> Result<(), String> {
    for (x, y) in a.iter().zip(b) {
        let r = (&x.report, &y.report);
        if r.0.in_mis != r.1.in_mis
            || r.0.metrics != r.1.metrics
            || r.0.phases != r.1.phases
            || r.0.extras != r.1.extras
        {
            return Err(format!(
                "{}: deterministic results differ between runs",
                x.name
            ));
        }
    }
    Ok(())
}

/// `--trace 0`: untraced passes until `seconds` of pass time (and at
/// least [`PAPER_SEEDS`]), then the end-to-end metrics: timings and peak
/// RSS as medians over every pass but the first, which warms the process
/// up; paper measures as trimmed means over the first [`PAPER_SEEDS`]
/// passes.
/// A pass's peak RSS is its own (`VmHWM` is reset before every pass, so
/// neither earlier passes nor the checks count).
fn plain_run(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut passes: Vec<PassSummary> = Vec::new();
    let mut first = None;
    let mut spent = 0.0;
    let rss_resets = stats::reset_peak_rss();
    let mut kernel_before = stats::reference_kernel_s();
    loop {
        stats::reset_peak_rss();
        match run_pass(w, pass_seed(seed, passes.len()), &mut Tracer::new(false)) {
            Ok(mut p) => {
                let peak_rss_mb = stats::peak_rss_mb();
                let kernel_after = stats::reference_kernel_s();
                let kernel_s = 0.5 * (kernel_before + kernel_after);
                kernel_before = kernel_after;
                eprintln!(
                    "pass {} seed {}: setup {:.4} s, solve {:.4} s, total {:.4} s, kernel {kernel_s:.4} s, peak rss {peak_rss_mb:.1} MiB",
                    passes.len(),
                    p.seed,
                    p.setup_s,
                    p.solve_s(),
                    p.total_s,
                );
                spent += p.total_s;
                out.attempted += p.attempted();
                out.failed += p.failed();
                passes.push(PassSummary::of(&p, peak_rss_mb, kernel_s));
                if first.is_none() {
                    out.problems.extend(first_pass_checks(w, &p));
                    first = Some((p.facts, p.seed, p.churn_spec, std::mem::take(&mut p.churn)));
                }
            }
            Err(e) => {
                out.attempted += planned_ops(w);
                out.failed += planned_ops(w);
                out.problems.push(e.0);
                break;
            }
        }
        let per_pass = spent / passes.len() as f64;
        if passes.len() >= PAPER_SEEDS && spent + per_pass > seconds {
            break;
        }
    }
    if let Some((_, pass_seed, churn, cells)) = &first {
        if let Err(e) = check_churn_equivalence(w, *pass_seed, *churn, cells) {
            out.problems.push(e);
        }
    }
    let med =
        |f: &dyn Fn(&PassSummary) -> f64| median(&passes[1..].iter().map(f).collect::<Vec<f64>>());
    let extra = format!(
        ", \"passes\": {}, \"rss_reset_per_pass\": {rss_resets}, \"measured_total_s\": {}, \"kernel_s\": {}, \"reference_kernel_s\": {}",
        passes.len(),
        num(med(&|p| p.measured_total_s)),
        num(med(&|p| p.kernel_s)),
        num(stats::REFERENCE_KERNEL_S),
    );
    out.context = context_json(w, seed, false, first.as_ref().map(|f| f.0), &extra);
    if passes.len() < PAPER_SEEDS {
        return out;
    }
    let r = &mut out.report;
    r.put("total_s", med(&|p| p.total_s), "s");
    r.put("setup_s", med(&|p| p.setup_s), "s");
    r.put("solve_s", med(&|p| p.solve_s), "s");
    r.put("peak_rss_mb", med(&|p| p.peak_rss_mb), "MiB");
    let pass_rate = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    r.put("pass_rate", pass_rate, "ratio");
    for (i, (algo, what)) in PAPER_MEASURES.iter().enumerate() {
        let over_seeds: Vec<f64> = passes[..PAPER_SEEDS].iter().map(|p| p.paper[i]).collect();
        r.put(
            format!("{algo}.{what}"),
            stats::trimmed_mean(&over_seeds),
            "rounds",
        );
    }
    if let Err(e) = r.check_names(END_TO_END.iter().map(|m| m.0)) {
        out.problems.push(e);
    }
    out
}

/// Sum of the durations of spans in `range` matching `pick`.
fn span_sum(t: &Tracer, range: &Range<usize>, pick: impl Fn(&trace::Span) -> bool) -> f64 {
    t.spans[range.clone()]
        .iter()
        .filter(|s| pick(s))
        .map(|s| s.secs())
        .sum()
}

/// Durations (µs) of spans in `range` named `name`.
fn span_us(t: &Tracer, range: &Range<usize>, name: &str) -> Vec<f64> {
    t.spans[range.clone()]
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.secs() * 1e6)
        .collect()
}

fn cell_is(t: &Tracer, s: &trace::Span, name: &str) -> bool {
    s.cell.is_some_and(|c| t.cells[c] == name)
}

/// A traced pass: its span range and its results.
struct TracedPass {
    spans: Range<usize>,
    pass: Pass,
}

/// `--trace 1`: probes (partition, the static cells on the sharded engine),
/// then untraced/traced pass pairs until `seconds`, then the per-layer
/// split. Timings are medians over the traced passes.
fn traced_run(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    match traced_run_inner(w, seed, seconds, &mut out) {
        Ok(()) => {}
        Err(e) => {
            out.attempted += planned_ops(w);
            out.failed += planned_ops(w);
            out.problems.push(e);
        }
    }
    out
}

fn traced_run_inner(
    w: &Workload,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let t_start = now();
    let mut tracer = Tracer::new(true);
    let spec: mis_runner::WorkloadSpec = w.spec.parse().map_err(|e| format!("{e}"))?;
    let g = spec.build();
    let part = tracer.span(Layer::Partition, "partition", |_| g.partition(2));
    let partition_s = tracer.spans.last().map_or(0.0, trace::Span::secs);
    let cut = g
        .nodes()
        .flat_map(|v| g.edge_range(v).map(move |e| (v, e)))
        .filter(|&(v, e)| part.shard_of_node(v) != part.shard_of_node(g.edge_target(e)))
        .count();
    let cut_edge_fraction = cut as f64 / g.directed_m().max(1) as f64;
    // The static cells once more on the sharded engine: it gives the
    // `par.*` counters and par.speedup, and must do the same work as the
    // sequential engine.
    let sharded_cfg = mis_runner::RunConfig::seeded(pass_seed(seed, 0)).threads(SHARDED_THREADS);
    tracer.open(Layer::Harness, "engine-pass");
    let sharded = run_static(&g, &sharded_cfg, w.name, &mut tracer).map_err(|e| e.0)?;
    tracer.close();
    drop(g);

    let mut traced: Vec<TracedPass> = Vec::new();
    let mut untraced_totals: Vec<f64> = Vec::new();
    let mut untraced_batch_us: Vec<Vec<f64>> = Vec::new();
    let mut spent = 0.0;
    while traced.is_empty() || spent + spent / traced.len() as f64 <= seconds {
        // Alternate which side of the pair runs first.
        let untraced_first = traced.len() % 2 == 0;
        let pair_seed = pass_seed(seed, traced.len());
        let mut untraced = None;
        if untraced_first {
            untraced = Some(run_pass(w, pair_seed, &mut Tracer::new(false)).map_err(|e| e.0)?);
        }
        let from = tracer.spans.len();
        let pass = run_pass(w, pair_seed, &mut tracer).map_err(|e| e.0)?;
        let spans = from..tracer.spans.len();
        if !untraced_first {
            untraced = Some(run_pass(w, pair_seed, &mut Tracer::new(false)).map_err(|e| e.0)?);
        }
        let untraced = untraced.expect("ran one untraced pass");
        same_work(&untraced.cells, &pass.cells).map_err(|e| format!("traced vs untraced: {e}"))?;
        for p in [&untraced, &pass] {
            out.attempted += p.attempted();
            out.failed += p.failed();
        }
        spent += untraced.total_s + pass.total_s;
        untraced_totals.push(untraced.total_s);
        untraced_batch_us.push(
            untraced
                .churn
                .iter()
                .flat_map(|c| c.batch_us.iter().copied())
                .collect(),
        );
        traced.push(TracedPass { spans, pass });
    }
    let first = &traced[0].pass;
    out.problems.extend(first_pass_checks(w, first));
    if let Err(e) = check_churn_equivalence(w, first.seed, first.churn_spec, &first.churn) {
        out.problems.push(e);
    }
    // par == seq: the sharded engine did exactly the same work.
    if let Err(e) = same_work(&first.cells, &sharded) {
        out.problems
            .push(format!("threads 0 vs {SHARDED_THREADS}: {e}"));
    }

    let t = &tracer;
    let r = &mut out.report;
    let med_over =
        |f: &dyn Fn(&TracedPass) -> f64| median(&traced.iter().map(f).collect::<Vec<f64>>());
    let f = first.facts;
    // graphs
    r.put(
        "graphs.generate_s",
        med_over(&|p| span_sum(t, &p.spans, |s| s.name == "generate")),
        "s",
    );
    r.put("graphs.directed_edges", f.directed_edges as f64, "count");
    let csr_bytes = (f.n + 1) * std::mem::size_of::<usize>()
        + f.directed_edges
            * (std::mem::size_of::<mis_graphs::NodeId>()
                + std::mem::size_of::<mis_graphs::EdgeId>());
    r.put("graphs.csr_mb", csr_bytes as f64 / (1024.0 * 1024.0), "MiB");
    r.put("graphs.partition_s", partition_s, "s");
    r.put("graphs.cut_edge_fraction", cut_edge_fraction, "ratio");
    r.put(
        "graphs.verify_s",
        med_over(&|p| span_sum(t, &p.spans, |s| s.name == "is_mis" || s.name == "check_mis")),
        "s",
    );
    // core: phase walls and init/post from the traced passes.
    for algo in STATIC_CELLS {
        let phases = &first.cell(algo).report.phases;
        for &group in phase_groups(algo) {
            let wall = med_over(&|p| {
                span_sum(t, &p.spans, |s| {
                    cell_is(t, s, algo)
                        && s.parent.is_some_and(|p| t.spans[p].name == "solve")
                        && phase_group(algo, &s.name) == group
                })
            });
            let in_group = || {
                phases
                    .iter()
                    .filter(|(n, _)| phase_group(algo, n) == group)
                    .map(|(_, m)| m)
            };
            r.put(format!("core.{algo}.{group}.wall_s"), wall, "s");
            r.put(
                format!("core.{algo}.{group}.rounds"),
                in_group().map(|m| m.elapsed_rounds).sum::<u64>() as f64,
                "rounds",
            );
            r.put(
                format!("core.{algo}.{group}.awake_total"),
                in_group().map(|m| m.total_awake()).sum::<u64>() as f64,
                "count",
            );
            r.put(
                format!("core.{algo}.{group}.messages"),
                in_group().map(|m| m.messages_sent).sum::<u64>() as f64,
                "count",
            );
        }
        for what in ["init", "post"] {
            let v = med_over(&|p| span_sum(t, &p.spans, |s| cell_is(t, s, algo) && s.name == what));
            r.put(format!("core.{algo}.{what}_s"), v, "s");
        }
    }
    let extras = &first.cell("alg1").report.extras;
    for key in [
        "phase1_residual_degree",
        "phase2_max_component",
        "finish_fallback_nodes",
    ] {
        r.put(
            format!("core.alg1.{key}"),
            extras.get(key).copied().unwrap_or(0.0),
            "count",
        );
    }
    // cells
    for algo in STATIC_CELLS {
        let v = med_over(&|p| span_sum(t, &p.spans, |s| cell_is(t, s, algo) && s.name == "solve"));
        r.put(format!("cell.{algo}.solve_s"), v, "s");
    }
    for (inc, _) in CHURN_CELLS {
        let v = med_over(&|p| span_sum(t, &p.spans, |s| cell_is(t, s, inc) && s.name == "churn"));
        r.put(format!("cell.{inc}.solve_s"), v, "s");
    }
    // congest
    let gaps_us: Vec<f64> = traced
        .iter()
        .flat_map(|p| &p.pass.cells)
        .flat_map(|c| c.round_gaps_ns.iter().map(|&ns| ns as f64 * 1e-3))
        .collect();
    r.put("congest.round_us.p50", quantile(&gaps_us, 0.5), "us");
    r.put("congest.round_us.p99", quantile(&gaps_us, 0.99), "us");
    r.put("congest.round_us.samples", gaps_us.len() as f64, "count");
    let ms = || first.cells.iter().map(|c| &c.report.metrics);
    let busy: u64 = ms().map(|m| m.busy_rounds).sum();
    let elapsed: u64 = ms().map(|m| m.elapsed_rounds).sum();
    let sent: u64 = ms().map(|m| m.messages_sent).sum();
    let delivered: u64 = ms().map(|m| m.messages_delivered).sum();
    r.put(
        "congest.busy_ratio",
        busy as f64 / elapsed.max(1) as f64,
        "ratio",
    );
    r.put(
        "congest.delivered_ratio",
        delivered as f64 / sent.max(1) as f64,
        "ratio",
    );
    let static_solve = med_over(&|p| p.pass.cells.iter().map(|c| c.solve_s).sum());
    r.put(
        "congest.msgs_per_s",
        sent as f64 / static_solve.max(1e-9),
        "1/s",
    );
    let mut probes = congest_sim::EngineProbes::default();
    let mut engine = congest_sim::EngineStats::default();
    for c in &first.cells {
        probes.absorb(&c.report.metrics.probes);
        engine.absorb(&c.report.engine_stats);
    }
    r.put(
        "congest.probe.wakeups_scheduled",
        probes.wakeups_scheduled as f64,
        "count",
    );
    r.put(
        "congest.probe.sched_spills",
        probes.sched_spills as f64,
        "count",
    );
    r.put(
        "congest.probe.wakeups_deduped",
        probes.wakeups_deduped as f64,
        "count",
    );
    r.put("congest.peak_bucket", engine.peak_bucket as f64, "count");
    // par: the sharded engine's counters
    let mut par = congest_sim::EngineStats::default();
    for c in &sharded {
        par.absorb(&c.report.engine_stats);
    }
    r.put("par.cut_messages", par.cut_messages as f64, "count");
    r.put("par.mailbox_posts", par.mailbox_posts as f64, "count");
    r.put(
        "par.exchange_skipped_pairs",
        par.exchange_skipped_pairs as f64,
        "count",
    );
    r.put(
        "par.local_only_rounds",
        par.local_only_rounds as f64,
        "count",
    );
    let sharded_s: f64 = sharded.iter().map(|c| c.solve_s).sum();
    r.put("par.speedup", static_solve / sharded_s.max(1e-9), "ratio");
    r.put("par.solve_s_seq", static_solve, "s");
    r.put("par.solve_s_sharded", sharded_s, "s");
    // delta + repair + incremental: only `churn` has an edit stream; the
    // other workloads report 0 here.
    let pooled = |name: &str| -> Vec<f64> {
        traced
            .iter()
            .flat_map(|p| span_us(t, &p.spans, name))
            .collect()
    };
    // Latency per batch (`next_batch` + repair + compaction when due)
    // from the untraced passes: each pass's percentile, median over passes.
    let per_pass = |q: f64| {
        median(
            &untraced_batch_us
                .iter()
                .map(|b| quantile(b, q))
                .collect::<Vec<f64>>(),
        )
    };
    r.put("repair.p50_us", per_pass(0.5), "us");
    r.put("repair.p99_us", per_pass(0.99), "us");
    r.put("repair.samples", untraced_batch_us[0].len() as f64, "count");
    r.put("delta.next_batch_us", median(&pooled("next_batch")), "us");
    r.put("repair.plan_us", median(&pooled("plan_repair")), "us");
    r.put("repair.subrun_us", median(&pooled("subrun")), "us");
    r.put(
        "delta.compact_s",
        med_over(&|p| span_sum(t, &p.spans, |s| s.name == "compact")),
        "s",
    );
    let mut rs = mis_runner::RepairStats::default();
    for c in &first.churn {
        let s = c.stats;
        rs.batches += s.batches;
        rs.affected += s.affected;
        rs.max_affected = rs.max_affected.max(s.max_affected);
        rs.awake_rounds += s.awake_rounds;
        rs.total_awake += s.total_awake;
        rs.trivial += s.trivial;
    }
    r.put("repair.avg_affected", rs.avg_affected(), "count");
    r.put("repair.max_affected", rs.max_affected as f64, "count");
    r.put(
        "repair.trivial_fraction",
        rs.trivial as f64 / rs.batches.max(1) as f64,
        "ratio",
    );
    r.put("repair.rounds_per_repair", rs.rounds_per_repair(), "rounds");
    r.put(
        "repair.awake_per_affected",
        rs.awake_per_affected(),
        "rounds",
    );
    // runner + telemetry
    r.put(
        "runner.report_s",
        med_over(&|p| span_sum(t, &p.spans, |s| s.name == "render_trace")),
        "s",
    );
    let traced_total = med_over(&|p| p.pass.total_s);
    let untraced_total = median(&untraced_totals);
    r.put(
        "telemetry.overhead",
        traced_total / untraced_total.max(1e-9) - 1.0,
        "ratio",
    );
    r.put("telemetry.traced_total_s", traced_total, "s");
    r.put("telemetry.untraced_total_s", untraced_total, "s");
    // self time per layer, and how much of the pass the layers cover
    let self_times: Vec<_> = traced
        .iter()
        .map(|p| t.self_times(p.spans.clone()))
        .collect();
    let med_self =
        |layer: Layer| median(&self_times.iter().map(|m| m[&layer]).collect::<Vec<f64>>());
    for layer in Layer::ALL {
        r.put(
            format!("layer.{}.self_s", layer.name()),
            med_self(layer),
            "s",
        );
    }
    let coverage = median(
        &traced
            .iter()
            .zip(&self_times)
            .map(|(p, m)| 1.0 - m[&Layer::Harness] / t.spans[p.spans.start].secs().max(1e-12))
            .collect::<Vec<f64>>(),
    );
    r.put("trace.span_coverage", coverage, "ratio");
    r.put("trace.spans", med_over(&|p| p.spans.len() as f64), "count");
    let names = per_layer();
    if let Err(e) = r.check_names(names.iter().map(|m| m.0.as_str())) {
        out.problems.push(e);
    }

    let extra = format!(
        ", \"passes\": {}, \"sharded_engine_threads\": {SHARDED_THREADS}, \"wall_s\": {}",
        traced.len(),
        num(secs_since(t_start))
    );
    out.context = context_json(w, seed, true, Some(first.facts), &extra);
    let path = format!(".bench_out/e2ebench-spans-{}-seed{seed}.jsonl", w.name);
    let body = format!("{}\n{}", out.context, t.to_jsonl());
    if let Err(e) = std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, body))
    {
        out.problems.push(format!("writing {path}: {e}"));
    }
    Ok(())
}
