//! Experiment driver: regenerates every measured table of the
//! reproduction (EXPERIMENTS.md), plus the declarative `scenario` mode
//! that exposes the full algorithm × workload × seed matrix from the
//! command line.
//!
//! ```sh
//! cargo run --release -p mis-bench --bin experiments            # all, full sizes
//! cargo run --release -p mis-bench --bin experiments -- --quick # all, small sizes
//! cargo run --release -p mis-bench --bin experiments -- e2 e13  # a subset
//! cargo run --release -p mis-bench --bin experiments -- --threads 4 # sharded engine
//!
//! # Scenario mode: one code path for any cell of the matrix.
//! cargo run --release -p mis-bench --bin experiments -- \
//!     scenario --algo alg1 --workload gnp:n=65536,deg=8 --seeds 0..3
//! # The whole registry on the whole tiny workload suite (the CI smoke):
//! cargo run --release -p mis-bench --bin experiments -- \
//!     scenario --algo all --workload all --seeds 0..2 --threads 2
//! # Churn cells: incremental algorithms on edit-stream workloads.
//! cargo run --release -p mis-bench --bin experiments -- \
//!     scenario --algo inc-luby --workload edits:base=gnp:n=4096,deg=8;batches=16;ops=8
//! cargo run --release -p mis-bench --bin experiments -- \
//!     scenario --algo inc-luby,inc-alg1 --workload churn --seeds 0..3
//!
//! # Churn bench: repair latency/awake set vs full re-solve (BENCH_engine.json section).
//! cargo run --release -p mis-bench --bin experiments -- churn --tiny
//!
//! # Degradation bench: rounds/energy vs channel loss rate (BENCH_engine.json section).
//! cargo run --release -p mis-bench --bin experiments -- degrade --tiny
//!
//! # Adversarial channels: run any matrix cell on a faulty network.
//! cargo run --release -p mis-bench --bin experiments -- \
//!     scenario --algo luby --workload gnp:n=4096,deg=8 --channel loss:p=0.05
//!
//! # Traced cell: one versioned JSONL telemetry trace per run, for the
//! # trace_tool binary to summarize/diff (`;trace=PATH` works too).
//! cargo run --release -p mis-bench --bin experiments -- \
//!     scenario --algo alg1 --workload gnp:n=4096,deg=8 --trace trace.jsonl
//! ```
//!
//! `--threads N` (also `--threads=N`; default 1; 0 and 1 = one shard on
//! the calling thread) runs every simulation on `N` worker shards;
//! tables are bit-identical for any `N`. Scenario mode exits
//! non-zero if any run fails to produce a verified MIS — including runs
//! where a lossy channel silently broke maximality or independence.
//! `--channel <MODEL>` overrides the channel arm of every selected
//! workload (same grammar as the spec's `;channel=` arm).

use mis_bench::experiments as exp;
use mis_bench::table::Table;
use mis_runner::{cli, registry, ChannelSpec, Scenario, WorkloadSpec};

/// Flags that take a value (used to separate positionals from flags).
const VALUE_FLAGS: [&str; 6] = [
    "--threads",
    "--algo",
    "--workload",
    "--seeds",
    "--channel",
    "--trace",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads = congest_sim::SimConfig::threads_from(&args, 1);
    mis_bench::set_threads(threads);
    let selected: Vec<String> = cli::positionals(&args, &VALUE_FLAGS)
        .iter()
        .map(|a| a.to_lowercase())
        .collect();

    if selected.first().map(String::as_str) == Some("scenario") {
        std::process::exit(scenario_mode(&args, threads));
    }
    if selected.first().map(String::as_str) == Some("churn") {
        std::process::exit(mis_bench::churn::run(
            cli::has_flag(&args, "--tiny"),
            threads,
        ));
    }
    if selected.first().map(String::as_str) == Some("degrade") {
        std::process::exit(mis_bench::degradation::run(
            cli::has_flag(&args, "--tiny"),
            threads,
        ));
    }

    let quick = cli::has_flag(&args, "--quick");
    let want = |id: &str| selected.is_empty() || selected.iter().any(|s| s == id);

    println!(
        "# Energy-MIS experiment suite ({} mode)",
        if quick { "quick" } else { "full" }
    );
    if want("e1") || want("e2") || want("e3") || want("e4") {
        exp::scaling(quick);
    }
    if want("e5") {
        let (ok, total) = exp::correctness(quick);
        println!("\nE5 verdict: {ok}/{total} runs produced a verified MIS");
    }
    if want("e6") {
        exp::phase_breakdown(quick);
    }
    if want("e7") {
        exp::degree_trajectory(quick);
    }
    if want("e8") {
        let e = exp::alg2_shrink(quick);
        println!("\nE8 verdict: measured shrink exponent {e:.2} (paper: 0.7)");
    }
    if want("e9") {
        exp::schedule_sizes(quick);
    }
    if want("e10") {
        exp::families(quick);
    }
    if want("e11") {
        exp::congest_compliance(quick);
    }
    if want("e12") {
        exp::shattering(quick);
    }
    if want("e13") {
        exp::avg_energy(quick);
    }
    if want("e14") {
        exp::ablations(quick);
    }
}

/// The declarative matrix mode: `--algo <name|a,b|all> --workload
/// <SPEC|all|churn> --seeds <A..B|A>` (+ the shared `--threads`, and
/// `--rounds` to collect and summarize the per-round time series).
/// `--workload churn` selects the tiny churn suite; `--algo all`
/// resolves per workload (static registry for static workloads,
/// incremental registry for `edits:` workloads). `--trace <path>` — or
/// the `;trace=<path>` suffix on the workload spec — writes one
/// schema-versioned JSONL trace per run to `path` (truncated at start,
/// appended per cell; see `mis_runner::trace`) and implies telemetry
/// plus round collection. Returns the process exit code: 0 iff every
/// run verified.
fn scenario_mode(args: &[String], threads: usize) -> i32 {
    let fail = |msg: String| -> i32 {
        eprintln!("scenario: {msg}");
        2
    };

    let algo_arg = cli::flag_value(args, "--algo").unwrap_or_else(|| "all".into());
    let mut workload_arg = cli::flag_value(args, "--workload").unwrap_or_else(|| "all".into());
    let seeds = match cli::parse_seed_range(
        &cli::flag_value(args, "--seeds").unwrap_or_else(|| "0..1".into()),
    ) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    // `;trace=<path>` on the workload spec is sugar for `--trace <path>`
    // (stripped before the spec grammar sees it; the flag wins on
    // conflict).
    let mut trace_path = cli::flag_value(args, "--trace");
    if let Some(pos) = workload_arg.find(";trace=") {
        let suffix = workload_arg[pos + ";trace=".len()..].to_string();
        workload_arg.truncate(pos);
        if trace_path.is_none() {
            trace_path = Some(suffix);
        }
    }
    let trace_path = trace_path.map(std::path::PathBuf::from);
    if let Some(p) = &trace_path {
        // Start each invocation with a fresh trace file; cells append.
        if let Err(e) = std::fs::write(p, "") {
            return fail(format!("cannot create trace file {}: {e}", p.display()));
        }
    }
    let collect_rounds = cli::has_flag(args, "--rounds") || trace_path.is_some();

    let mut workloads: Vec<WorkloadSpec> = match workload_arg.as_str() {
        "all" => WorkloadSpec::tiny_suite(),
        "churn" => WorkloadSpec::tiny_churn_suite(),
        spec => match spec.parse() {
            Ok(spec) => vec![spec],
            // Route through SimError so malformed specs fail the same
            // way everywhere: exit 2 with the offending token quoted.
            Err(e) => return fail(congest_sim::SimError::from(e).to_string()),
        },
    };
    // `--channel` overrides the channel arm of every selected workload
    // (same grammar as the spec-level `;channel=` arm).
    if let Some(channel_arg) = cli::flag_value(args, "--channel") {
        let channel: ChannelSpec = match channel_arg.parse() {
            Ok(c) => c,
            Err(e) => return fail(congest_sim::SimError::from(e).to_string()),
        };
        for w in &mut workloads {
            *w = w.with_channel(channel);
        }
    }
    // `--algo all` resolves against the registry each workload calls
    // for: static workloads sweep the static registry, churn workloads
    // the incremental one.
    let algos_for = |workload: &WorkloadSpec| -> Vec<String> {
        if algo_arg != "all" {
            algo_arg.split(',').map(ToString::to_string).collect()
        } else if workload.churn.is_some() {
            mis_runner::incremental::names()
                .iter()
                .map(ToString::to_string)
                .collect()
        } else {
            registry::names().iter().map(ToString::to_string).collect()
        }
    };

    println!(
        "# Scenario matrix: {} × {} workload(s) × seeds {:?} ({} engine)",
        if algo_arg == "all" {
            "full registry".to_string()
        } else {
            format!("{} algorithm(s)", algo_arg.split(',').count())
        },
        workloads.len(),
        seeds,
        if threads == 0 {
            "sequential".to_string()
        } else {
            format!("{threads}-worker")
        },
    );
    let mut t = Table::new([
        "algo", "workload", "seed", "rounds", "max⚡", "avg⚡", "msgs", "|MIS|", "verified",
    ]);
    let mut failures = 0usize;
    let mut runs = 0usize;
    for workload in &workloads {
        // One graph per workload, shared by every algorithm of the
        // matrix (graph generation dominates at large n).
        let g = workload.build();
        for algo in &algos_for(workload) {
            let scenario = Scenario::new(algo, *workload)
                .seeds(seeds.clone())
                .threads(threads)
                .collect_rounds(collect_rounds)
                .telemetry(trace_path.is_some());
            let reports = match scenario.run_on(&g) {
                Ok(r) => r,
                Err(e) => return fail(e.to_string()),
            };
            for (seed, r) in seeds.clone().zip(&reports) {
                runs += 1;
                if let Some(p) = &trace_path {
                    if let Err(e) =
                        mis_runner::append_trace(p, r, &workload.to_string(), seed, threads)
                    {
                        return fail(format!("cannot write trace {}: {e}", p.display()));
                    }
                }
                if !r.is_mis() {
                    failures += 1;
                }
                let mut verified = if r.is_mis() { "✓" } else { "✗ NOT AN MIS" }.to_string();
                if let Some(rep) = &r.repair {
                    verified.push_str(&format!(
                        " ({} repairs, avg awake {:.1})",
                        rep.batches,
                        rep.avg_affected()
                    ));
                }
                if let Some(log) = &r.rounds {
                    verified.push_str(&format!(
                        " (peak awake {}/{} busy rounds)",
                        log.peak_awake(),
                        log.busy_rounds()
                    ));
                }
                t.row([
                    r.algorithm.clone(),
                    workload.to_string(),
                    seed.to_string(),
                    r.metrics.elapsed_rounds.to_string(),
                    r.metrics.max_awake().to_string(),
                    format!("{:.2}", r.metrics.avg_awake()),
                    r.metrics.messages_sent.to_string(),
                    r.mis_size().to_string(),
                    verified,
                ]);
            }
        }
    }
    t.print("Scenario results");
    println!(
        "\nverdict: {}/{runs} runs produced a verified MIS",
        runs - failures
    );
    i32::from(failures > 0)
}
