//! Toolchain for the runner's JSONL telemetry traces.
//!
//! Two subcommands over files written by `experiments scenario --trace`
//! (see `mis_runner::trace` for the schema):
//!
//! ```text
//! trace_tool summarize TRACE.jsonl
//! trace_tool diff A.jsonl B.jsonl
//! ```
//!
//! `summarize` validates every record against schema v1 (the `meta`
//! line's `schema_version` must match, every line must be a known
//! record type) and renders one table row per run. `diff` compares the
//! *deterministic* lines of two traces byte for byte — `engine` and
//! `timings` records, the only per-configuration/non-deterministic
//! record types, are filtered out first — so a sequential trace and a
//! 2-worker trace of the same scenario must diff clean. Exit codes:
//! 0 = ok/identical, 1 = counter divergence, 2 = bad arguments,
//! unreadable file, or schema violation.
//!
//! Like `bench_compare`, the parser is a purpose-built scanner for the
//! writer's own fixed compact-JSON shape (the workspace vendors no JSON
//! dependency) and is unit-tested against that exact shape.

use mis_bench::json::{num_field, str_field};
use mis_bench::table::Table;
use std::process::ExitCode;

/// Schema version this tool understands (mirrors
/// `congest_sim::TELEMETRY_SCHEMA_VERSION`).
const SCHEMA_VERSION: u64 = 1;

/// The record type of a trace line (the value of its leading `"type"`
/// key), or `None` for a line that does not even have one.
fn record_type(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"type\":\"")?;
    rest.split('"').next()
}

/// Whether a line belongs to the deterministic sections of a trace
/// (everything except the per-configuration `engine` record and the
/// wall-clock `timings` record).
fn is_deterministic(line: &str) -> bool {
    !matches!(record_type(line), Some("engine" | "timings"))
}

/// One run's summary, accumulated from its `meta` line to the next.
#[derive(Debug, Default, Clone)]
struct RunSummary {
    algorithm: String,
    workload: String,
    seed: u64,
    rounds: u64,
    max_awake: u64,
    messages: u64,
    dropped: u64,
    p50: u64,
    p99: u64,
    round_records: u64,
    shards: u64,
}

/// Parses and validates a whole trace document; returns one summary per
/// run or a schema-violation message.
fn parse_trace(doc: &str) -> Result<Vec<RunSummary>, String> {
    let mut runs: Vec<RunSummary> = Vec::new();
    for (i, line) in doc.lines().enumerate() {
        let lineno = i + 1;
        let kind = record_type(line)
            .ok_or_else(|| format!("line {lineno}: not a trace record: {line}"))?;
        if kind != "meta" && runs.is_empty() {
            return Err(format!("line {lineno}: {kind} record before any meta"));
        }
        match kind {
            "meta" => {
                let version = num_field::<u64>(line, "schema_version")
                    .ok_or_else(|| format!("line {lineno}: meta without schema_version"))?;
                if version != SCHEMA_VERSION {
                    return Err(format!(
                        "line {lineno}: schema_version {version} (this tool understands {SCHEMA_VERSION})"
                    ));
                }
                runs.push(RunSummary {
                    algorithm: str_field(line, "algorithm")
                        .ok_or_else(|| format!("line {lineno}: meta without algorithm"))?,
                    workload: str_field(line, "workload")
                        .ok_or_else(|| format!("line {lineno}: meta without workload"))?,
                    seed: num_field(line, "seed")
                        .ok_or_else(|| format!("line {lineno}: meta without seed"))?,
                    ..RunSummary::default()
                });
            }
            "phase" => {
                str_field(line, "name")
                    .ok_or_else(|| format!("line {lineno}: phase without name"))?;
            }
            "round" => {
                num_field::<u64>(line, "awake")
                    .ok_or_else(|| format!("line {lineno}: round without awake"))?;
                runs.last_mut().expect("meta seen").round_records += 1;
            }
            "counters" => {
                let run = runs.last_mut().expect("meta seen");
                run.rounds = num_field(line, "elapsed_rounds")
                    .ok_or_else(|| format!("line {lineno}: counters without elapsed_rounds"))?;
                run.max_awake = num_field(line, "max_awake").unwrap_or(0);
                run.messages = num_field(line, "messages_sent").unwrap_or(0);
                run.dropped = num_field(line, "messages_dropped").unwrap_or(0);
            }
            "hist" => {
                let name = str_field(line, "name")
                    .ok_or_else(|| format!("line {lineno}: hist without name"))?;
                let p50 = num_field::<u64>(line, "p50")
                    .ok_or_else(|| format!("line {lineno}: hist without p50"))?;
                if name == "awake_rounds" {
                    let run = runs.last_mut().expect("meta seen");
                    run.p50 = p50;
                    run.p99 = num_field(line, "p99").unwrap_or(0);
                }
            }
            "engine" => {
                let run = runs.last_mut().expect("meta seen");
                run.shards = num_field(line, "shards").unwrap_or(0);
            }
            "timings" => {}
            other => return Err(format!("line {lineno}: unknown record type {other:?}")),
        }
    }
    if runs.is_empty() {
        return Err("trace holds no runs".into());
    }
    Ok(runs)
}

/// `summarize` subcommand: validate and tabulate.
fn summarize(path: &str) -> ExitCode {
    let doc = match std::fs::read_to_string(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let runs = match parse_trace(&doc) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut t = Table::new([
        "algo",
        "workload",
        "seed",
        "rounds",
        "max⚡",
        "⚡p50",
        "⚡p99",
        "msgs",
        "dropped",
        "round recs",
        "shards",
    ]);
    for r in &runs {
        t.row([
            r.algorithm.clone(),
            r.workload.clone(),
            r.seed.to_string(),
            r.rounds.to_string(),
            r.max_awake.to_string(),
            r.p50.to_string(),
            r.p99.to_string(),
            r.messages.to_string(),
            r.dropped.to_string(),
            r.round_records.to_string(),
            r.shards.to_string(),
        ]);
    }
    t.print(&format!(
        "{} run(s) in {path} (schema v{SCHEMA_VERSION})",
        runs.len()
    ));
    ExitCode::SUCCESS
}

/// `diff` subcommand: byte-compare the deterministic lines.
fn diff(path_a: &str, path_b: &str) -> ExitCode {
    let read = |path: &str| -> Option<Vec<String>> {
        let doc = std::fs::read_to_string(path)
            .map_err(|e| eprintln!("cannot read {path}: {e}"))
            .ok()?;
        if let Err(e) = parse_trace(&doc) {
            eprintln!("{path}: {e}");
            return None;
        }
        Some(
            doc.lines()
                .filter(|l| is_deterministic(l))
                .map(ToString::to_string)
                .collect(),
        )
    };
    let (Some(a), Some(b)) = (read(path_a), read(path_b)) else {
        return ExitCode::from(2);
    };
    let mut divergences = 0usize;
    for (i, (la, lb)) in a.iter().zip(&b).enumerate() {
        if la != lb {
            divergences += 1;
            if divergences <= 5 {
                eprintln!(
                    "deterministic line {} differs:\n  a: {la}\n  b: {lb}",
                    i + 1
                );
            }
        }
    }
    if a.len() != b.len() {
        divergences += 1;
        eprintln!(
            "deterministic line counts differ: {} vs {}",
            a.len(),
            b.len()
        );
    }
    if divergences == 0 {
        println!(
            "trace diff OK: {} deterministic line(s) identical ({path_a} vs {path_b})",
            a.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("trace diff FAILED: {divergences} divergence(s)");
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("summarize") if args.len() == 2 => summarize(&args[1]),
        Some("diff") if args.len() == 3 => diff(&args[1], &args[2]),
        _ => {
            eprintln!("usage: trace_tool summarize TRACE.jsonl | trace_tool diff A.jsonl B.jsonl");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-run fragment in the writer's exact compact shape.
    const DOC: &str = concat!(
        "{\"type\":\"meta\",\"schema_version\":1,\"algorithm\":\"luby\",\"workload\":\"cycle:n=24\",\"seed\":3,\"n\":24}\n",
        "{\"type\":\"phase\",\"name\":\"luby\"}\n",
        "{\"type\":\"round\",\"round\":0,\"awake\":24,\"messages_sent\":48,\"messages_delivered\":48,\"messages_dropped\":0,\"collisions\":0,\"bits_sent\":96}\n",
        "{\"type\":\"counters\",\"values\":{\"elapsed_rounds\":7,\"max_awake\":5,\"messages_sent\":48,\"messages_dropped\":2}}\n",
        "{\"type\":\"hist\",\"name\":\"awake_rounds\",\"count\":24,\"min\":1,\"p50\":3,\"p90\":5,\"p99\":5,\"max\":5,\"total\":70}\n",
        "{\"type\":\"engine\",\"threads\":2,\"shards\":2,\"cut_messages\":9,\"mailbox_posts\":4,\"peak_bucket\":3}\n",
        "{\"type\":\"timings\",\"values\":{\"run_wall\":12345}}\n",
        "{\"type\":\"meta\",\"schema_version\":1,\"algorithm\":\"alg1\",\"workload\":\"cycle:n=24\",\"seed\":4,\"n\":24}\n",
        "{\"type\":\"counters\",\"values\":{\"elapsed_rounds\":9,\"max_awake\":4,\"messages_sent\":10,\"messages_dropped\":0}}\n",
    );

    #[test]
    fn parses_and_summarizes_the_writer_shape() {
        let runs = parse_trace(DOC).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].algorithm, "luby");
        assert_eq!(runs[0].seed, 3);
        assert_eq!(runs[0].rounds, 7);
        assert_eq!(runs[0].max_awake, 5);
        assert_eq!(runs[0].dropped, 2);
        assert_eq!(runs[0].p50, 3);
        assert_eq!(runs[0].p99, 5);
        assert_eq!(runs[0].round_records, 1);
        assert_eq!(runs[0].shards, 2);
        assert_eq!(runs[1].algorithm, "alg1");
        assert_eq!(runs[1].rounds, 9);
    }

    #[test]
    fn schema_violations_are_errors() {
        assert!(parse_trace("").unwrap_err().contains("no runs"));
        assert!(parse_trace("{\"no_type\":1}\n")
            .unwrap_err()
            .contains("not a trace record"));
        let v2 = DOC.replace("\"schema_version\":1", "\"schema_version\":2");
        assert!(parse_trace(&v2).unwrap_err().contains("schema_version 2"));
        // A record before any meta is orphaned.
        assert!(parse_trace("{\"type\":\"phase\",\"name\":\"x\"}\n")
            .unwrap_err()
            .contains("before any meta"));
        // An unknown record type is a schema violation, not ignorable.
        assert!(
            parse_trace(&format!("{DOC}{{\"type\":\"widget\",\"x\":1}}\n"))
                .unwrap_err()
                .contains("widget")
        );
    }

    #[test]
    fn deterministic_filter_drops_exactly_engine_and_timings() {
        let kept: Vec<&str> = DOC.lines().filter(|l| is_deterministic(l)).collect();
        assert_eq!(kept.len(), DOC.lines().count() - 2);
        assert!(kept.iter().all(|l| {
            !l.starts_with("{\"type\":\"engine\"") && !l.starts_with("{\"type\":\"timings\"")
        }));
    }

    /// The exact CI invariant: a sequential and a parallel trace of one
    /// scenario agree line-for-line once engine/timings are filtered.
    #[test]
    fn cross_engine_traces_diff_clean_after_filtering() {
        let par = DOC;
        let seq = DOC
            .replace(
                "{\"type\":\"engine\",\"threads\":2,\"shards\":2,\"cut_messages\":9,\"mailbox_posts\":4,\"peak_bucket\":3}",
                "{\"type\":\"engine\",\"threads\":0,\"shards\":0,\"cut_messages\":0,\"mailbox_posts\":0,\"peak_bucket\":3}",
            )
            .replace("\"run_wall\":12345", "\"run_wall\":99");
        let det = |doc: &str| {
            doc.lines()
                .filter(|l| is_deterministic(l))
                .map(ToString::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(det(par), det(&seq));
        // And a genuine counter divergence is NOT filtered away.
        let bad = DOC.replace("\"elapsed_rounds\":7", "\"elapsed_rounds\":8");
        assert_ne!(det(par), det(&bad));
    }
}
