//! The RadixVM benchmark: one command, four workloads, two clocks.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <local|pipeline|global|huge> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --spec > BENCHMARK.json
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: the workload on the
//! virtual-time simulator at 80 cores, each 80-core run in a process of
//! its own (`--unit`, see [`unit`]), and at 1 core. `--trace 1` measures
//! the per-layer metrics: an 80-core simulator run through the shim that
//! records spans, and alternating untraced and traced runs on one host
//! thread per host core. Either way every run ends with the correctness checks.
//! Progress goes to stderr and a readable report to stdout, whose last
//! line is the JSON result; the full record (seed, run conditions, sample
//! counts, spreads) is written under `perfbench/out/`.

mod bench;
mod engine;
mod json;
mod layers;
mod shim;
mod spec;
mod stats;
mod trace;
mod unit;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use bench::{end_to_end, per_layer_run, Plan, Report};
use json::Json;
use unit::{run_unit, Unit};
use workload::Kind;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// What an invocation asks for.
enum Command {
    /// Print `BENCHMARK.json`.
    Spec,
    /// A measurement: the benchmark's public interface.
    Run(Args),
    /// One unit of an end-to-end run, for the parent that started this
    /// process.
    Unit(Kind, u64, Unit),
}

fn parse_args() -> Result<Command, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--spec") {
        return Ok(Command::Spec);
    }
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let kind = get("--workload")?;
    let kind = Kind::parse(kind).ok_or_else(|| format!("unknown workload {kind}"))?;
    let seed = num("--seed")?;
    if argv.iter().any(|a| a == "--unit") {
        let u = get("--unit")?;
        let u = Unit::parse(u).ok_or_else(|| format!("unknown unit {u}"))?;
        return Ok(Command::Unit(kind, seed, u));
    }
    let seconds = num("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Command::Run(Args {
        kind,
        seed,
        seconds,
        trace,
    }))
}

/// The git revision of the checkout, when it is one.
fn git_revision() -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".git");
    let Ok(head) = std::fs::read_to_string(root.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(root.join(r)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(root.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({r})"))
}

/// Seed, host, and every simulator parameter the numbers depend on.
fn conditions(args: &Args, plan: &Plan) -> Json {
    let m = rvm_sync::CostModel::default();
    let t = &m.topology;
    let model = Json::obj()
        .with("local_ns", m.local_ns)
        .with("remote_ns", m.remote_ns)
        .with("line_service_ns", m.line_service_ns)
        .with("inval_per_sharer_ns", m.inval_per_sharer_ns)
        .with("cold_ns", m.cold_ns)
        .with("ipi_send_ns", m.ipi_send_ns)
        .with("ipi_handle_ns", m.ipi_handle_ns)
        .with("ipi_bus_ns", m.ipi_bus_ns)
        .with("page_work_ns", m.page_work_ns)
        .with("op_base_ns", m.op_base_ns)
        .with("alloc_ns", m.alloc_ns)
        .with("hop_ns", m.hop_ns)
        .with("page_hop_ns", m.page_hop_ns);
    let topology = Json::obj()
        .with("nnodes", t.nnodes)
        .with(
            "core_to_node",
            t.core_to_node.iter().map(|&n| n as u64).collect::<Vec<_>>(),
        )
        .with("distance", t.distance.clone());
    let sz = plan.sizing(args.kind);
    Json::obj()
        .with("workload", args.kind.name())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("host_cores", host_cores())
        .with("git_revision", git_revision())
        .with("backend", "RadixVM (BackendKind::Radix)")
        .with("sim_cores", plan.sim_cores)
        .with("sim_reps", plan.sim_reps)
        .with("global_remap_every", sz.remap_every)
        .with("sim_warm_ns", sz.warm_ns)
        .with("sim_window_ns", sz.window_ns)
        .with("sim_traced_window_ns", sz.traced_window_ns)
        .with("sim_1core_window_ns", sz.window_1core_ns)
        .with("mmap_munmap_tail_quantile", sz.tail_q)
        .with("cost_model", model)
        .with("topology", topology)
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where records and spans go: `perfbench/out/` in the checkout.
fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Command::Run(a)) => a,
        Ok(Command::Spec) => {
            print!("{}", spec::benchmark_json().pretty());
            return ExitCode::SUCCESS;
        }
        Ok(Command::Unit(kind, seed, unit)) => {
            let plan = Plan::standard(host_cores(), None);
            print!("{}", run_unit(&plan, kind, seed, unit).encode());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <local|pipeline|global|huge> --seed <n> \
                 --seconds <s> --trace <0|1>   |   perfbench --spec"
            );
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let deadline = started + Duration::from_secs(args.seconds);
    let out = match out_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let plan = Plan::standard(host_cores(), Some(out.clone()));
    let mut rep = Report::new(
        args.kind,
        Json::obj().with("conditions", conditions(&args, &plan)),
    );
    let run = if args.trace {
        per_layer_run(&plan, args.kind, args.seed, &mut rep, deadline)
    } else {
        end_to_end(&plan, args.kind, args.seed, &mut rep, deadline)
    };
    if let Err(e) = run {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }

    let correct = rep.failures.is_empty();
    let failed_frac = stats::ratio(rep.tally.failed, rep.tally.attempted);
    println!(
        "# {} seed {} trace {}: {:.1} s, host cores {}",
        args.kind.name(),
        args.seed,
        args.trace as u8,
        started.elapsed().as_secs_f64(),
        host_cores()
    );
    for (name, value) in &rep.metrics {
        println!("{name:<34} {value:>18.4} {}", spec::metric(name).unit);
    }
    println!(
        "{:<34} {:>18.6} ratio ({} of {} calls; {} accesses raced a remap and were retried)",
        "failed_op_frac", failed_frac, rep.tally.failed, rep.tally.attempted, rep.tally.raced
    );
    for n in &rep.tally.notes {
        println!("note: {n}");
    }
    for f in &rep.failures {
        println!("CHECK FAILED: {f}");
    }

    let mut metrics = Json::obj();
    for (name, value) in &rep.metrics {
        metrics.push(
            name,
            Json::obj()
                .with("value", *value)
                .with("unit", spec::metric(name).unit),
        );
    }
    rep.record.push(
        "outcome",
        Json::obj()
            .with("correct", correct)
            .with("attempted", rep.tally.attempted)
            .with("failed", rep.tally.failed)
            .with("failed_op_frac", failed_frac)
            .with("raced", rep.tally.raced)
            .with("check_failures", rep.failures.clone())
            .with("notes", rep.tally.notes.clone()),
    );
    rep.record.push("metrics", metrics.clone());
    let record = out.join(format!(
        "{}-trace{}.json",
        args.kind.name(),
        args.trace as u8
    ));
    if let Err(e) = std::fs::write(&record, rep.record.pretty()) {
        eprintln!("perfbench: writing {}: {e}", record.display());
        return ExitCode::FAILURE;
    }
    let result = Json::obj()
        .with("correct", correct)
        .with("attempted", rep.tally.attempted.max(1))
        .with("failed", rep.tally.failed)
        .with("metrics", metrics);
    println!("{result}");
    ExitCode::SUCCESS
}
