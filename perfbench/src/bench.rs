//! One invocation of the benchmark: which runs make up an end-to-end or
//! a per-layer measurement, and how their samples become metrics.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::engine::{run_host, run_sim, HostConfig, HostResult, SimConfig, SimResult};
use crate::json::Json;
use crate::layers::{per_layer, Counters, LayerInputs};
use crate::spec;
use crate::stats::{self, band_percentile, median, percentile, rel_range};
use crate::trace::{self, summarize, Clock, Mode, NameTotals, Span, SpanName, NAMES};
use crate::unit::{run_unit, spawn_unit, Unit, UnitOut};
use crate::workload::{Kind, Tally, GLOBAL_REMAP_EVERY};

/// Virtual sizes of one workload's simulator runs.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    pub warm_ns: u64,
    pub window_ns: u64,
    pub traced_window_ns: u64,
    pub window_1core_ns: u64,
    /// The quantile the mmap/munmap tail metrics report.
    pub tail_q: f64,
    /// `global`: ops between remaps of a core's own slice.
    pub remap_every: u64,
}

/// How many of which runs one invocation makes.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Simulated cores of the scaled run (the paper's machine: 80).
    pub sim_cores: usize,
    /// Scaled simulator units, each on inputs from its own sub-seed;
    /// their latency samples are pooled. One more unit repeats the first
    /// unit's inputs, and the drift between the two (the program's
    /// address-keyed nondeterminism) is recorded, not hidden.
    pub sim_reps: usize,
    /// Extra set-ups (machine, VM, pre-map, warm-up) timed for
    /// `setup_s`, on top of the sim units' own: at least this many, and
    /// more while the run's time lasts.
    pub setup_only: usize,
    /// Host threads, one per host core.
    pub host_threads: usize,
    /// Warm-up of a host run.
    pub host_warm: Duration,
    /// Measured window of a host run. Host runs are short and each gets
    /// a fresh machine: every span of a traced run stays in memory, and
    /// on `pipeline` the producing core grows fresh frames for as long as
    /// a machine lives.
    pub host_window: Duration,
    /// Where a per-layer run writes its spans (`None`: not written).
    pub spans_dir: Option<std::path::PathBuf>,
    /// Virtual sizes, indexed like [`Kind::ALL`].
    pub sizes: [Sizing; 4],
    /// Run each end-to-end unit in a process of its own
    /// (see [`crate::unit`]).
    pub isolate: bool,
}

impl Plan {
    /// The plan of the checked-in benchmark.
    pub fn standard(host_threads: usize, spans_dir: Option<std::path::PathBuf>) -> Plan {
        Plan {
            sim_cores: 80,
            sim_reps: 5,
            setup_only: 2,
            host_threads,
            host_warm: Duration::from_millis(150),
            host_window: Duration::from_millis(300),
            spans_dir,
            sizes: Kind::ALL.map(standard_sizing),
            isolate: true,
        }
    }

    /// Virtual sizes for `kind`.
    pub fn sizing(&self, kind: Kind) -> Sizing {
        self.sizes[kind as usize]
    }
}

/// The checked-in virtual sizes of `kind`'s simulator runs.
fn standard_sizing(kind: Kind) -> Sizing {
    const MS: u64 = 1_000_000;
    let (warm, window, traced, window_1core, tail_q) = match kind {
        Kind::Local => (2, 8, 3, 20, 0.99),
        Kind::Pipeline => (2, 10, 5, 20, 0.99),
        // At 80 cores a slice munmap is a broadcast shootdown costing
        // ~0.2 ms of virtual time, and every core refaults the slice
        // afterwards, so a window that keeps global's fault-dominated
        // shape holds ~90 munmaps per unit, ~460 pooled: the tail is
        // p90, whose band (p89..p91) leaves ~40 samples beyond it.
        Kind::Global => (5, 25, 8, 20, 0.90),
        // ~950 cycles per unit. The tail is p90: the slow calls wait on
        // lines last written by cores running ahead in virtual time, and
        // (with 64-page steps) the calls beyond p95 swung widely from
        // seed to seed; p90 also stays computable per unit.
        Kind::Huge => (4, 20, 8, 100, 0.90),
    };
    Sizing {
        warm_ns: warm * MS,
        window_ns: window * MS,
        traced_window_ns: traced * MS,
        window_1core_ns: window_1core * MS,
        tail_q,
        remap_every: GLOBAL_REMAP_EVERY,
    }
}

/// The seed of a run's `i`-th unit: the run's seed for the first, and
/// derived from it for the others, so units sample different inputs.
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        seed
    } else {
        crate::workload::splitmix(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// Results, failures and the record of one invocation.
pub struct Report {
    pub kind: Kind,
    pub tally: Tally,
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    pub record: Json,
}

impl Report {
    pub fn new(kind: Kind, record: Json) -> Report {
        Report {
            kind,
            tally: Tally::default(),
            failures: Vec::new(),
            metrics: Vec::new(),
            record,
        }
    }

    fn check_sim(&mut self, what: &str, r: &SimResult) {
        self.tally.merge(&r.tally);
        for f in r.checks.failures(self.kind, &r.tally, true) {
            self.failures.push(format!("{what}: {f}"));
        }
    }

    fn check_host(&mut self, what: &str, r: &HostResult) {
        self.tally.merge(&r.tally);
        for f in r.checks.failures(self.kind, &r.tally, false) {
            self.failures.push(format!("{what}: {f}"));
        }
    }

    fn check_unit(&mut self, what: &str, out: UnitOut) -> UnitOut {
        self.tally.merge(&out.tally);
        for f in &out.failures {
            self.failures.push(format!("{what}: {f}"));
        }
        out
    }

    fn put(&mut self, name: &'static str, value: f64) {
        spec::metric(name);
        self.metrics.push((name, value));
    }
}

/// A band percentile that the sample-count rule allows, or an error
/// naming the undersized call type.
fn pct(samples: &[u64], q: f64, what: &str) -> Result<f64, String> {
    band_percentile(samples, q).ok_or_else(|| {
        format!(
            "{what}: {} samples leave fewer than {} beyond the p{} band; the workload \
             is undersized",
            samples.len(),
            stats::MIN_BEYOND,
            q * 100.0
        )
    })
}

fn counters_json(c: &Counters) -> Json {
    c.fields()
        .into_iter()
        .fold(Json::obj(), |j, (n, v)| j.with(n, v))
}

fn sim_entry(r: &SimResult) -> Json {
    let counts = SpanName::ALL
        .iter()
        .map(|n| (n.as_str(), r.samples[n.idx()].len() as u64))
        .filter(|(_, c)| *c > 0)
        .fold(Json::obj(), |j, (n, c)| j.with(n, c));
    Json::obj()
        .with("setup_s", r.setup_s)
        .with("writes", r.writes)
        .with("ops", r.ops)
        .with("virtual_ns", r.virt_ns)
        .with("writes_per_virtual_s", r.writes_per_s())
        .with("peak_meta_bytes", r.peak_meta)
        .with("latency_samples", counts)
        .with("counters", counters_json(&r.delta))
}

/// Values of each metric across units.
#[derive(Default)]
struct Series(Vec<(&'static str, Vec<f64>)>);

impl Series {
    fn add(&mut self, name: &'static str, v: f64) {
        match self.0.iter_mut().find(|e| e.0 == name) {
            Some(e) => e.1.push(v),
            None => self.0.push((name, vec![v])),
        }
    }

    fn get(&self, name: &str) -> Option<&Vec<f64>> {
        self.0.iter().find(|e| e.0 == name).map(|e| &e.1)
    }
}

/// `--trace 0`: the end-to-end metrics.
pub fn end_to_end(
    plan: &Plan,
    kind: Kind,
    seed: u64,
    rep: &mut Report,
    deadline: Instant,
) -> Result<(), String> {
    let sz = plan.sizing(kind);
    let unit = |u, i: usize| {
        let seed = sub_seed(seed, i);
        if plan.isolate {
            spawn_unit(kind, seed, u)
        } else {
            Ok(run_unit(plan, kind, seed, u))
        }
    };
    let mut sims = Vec::new();
    for i in 0..plan.sim_reps {
        let out = rep.check_unit("sim", unit(Unit::Sim, i)?);
        eprintln!(
            "sim {} cores, unit {}: {:.0} writes/virtual s, setup {:.3} s",
            plan.sim_cores,
            i + 1,
            out.value("sim_ops_per_s")?,
            out.value("setup_s")?
        );
        sims.push(out);
    }
    let repeat = rep.check_unit("sim repeat", unit(Unit::Sim, 0)?);
    let mut setups = Vec::new();
    let mut last = Duration::ZERO;
    while setups.len() < plan.setup_only || Instant::now() + last * 2 < deadline {
        let t = Instant::now();
        setups.push(rep.check_unit("sim set-up", unit(Unit::Setup, setups.len())?));
        last = t.elapsed();
    }
    let one = run_sim(
        kind,
        seed,
        SimConfig {
            ncores: 1,
            warm_ns: sz.warm_ns,
            window_ns: sz.window_1core_ns,
            mode: Mode::Latency,
            remap_every: sz.remap_every,
        },
    );
    eprintln!("sim 1 core: {:.0} writes/virtual s", one.writes_per_s());
    rep.check_sim("sim 1-core", &one);

    // Latency samples are pooled over the sim units; every other
    // quantity is one value per unit, reported as the median.
    let calls = [
        (
            SpanName::Pagefault,
            "sim_fault_p50_ns",
            "sim_fault_p99_ns",
            0.99,
        ),
        (
            SpanName::Mmap,
            "sim_mmap_p50_ns",
            "sim_mmap_tail_ns",
            sz.tail_q,
        ),
        (
            SpanName::Munmap,
            "sim_munmap_p50_ns",
            "sim_munmap_tail_ns",
            sz.tail_q,
        ),
    ];
    let mut pooled = Series::default();
    let mut counts = Json::obj();
    let mut quantiles = Json::obj();
    let mut series = Series::default();
    for (call, p50, tail, q) in calls {
        let mut s: Vec<u64> = sims.iter().flat_map(|u| u.samples(call.as_str())).collect();
        s.sort_unstable();
        pooled.add(p50, pct(&s, 0.50, call.as_str())?);
        pooled.add(tail, pct(&s, q, call.as_str())?);
        counts.push(call.as_str(), s.len());
        let qs: Vec<Json> = [0.1, 0.5, 0.9, 0.95, 0.99, 0.999]
            .iter()
            .filter_map(|&q| percentile(&s, q).map(|v| Json::obj().with("q", q).with("ns", v)))
            .collect();
        quantiles.push(call.as_str(), Json::Arr(qs));
        // Per-unit percentiles feed only the spread record.
        for u in &sims {
            for (name, q) in [(p50, 0.5), (tail, q)] {
                if let Some(v) = band_percentile(&u.samples(call.as_str()), q) {
                    series.add(name, v);
                }
            }
        }
    }
    for u in &sims {
        series.add("sim_ops_per_s", u.value("sim_ops_per_s")?);
        series.add("peak_meta_bytes", u.value("peak_meta_bytes")?);
    }
    for u in sims.iter().chain([&repeat]).chain(&setups) {
        series.add("setup_s", u.value("setup_s")?);
    }
    // Same inputs, another process: what differs is the program's own
    // nondeterminism.
    let mut drift = Json::obj();
    for name in ["sim_ops_per_s", "peak_meta_bytes"] {
        let (a, b) = (sims[0].value(name)?, repeat.value(name)?);
        drift.push(name, (a - b).abs() / a.abs().max(f64::MIN_POSITIVE));
    }
    for (call, p50, tail, q) in calls {
        let (a, b) = (
            sims[0].samples(call.as_str()),
            repeat.samples(call.as_str()),
        );
        for (name, q) in [(p50, 0.5), (tail, q)] {
            if let (Some(x), Some(y)) = (band_percentile(&a, q), band_percentile(&b, q)) {
                drift.push(name, (x - y).abs() / x.max(f64::MIN_POSITIVE));
            }
        }
    }
    series.add("sim_ops_per_s_1core", one.writes_per_s());

    let mut spread = Json::obj();
    for m in spec::END_TO_END.iter() {
        let vals = series.get(m.name).cloned().unwrap_or_default();
        let value = match pooled.get(m.name) {
            Some(v) => v[0],
            None if !vals.is_empty() => median(&vals),
            None => return Err(format!("no values for {}", m.name)),
        };
        if !vals.is_empty() {
            spread.push(
                m.name,
                Json::obj()
                    .with("rel_range", rel_range(&vals))
                    .with("values", vals),
            );
        }
        rep.put(m.name, value);
    }
    let unit_json = |u: &UnitOut| u.values.iter().fold(Json::obj(), |j, (n, v)| j.with(n, *v));
    rep.record.push(
        "samples",
        Json::obj()
            .with("sim_units", sims.len())
            .with("sim_latency_samples_pooled", counts)
            .with("mmap_munmap_tail_quantile", sz.tail_q)
            .with("setups", sims.len() + 1 + setups.len())
            .with("units_in_own_process", plan.isolate),
    );
    rep.record.push("sim_latency_quantiles", quantiles);
    rep.record.push("spread", spread);
    rep.record.push("same_input_drift", drift);
    rep.record
        .push("sim_units", Json::Arr(sims.iter().map(unit_json).collect()));
    rep.record.push("sim_1core", sim_entry(&one));
    Ok(())
}

/// `--trace 1`: the per-layer metrics.
pub fn per_layer_run(
    plan: &Plan,
    kind: Kind,
    seed: u64,
    rep: &mut Report,
    deadline: Instant,
) -> Result<(), String> {
    let sz = plan.sizing(kind);
    let sim = run_sim(
        kind,
        seed,
        SimConfig {
            ncores: plan.sim_cores,
            warm_ns: sz.warm_ns,
            window_ns: sz.traced_window_ns,
            mode: Mode::Spans,
            remap_every: sz.remap_every,
        },
    );
    rep.check_sim("traced sim", &sim);
    let (sim_totals, sim_ops) = summarize(&sim.spans, Clock::Sim)?;
    summarize(&sim.spans, Clock::Host)?;
    eprintln!(
        "traced sim {} cores: {} ops, {} spans",
        plan.sim_cores,
        sim_ops,
        sim.spans.iter().map(Vec::len).sum::<usize>()
    );

    // Alternate untraced and traced host runs until the time is up; the
    // traced ones give the host-clock spans and counters.
    let cfg = |traced| HostConfig {
        threads: plan.host_threads,
        warm: plan.host_warm,
        window: plan.host_window,
        traced,
        remap_every: sz.remap_every,
    };
    let mut untraced = Vec::new();
    let mut untraced_lat = (Vec::new(), Vec::new(), 0);
    let mut traced = Vec::new();
    let mut host_totals = [NameTotals::default(); NAMES];
    let mut host_ops = 0;
    let mut host_delta = Counters::default();
    let mut kept_spans = None;
    let pair = 2 * (plan.host_warm + plan.host_window) + Duration::from_millis(200);
    while traced.is_empty() || Instant::now() + pair < deadline {
        let u = run_host(kind, seed, cfg(false));
        rep.check_host("untraced host", &u);
        untraced.push(u.rate());
        untraced_lat.0.push(pct(&u.lat, 0.50, "host op")?);
        untraced_lat.1.push(pct(&u.lat, 0.99, "host op")?);
        untraced_lat.2 += u.lat.len() as u64;
        let t = run_host(kind, seed, cfg(true));
        rep.check_host("traced host", &t);
        traced.push(t.rate());
        let (totals, ops) = summarize(&t.spans, Clock::Host)?;
        for (acc, x) in host_totals.iter_mut().zip(totals) {
            acc.count += x.count;
            acc.dur += x.dur;
            acc.self_time += x.self_time;
        }
        host_ops += ops;
        host_delta = host_delta.plus(&t.delta);
        kept_spans.get_or_insert(t.spans);
    }
    let (host_traced, host_untraced) = (median(&traced), median(&untraced));
    eprintln!(
        "host: {} untraced/traced pairs, {:.0} vs {:.0} writes/s",
        traced.len(),
        host_untraced,
        host_traced
    );

    let values = per_layer(&LayerInputs {
        sim: &sim.delta,
        sim_spans: &sim_totals,
        sim_ops,
        peak_index: sim.peak_index,
        peak_pagetable: sim.peak_pagetable,
        host: &host_delta,
        host_spans: &host_totals,
        host_ops,
        host_traced,
        host_untraced,
        host_p50: median(&untraced_lat.0),
        host_p99: median(&untraced_lat.1),
        host_untraced_ops: untraced_lat.2,
    });
    let mut samples = Json::obj();
    for v in &values {
        rep.put(v.name, v.value);
        samples.push(v.name, v.samples);
    }
    rep.record.push("samples", samples);
    rep.record.push("sim_run", sim_entry(&sim));
    rep.record.push(
        "host_runs",
        Json::obj()
            .with("pairs", traced.len())
            .with("untraced_writes_per_s", untraced)
            .with("traced_writes_per_s", traced)
            .with("counters", counters_json(&host_delta)),
    );
    if let Some(dir) = &plan.spans_dir {
        let path = dir.join(format!("{}-spans.csv", kind.name()));
        let host_spans = kept_spans.unwrap_or_default();
        let written = write_spans(&path, &[("sim", &sim.spans), ("host", &host_spans)])
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        rep.record.push(
            "spans_file",
            Json::obj()
                .with("path", path.display().to_string())
                .with("spans_written", written)
                .with(
                    "spans_recorded",
                    sim.spans
                        .iter()
                        .chain(&host_spans)
                        .map(Vec::len)
                        .sum::<usize>(),
                ),
        );
    }
    Ok(())
}

/// Spans written out per engine: every span stays in memory for the
/// metrics, and the file keeps whole ops up to this many spans, spread
/// evenly over the cores.
const SPANS_WRITTEN: usize = 100_000;

/// Writes spans as CSV, one line per span; `parent` indexes the spans
/// of the same engine and core (-1 for an op's root). Returns the number
/// of spans written.
fn write_spans(path: &Path, sets: &[(&str, &Vec<Vec<Span>>)]) -> std::io::Result<usize> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "engine,core,index,op,parent,name,sim_start,sim_end,host_start,host_end"
    )?;
    let mut written = 0;
    for (engine, cores) in sets {
        let per_core = SPANS_WRITTEN / cores.len().max(1);
        for spans in cores.iter() {
            for (i, s) in spans.iter().enumerate() {
                if s.parent == trace::NO_PARENT && i >= per_core {
                    break;
                }
                let parent = if s.parent == trace::NO_PARENT {
                    -1
                } else {
                    s.parent as i64
                };
                writeln!(
                    w,
                    "{engine},{},{i},{},{parent},{},{},{},{},{}",
                    s.core,
                    s.op,
                    s.name.as_str(),
                    s.sim[0],
                    s.sim[1],
                    s.host[0],
                    s.host[1]
                )?;
                written += 1;
            }
        }
    }
    w.flush()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plan small enough for a unit test: 4 simulated cores, short
    /// windows, median-only mmap/munmap tails (a handful of cycles
    /// cannot support a p99), `global` remapping often.
    fn smoke_plan() -> Plan {
        const MS: u64 = 1_000_000;
        let size = |kind| Sizing {
            warm_ns: MS,
            window_ns: if kind == Kind::Huge { 12 * MS } else { 3 * MS },
            traced_window_ns: 2 * MS,
            window_1core_ns: 5 * MS,
            tail_q: 0.5,
            remap_every: 32,
        };
        Plan {
            sim_cores: 4,
            sim_reps: 2,
            setup_only: 1,
            host_threads: 2,
            host_warm: Duration::from_millis(20),
            host_window: Duration::from_millis(200),
            spans_dir: None,
            sizes: Kind::ALL.map(size),
            isolate: false,
        }
    }

    #[test]
    fn smoke_all_workloads_report_every_metric() {
        let plan = smoke_plan();
        for kind in Kind::ALL {
            let mut rep = Report::new(kind, Json::obj());
            let deadline = Instant::now() + Duration::from_millis(400);
            end_to_end(&plan, kind, 7, &mut rep, deadline).unwrap();
            per_layer_run(&plan, kind, 7, &mut rep, Instant::now()).unwrap();
            assert!(rep.failures.is_empty(), "{kind:?}: {:?}", rep.failures);
            assert_eq!(rep.tally.failed, 0, "{kind:?}: {:?}", rep.tally.notes);
            let names: Vec<&str> = rep.metrics.iter().map(|m| m.0).collect();
            let want: Vec<&str> = spec::END_TO_END
                .iter()
                .chain(spec::PER_LAYER.iter())
                .map(|m| m.name)
                .collect();
            assert_eq!(names, want, "{kind:?}");
            assert!(rep.metrics.iter().all(|m| m.1.is_finite()));
        }
    }
}
