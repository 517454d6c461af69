//! Benchmark harness: regenerates every table and figure of the paper.
//!
//! The host machine has no 80 cores, so scalability experiments run on
//! the deterministic virtual-time simulator of `rvm_sync::sim`: workload
//! closures for N virtual cores are interleaved lowest-clock-first on one
//! OS thread, every instrumented synchronization event advances virtual
//! clocks through a MESI-style cost model, and throughput is computed
//! from virtual time. See DESIGN.md §1 for the fidelity argument.
//!
//! One binary runs every experiment:
//! `cargo run --release -p rvm_bench -- <scenario> [--quick]`. Figure and
//! table scenarios print CSV tables to stdout; record scenarios print a
//! JSON record (checked in as `BENCH_<scenario>.json`) and exit 1 when a
//! gate fails. Progress goes to stderr. Inputs: `--quick`, `RVM_CORES`,
//! `RVM_DUR_MS` and `RVM_METIS_WORDS` (see [`Inputs`]); bad input exits 2.
//!
//! | scenario | reproduces / records |
//! |---|---|
//! | `fig4_metis` | Figure 4 — Metis jobs/hour vs cores |
//! | `fig5_micro` | Figure 5 — local/pipeline/global microbenchmarks |
//! | `fig6_skiplist` | Figure 6 — skip-list lookups under writers |
//! | `fig7_radix` | Figure 7 — radix-tree lookups under writers |
//! | `fig8_refcount` | Figure 8 — Refcache vs SNZI vs shared counter |
//! | `fig9_tlb` | Figure 9 — per-core vs shared page tables |
//! | `table1_loc` | Table 1 — component sizes |
//! | `table2_memory` | Table 2 — address-space metadata memory |
//! | `fastpath` | [`fastpath`] — fault fast path with and without leaf hints |
//! | `scale` | [`scale`] — disjoint, contended and overlapping ops vs cores |
//! | `huge` | [`huge`] — superpage populate, promotion and span shootdown |
//! | `refcount` | [`refcount`] — allocation-free frame ownership |
//! | `numa` | [`numa`] — placement policies across NUMA topologies |
//! | `pressure` | [`pressure`] — throughput near the frame limit |

use rvm_sync::{sim, CostModel, SimStats, MAX_CORES};

pub mod fastpath;
pub mod figures;
pub mod huge;
pub mod json;
pub mod layouts;
pub mod numa;
pub mod pressure;
pub mod refcount;
pub mod scale;
pub mod workloads;

pub use json::Json;

// The VM systems under test live behind the backend layer; the harness
// re-exports it so bench code and downstream users construct every VM
// through one seam.
pub use rvm_backend::{build, BackendKind, BackendMeta, ShootdownPolicy};

/// One measured point of a scalability sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Work units completed (workload-defined).
    pub units: u64,
    /// Virtual nanoseconds elapsed (max core clock).
    pub virt_ns: u64,
    /// Simulator statistics.
    pub sim: SimStats,
}

impl SweepPoint {
    /// Units per virtual second.
    pub fn per_sec(&self) -> f64 {
        ratio(self.units as f64 * 1e9, self.virt_ns as f64)
    }
}

/// `num / den`, or 0 when `den` is not positive: the rate or share of an
/// empty run.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs a workload on `ncores` virtual cores until every core's clock
/// passes `duration_ns`. `make(core)` builds each core's operation
/// closure; the closure returns work units completed (0 is allowed but
/// must still advance the clock to guarantee progress).
pub fn run_sim(
    ncores: usize,
    duration_ns: u64,
    model: CostModel,
    make: impl FnMut(usize) -> Box<dyn FnMut() -> u64>,
) -> SweepPoint {
    run_sim_collect(ncores, duration_ns, model, make, || ()).0
}

/// [`run_sim`] plus a `collect` closure that runs after the workload
/// finishes but *before* the simulator context is torn down, so views
/// that need a live context — label attribution like
/// [`sim::cross_node_transfers_by_label`] — can be captured for the
/// point.
pub fn run_sim_collect<T>(
    ncores: usize,
    duration_ns: u64,
    model: CostModel,
    mut make: impl FnMut(usize) -> Box<dyn FnMut() -> u64>,
    collect: impl FnOnce() -> T,
) -> (SweepPoint, T) {
    let guard = sim::install(ncores, model);
    let mut ops: Vec<Box<dyn FnMut() -> u64>> = (0..ncores).map(&mut make).collect();
    let units = drive(&mut ops, duration_ns);
    drop(ops);
    let collected = collect();
    let stats = guard.finish();
    (
        SweepPoint {
            units,
            virt_ns: stats.max_clock(),
            sim: stats,
        },
        collected,
    )
}

/// Runs core `c`'s op `ops[c]` on the installed simulator, always the
/// core with the lowest clock next (conservative interleaving), until
/// every clock passes `duration_ns`; returns the work units completed.
pub fn drive(ops: &mut [Box<dyn FnMut() -> u64>], duration_ns: u64) -> u64 {
    let mut units = 0u64;
    loop {
        let core = sim::min_clock_core();
        if sim::clock(core) >= duration_ns {
            return units;
        }
        sim::switch(core);
        let before = sim::clock(core);
        units += ops[core]();
        if sim::clock(core) == before {
            // Guarantee progress even if the op charged nothing.
            sim::charge(50);
        }
    }
}

/// Scales the virtual duration down at high core counts so the real cost
/// of a point (ops × cores) stays roughly constant; throughput estimates
/// keep a few thousand operations per core either way, and the simulator
/// is deterministic, so shorter windows do not add noise.
pub fn point_duration(base_ns: u64, ncores: usize) -> u64 {
    base_ns * 10 / ncores.max(10) as u64
}

/// The run's inputs: `--quick` and the `RVM_*` environment, read and
/// checked once by the driver and passed to every scenario.
#[derive(Clone, Debug, Default)]
pub struct Inputs {
    /// `--quick`: trimmed sweeps for CI smoke runs.
    pub quick: bool,
    /// `RVM_CORES`: core counts replacing a sweep's default list.
    pub cores: Option<Vec<usize>>,
    /// `RVM_DUR_MS`: virtual milliseconds per measured point (the base
    /// value at ≤ 10 cores, see [`point_duration`]).
    pub dur_ms: Option<u64>,
    /// `RVM_METIS_WORDS`: words per Metis job.
    pub metis_words: Option<u64>,
}

impl Inputs {
    /// Reads the `RVM_*` variables; the error names the variable and its
    /// value.
    pub fn from_env(quick: bool) -> Result<Inputs, String> {
        let var = |name: &str| std::env::var(name).ok();
        let positive = |name| var(name).map(|v| parse_positive(name, &v)).transpose();
        Ok(Inputs {
            quick,
            cores: var("RVM_CORES").map(|v| parse_cores(&v)).transpose()?,
            dur_ms: positive("RVM_DUR_MS")?,
            metis_words: positive("RVM_METIS_WORDS")?,
        })
    }

    /// `quick` under `--quick`, else `full`.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Core counts for a sweep: `RVM_CORES` if set, else the scenario's
    /// default for this mode.
    pub fn cores(&self, quick: &[usize], full: &[usize]) -> Vec<usize> {
        self.cores
            .clone()
            .unwrap_or_else(|| self.pick(quick, full).to_vec())
    }

    /// Core counts for the figure sweeps: the paper's x-axis, whole chips
    /// of 10 cores at a time plus a single core (§5.1).
    pub fn figure_cores(&self) -> Vec<usize> {
        self.cores(&[1, 4, 16, 48, 80], &[1, 10, 20, 30, 40, 50, 60, 70, 80])
    }

    /// Virtual duration per measured point (base value at ≤ 10 cores).
    pub fn duration_ns(&self) -> u64 {
        self.dur_ms.unwrap_or(self.pick(8, 25)) * 1_000_000
    }
}

/// Parses `RVM_CORES`: a comma-separated, strictly ascending list of core
/// counts in `1..=MAX_CORES`.
pub fn parse_cores(value: &str) -> Result<Vec<usize>, String> {
    let bad = |why: &str| format!("RVM_CORES={value:?}: {why}");
    let mut cores: Vec<usize> = Vec::new();
    for item in value.split(',') {
        let n: usize = item
            .trim()
            .parse()
            .map_err(|_| bad(&format!("{:?} is not a core count", item.trim())))?;
        if !(1..=MAX_CORES).contains(&n) {
            return Err(bad(&format!("{n} is outside 1..={MAX_CORES}")));
        }
        if cores.last().is_some_and(|&last| last >= n) {
            return Err(bad("core counts must be strictly ascending"));
        }
        cores.push(n);
    }
    Ok(cores)
}

/// Parses a positive integer input such as `RVM_DUR_MS`. The bound of
/// 2^32 keeps every duration derived from it within `u64` nanoseconds.
pub fn parse_positive(name: &str, value: &str) -> Result<u64, String> {
    match value.trim().parse::<u32>() {
        Ok(n) if n > 0 => Ok(n.into()),
        _ => Err(format!(
            "{name}={value:?}: expected a positive integer below 2^32"
        )),
    }
}

/// One gate's verdict: its name and every condition the run missed
/// (empty means it passed).
#[derive(Clone, Debug)]
pub struct Gate {
    /// What the gate holds, as the failure report names it.
    pub name: &'static str,
    /// Human-readable failures.
    pub failures: Vec<String>,
}

impl Gate {
    /// A gate with no failures yet.
    pub fn new(name: &'static str) -> Gate {
        Gate {
            name,
            failures: Vec::new(),
        }
    }

    /// Records `why()` as a failure when `failed` holds.
    pub fn fail_if(&mut self, failed: bool, why: impl FnOnce() -> String) {
        if failed {
            self.failures.push(why());
        }
    }

    /// True when every condition held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// `section` with this verdict appended as `"passed"`.
    pub fn stamp(&self, section: Json) -> Json {
        section.with("passed", self.passed())
    }
}

/// What a record scenario hands the driver: the JSON it prints and the
/// gates that set its exit code.
#[derive(Clone, Debug)]
pub struct Record {
    /// The record, printed to stdout.
    pub json: Json,
    /// Every gate the record evaluated.
    pub gates: Vec<Gate>,
}

/// Prints a CSV table: header then one row per core count, one column
/// per series.
pub fn print_table(title: &str, series: &[(&str, Vec<(usize, f64)>)]) {
    println!("# {title}");
    print!("cores");
    for (name, _) in series {
        print!(",{name}");
    }
    println!();
    let cores: Vec<usize> = series[0].1.iter().map(|(c, _)| *c).collect();
    for (i, c) in cores.iter().enumerate() {
        print!("{c}");
        for (_, points) in series {
            print!(",{:.0}", points[i].1);
        }
        println!();
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_sim_terminates_and_counts() {
        let p = run_sim(4, 1_000_000, CostModel::default(), |_| {
            Box::new(|| {
                sim::charge(1_000);
                1
            })
        });
        assert!(p.units >= 4 * 990);
        assert!(p.virt_ns >= 1_000_000);
        // Perfect scaling: 4 cores do ~4x the work of one in equal time.
        let p1 = run_sim(1, 1_000_000, CostModel::default(), |_| {
            Box::new(|| {
                sim::charge(1_000);
                1
            })
        });
        let ratio = p.per_sec() / p1.per_sec();
        assert!(ratio > 3.5 && ratio < 4.5, "ratio {ratio}");
    }

    #[test]
    fn environment_inputs_are_validated() {
        assert_eq!(parse_cores("1, 4,16"), Ok(vec![1, 4, 16]));
        for bad in ["", "abc", "0", "1,,4", "4,1", "4,4", "129", "-1"] {
            let err = parse_cores(bad).expect_err(bad);
            assert!(err.starts_with(&format!("RVM_CORES={bad:?}")), "{err}");
        }
        assert_eq!(parse_positive("RVM_DUR_MS", "6"), Ok(6));
        for bad in ["", "abc", "0", "-3", "2.5", "4294967296"] {
            let err = parse_positive("RVM_DUR_MS", bad).expect_err(bad);
            assert!(err.starts_with(&format!("RVM_DUR_MS={bad:?}")), "{err}");
        }
    }

    #[test]
    fn zero_charge_ops_still_terminate() {
        let p = run_sim(2, 100_000, CostModel::default(), |_| Box::new(|| 0));
        assert_eq!(p.units, 0);
        assert!(p.virt_ns >= 100_000);
    }
}
