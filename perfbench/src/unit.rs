//! The simulator units of an end-to-end run, each run in a process of
//! its own.
//!
//! The program keys some decisions on heap addresses (Refcache's delta
//! cache hashes object addresses; the simulator's line table is keyed by
//! them), so one process's address layout leans every measurement it
//! makes the same way, and a second process leans another way. Running
//! each unit in a fresh process samples that layout once per unit; the
//! parent pools or takes medians over units and records each unit's
//! value, so the drift stays visible instead of riding on one draw.
//!
//! A unit prints its results on stdout as lines the parent decodes:
//! `v <name> <value>`, `h <span> <value>:<count> ...` (a latency
//! histogram), `t <attempted> <failed> <raced> <mismatches> <cycles>`,
//! `n <note>` and `f <failed check>`.

use std::process::{Command, Stdio};

use crate::bench::Plan;
use crate::engine::{run_sim, SimConfig};
use crate::trace::{Mode, SpanName};
use crate::workload::{Kind, Tally};

/// What a unit measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Unit {
    /// One scaled simulator run: throughput, peak metadata, set-up time
    /// and the mmap/munmap/fault latency histograms.
    Sim,
    /// A scaled simulator set-up alone (machine, VM, pre-map, warm-up).
    Setup,
}

impl Unit {
    pub fn name(self) -> &'static str {
        match self {
            Unit::Sim => "sim",
            Unit::Setup => "setup",
        }
    }

    pub fn parse(s: &str) -> Option<Unit> {
        [Unit::Sim, Unit::Setup].into_iter().find(|u| u.name() == s)
    }
}

/// The calls whose virtual latencies a sim unit returns.
pub const SIM_CALLS: [SpanName; 3] = [SpanName::Pagefault, SpanName::Mmap, SpanName::Munmap];

/// A unit's results.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UnitOut {
    pub values: Vec<(String, f64)>,
    /// Latency histograms as ascending `(value, count)` runs.
    pub hists: Vec<(String, Vec<(u64, u64)>)>,
    pub tally: Tally,
    /// Failed correctness checks.
    pub failures: Vec<String>,
}

impl UnitOut {
    /// The value named `name`.
    pub fn value(&self, name: &str) -> Result<f64, String> {
        self.values
            .iter()
            .find(|v| v.0 == name)
            .map(|v| v.1)
            .ok_or_else(|| format!("unit reported no {name}"))
    }

    /// The samples of histogram `name`, expanded in ascending order.
    pub fn samples(&self, name: &str) -> Vec<u64> {
        self.hists
            .iter()
            .filter(|h| h.0 == name)
            .flat_map(|h| h.1.iter())
            .flat_map(|&(v, n)| std::iter::repeat_n(v, n as usize))
            .collect()
    }

    fn put(&mut self, name: &str, v: f64) {
        self.values.push((name.to_string(), v));
    }

    fn put_hist(&mut self, name: &str, sorted: &[u64]) {
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for &v in sorted {
            match runs.last_mut() {
                Some(r) if r.0 == v => r.1 += 1,
                _ => runs.push((v, 1)),
            }
        }
        self.hists.push((name.to_string(), runs));
    }

    /// The line form a unit prints.
    pub fn encode(&self) -> String {
        let mut s = String::new();
        for (n, v) in &self.values {
            s += &format!("v {n} {v:?}\n");
        }
        for (n, runs) in &self.hists {
            s += &format!("h {n}");
            for (v, c) in runs {
                s += &format!(" {v}:{c}");
            }
            s.push('\n');
        }
        let t = &self.tally;
        s += &format!(
            "t {} {} {} {} {}\n",
            t.attempted, t.failed, t.raced, t.mismatches, t.cycles
        );
        for n in &t.notes {
            s += &format!("n {}\n", n.replace('\n', " "));
        }
        for f in &self.failures {
            s += &format!("f {}\n", f.replace('\n', " "));
        }
        s
    }

    /// Parses [`UnitOut::encode`]'s output.
    pub fn decode(text: &str) -> Result<UnitOut, String> {
        let mut out = UnitOut::default();
        let num = |s: &str| {
            s.parse::<u64>()
                .map_err(|e| format!("bad count {s:?}: {e}"))
        };
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            match tag {
                "v" => {
                    let (n, v) = rest.split_once(' ').ok_or("value line without value")?;
                    let v = v
                        .parse::<f64>()
                        .map_err(|e| format!("bad value {v:?}: {e}"))?;
                    out.put(n, v);
                }
                "h" => {
                    let mut parts = rest.split(' ');
                    let name = parts.next().ok_or("histogram without name")?.to_string();
                    let mut runs = Vec::new();
                    for p in parts {
                        let (v, c) = p.split_once(':').ok_or("histogram run without count")?;
                        runs.push((num(v)?, num(c)?));
                    }
                    out.hists.push((name, runs));
                }
                "t" => {
                    let f: Vec<u64> = rest.split(' ').map(num).collect::<Result<_, _>>()?;
                    let [attempted, failed, raced, mismatches, cycles] = f[..] else {
                        return Err(format!("tally line {line:?}"));
                    };
                    out.tally = Tally {
                        attempted,
                        failed,
                        raced,
                        mismatches,
                        cycles,
                        notes: std::mem::take(&mut out.tally.notes),
                    };
                }
                "n" => out.tally.notes.push(rest.to_string()),
                "f" => out.failures.push(rest.to_string()),
                "" => {}
                _ => return Err(format!("unknown unit line {line:?}")),
            }
        }
        Ok(out)
    }
}

/// Runs `unit` in this process.
pub fn run_unit(plan: &Plan, kind: Kind, seed: u64, unit: Unit) -> UnitOut {
    let sz = plan.sizing(kind);
    let r = run_sim(
        kind,
        seed,
        SimConfig {
            ncores: plan.sim_cores,
            warm_ns: sz.warm_ns,
            window_ns: if unit == Unit::Sim { sz.window_ns } else { 0 },
            mode: Mode::Latency,
            remap_every: sz.remap_every,
        },
    );
    let mut out = UnitOut::default();
    out.put("setup_s", r.setup_s);
    if unit == Unit::Sim {
        out.put("sim_ops_per_s", r.writes_per_s());
        out.put("peak_meta_bytes", r.peak_meta as f64);
        for call in SIM_CALLS {
            out.put_hist(call.as_str(), &r.samples[call.idx()]);
        }
        // Whole-run superpage accounting: one install, demotion and
        // promotion per `huge` cycle.
        out.put("cycles", r.tally.cycles as f64);
        out.put("superpage_installs", r.checks.installs as f64);
        out.put("superpage_demotions", r.checks.demotions as f64);
        out.put("superpage_promotions", r.checks.promotions as f64);
    }
    out.failures = r.checks.failures(kind, &r.tally, true);
    out.tally = r.tally;
    out
}

/// Runs `unit` in a fresh process of this program and waits for it.
pub fn spawn_unit(kind: Kind, seed: u64, unit: Unit) -> Result<UnitOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let seed = seed.to_string();
    let out = Command::new(exe)
        .args([
            "--unit",
            unit.name(),
            "--workload",
            kind.name(),
            "--seed",
            &seed,
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {} unit: {e}", unit.name()))?;
    if !out.status.success() {
        return Err(format!("the {} unit failed: {}", unit.name(), out.status));
    }
    UnitOut::decode(&String::from_utf8_lossy(&out.stdout))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_output_round_trips() {
        let mut out = UnitOut::default();
        out.put("sim_ops_per_s", 24_807_400.123);
        out.put("setup_s", 0.409742132);
        out.put_hist("core.mmap", &[3, 3, 3, 7, 9, 9]);
        out.put_hist("core.munmap", &[]);
        out.tally = Tally {
            attempted: 10,
            failed: 1,
            raced: 2,
            mismatches: 0,
            cycles: 4,
            notes: vec!["core 3: write failed: no mapping".into()],
        };
        out.failures.push("1 stale TLB translations".into());
        let back = UnitOut::decode(&out.encode()).unwrap();
        assert_eq!(back, out);
        assert_eq!(back.samples("core.mmap"), vec![3, 3, 3, 7, 9, 9]);
        assert_eq!(back.value("setup_s"), Ok(0.409742132));
        assert!(back.value("nothing").is_err());
        assert!(UnitOut::decode("x 1").is_err());
    }
}
