//! The two engines a workload runs on: the virtual-time simulator, one
//! host thread stepping every virtual core lowest-clock-first, and real
//! host threads, one per core. Both build a fresh machine and RadixVM,
//! warm up, measure a window, then finish in-flight work, quiesce and
//! run the correctness checks.

use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use rvm_backend::{build, BackendKind};
use rvm_hw::{Machine, VmSystem};
use rvm_sync::{sim, CostModel};

use crate::layers::{observe, Counters};
use crate::shim::TracedVm;
use crate::trace::{Mode, Span, SpanName, Tracer, NAMES};
use crate::workload::{CoreState, Env, Kind, Shared, Tally};

/// The correctness checks run after every workload.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Frames still allocated after everything was unmapped and the
    /// system quiesced (must be 0).
    pub outstanding_frames: u64,
    /// Accesses through a stale TLB entry (must be 0).
    pub stale_detected: u64,
    /// 2 MiB allocations that fell back to 4 KiB pages (must be 0 on
    /// `huge`, which runs without memory pressure).
    pub block_fallbacks: u64,
    /// Superpage events over the whole run, for `huge`.
    pub installs: u64,
    pub demotions: u64,
    pub promotions: u64,
}

impl Checks {
    /// Reads the checks after `vm` has been drained and quiesced.
    fn read(machine: &Machine, vm: &dyn VmSystem) -> Checks {
        let op = vm.op_stats();
        Checks {
            outstanding_frames: machine.pool().outstanding_frames(),
            stale_detected: machine.stats().stale_detected,
            block_fallbacks: op.block_fallbacks,
            installs: op.superpage_installs,
            demotions: op.superpage_demotions,
            promotions: op.superpage_promotions,
        }
    }

    /// Failed checks, described; empty when all hold.
    pub fn failures(&self, kind: Kind, tally: &Tally, ordered: bool) -> Vec<String> {
        let mut f = Vec::new();
        if self.outstanding_frames != 0 {
            f.push(format!(
                "{} frames outstanding after unmap + quiesce",
                self.outstanding_frames
            ));
        }
        if self.stale_detected != 0 {
            f.push(format!("{} stale TLB translations", self.stale_detected));
        }
        if kind == Kind::Huge && self.block_fallbacks != 0 {
            f.push(format!(
                "{} block allocations fell back to 4 KiB",
                self.block_fallbacks
            ));
        }
        if tally.mismatches != 0 {
            f.push(format!(
                "{} pages read back a wrong value",
                tally.mismatches
            ));
        }
        if ordered && tally.raced != 0 {
            f.push(format!(
                "{} accesses raced a remap on the simulator, where ops do not interleave",
                tally.raced
            ));
        }
        f
    }
}

/// The system under test on a fresh machine of `ncores` cores, behind
/// the shim when `mode` asks for spans or latencies.
struct System {
    machine: Arc<Machine>,
    bare: Arc<dyn VmSystem>,
    env: Env,
}

impl System {
    fn new(
        kind: Kind,
        ncores: usize,
        mode: Option<Mode>,
        ordered: bool,
        remap_every: u64,
    ) -> System {
        let machine = Machine::new(ncores);
        let bare = build(&machine, BackendKind::Radix);
        let tracer = mode.map(|m| Arc::new(Tracer::new(ncores, m)));
        let vm: Arc<dyn VmSystem> = match &tracer {
            Some(t) => Arc::new(TracedVm::new(bare.clone(), t.clone())),
            None => bare.clone(),
        };
        let env = Env {
            machine: machine.clone(),
            vm,
            tracer,
            shared: Shared::new(kind, ncores, remap_every),
            ordered,
        };
        System { machine, bare, env }
    }

    /// Runs one op on `core`, inside a `bench.op` span when tracing.
    fn op(&self, st: &mut CoreState, core: usize) -> crate::workload::Step {
        let tracer = self.env.tracer.as_deref();
        if let Some(t) = tracer {
            t.begin(core, SpanName::Op);
        }
        let step = st.step(&self.env);
        if let Some(t) = tracer {
            t.end(core, SpanName::Op);
            if step.idle {
                t.discard_op(core);
            }
        }
        step
    }

    /// Drains every core, quiesces and reads the checks.
    fn finish(&self, cores: &mut [CoreState]) -> (Tally, Checks) {
        let mut tally = Tally::default();
        for (c, st) in cores.iter_mut().enumerate() {
            sim::switch(c);
            st.drain(&self.env);
            tally.merge(&st.tally);
        }
        self.bare.quiesce();
        (tally, Checks::read(&self.machine, &*self.bare))
    }
}

/// Simulator run parameters.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    pub ncores: usize,
    /// Virtual warm-up before the window, ns.
    pub warm_ns: u64,
    /// Virtual measurement window, ns.
    pub window_ns: u64,
    /// Latencies only, or full spans.
    pub mode: Mode,
    /// `global`: ops between slice remaps.
    pub remap_every: u64,
}

/// What a simulator run measured.
pub struct SimResult {
    /// Host seconds to build the machine and VM, pre-map and warm up.
    pub setup_s: f64,
    /// Page writes and non-idle ops in the window.
    pub writes: u64,
    pub ops: u64,
    /// Virtual length of the window, ns.
    pub virt_ns: u64,
    /// Per-call virtual latencies in the window (Latency mode), sorted.
    pub samples: [Vec<u64>; NAMES],
    /// Spans of the window (Spans mode), per core.
    pub spans: Vec<Vec<Span>>,
    /// Counter deltas over the window.
    pub delta: Counters,
    /// Peak index and page-table bytes, and their peak sum.
    pub peak_index: u64,
    pub peak_pagetable: u64,
    pub peak_meta: u64,
    pub tally: Tally,
    pub checks: Checks,
}

impl SimResult {
    /// Page writes per virtual second.
    pub fn writes_per_s(&self) -> f64 {
        self.writes as f64 * 1e9 / self.virt_ns.max(1) as f64
    }
}

/// Metadata-size readings taken across a simulator window for its peak.
const META_SAMPLES: u64 = 64;

fn max_clock(n: usize) -> u64 {
    (0..n).map(sim::clock).max().unwrap_or(0)
}

/// Runs `kind` on the simulator.
pub fn run_sim(kind: Kind, seed: u64, cfg: SimConfig) -> SimResult {
    let t0 = Instant::now();
    let n = cfg.ncores;
    let guard = sim::install(n, CostModel::default());
    let sys = System::new(kind, n, Some(cfg.mode), true, cfg.remap_every);
    let mut cores: Vec<CoreState> = (0..n)
        .map(|c| {
            sim::switch(c);
            CoreState::new(&sys.env, c, seed)
        })
        .collect();
    drive(&sys, &mut cores, cfg.warm_ns, |_| {});
    let setup_s = t0.elapsed().as_secs_f64();

    let tracer = sys
        .env
        .tracer
        .as_deref()
        .expect("simulator runs use the shim");
    tracer.reset();
    let before = observe(|| Counters::read(&sys.machine, &*sys.bare)).with_sim();
    let start = max_clock(n);
    let horizon = cfg.warm_ns + cfg.window_ns;
    let every = (cfg.window_ns / META_SAMPLES).max(1);
    let mut peak = (0u64, 0u64, 0u64);
    let sample_meta = |peak: &mut (u64, u64, u64)| {
        let u = observe(|| sys.bare.space_usage());
        let (ix, pt) = (u.index_bytes, u.pagetable_bytes);
        *peak = (peak.0.max(ix), peak.1.max(pt), peak.2.max(ix + pt));
    };
    sample_meta(&mut peak);
    let mut next_sample = cfg.warm_ns + every;
    let (writes, ops) = drive(&sys, &mut cores, horizon, |now| {
        if now >= next_sample {
            next_sample += every;
            sample_meta(&mut peak);
        }
    });
    sample_meta(&mut peak);
    let virt_ns = max_clock(n) - start;
    let after = observe(|| Counters::read(&sys.machine, &*sys.bare)).with_sim();
    let samples = tracer.take_samples();
    let spans = tracer.take_spans();

    let (tally, checks) = sys.finish(&mut cores);
    drop(cores);
    drop(sys);
    let _ = guard.finish();
    SimResult {
        setup_s,
        writes,
        ops,
        virt_ns,
        samples,
        spans,
        delta: after.since(&before),
        peak_index: peak.0,
        peak_pagetable: peak.1,
        peak_meta: peak.2,
        tally,
        checks,
    }
}

/// Steps the lowest-clock core until every clock passes `horizon`,
/// calling `tick(min_clock)` before each op. Returns (page writes,
/// non-idle ops).
fn drive(
    sys: &System,
    cores: &mut [CoreState],
    horizon: u64,
    mut tick: impl FnMut(u64),
) -> (u64, u64) {
    let (mut writes, mut ops) = (0, 0);
    loop {
        let core = sim::min_clock_core();
        let now = sim::clock(core);
        if now >= horizon {
            return (writes, ops);
        }
        tick(now);
        sim::switch(core);
        let step = sys.op(&mut cores[core], core);
        if sim::clock(core) == now {
            // Guarantee progress even if the op charged nothing.
            sim::charge(50);
        }
        writes += step.writes;
        ops += !step.idle as u64;
    }
}

/// Host-thread run parameters.
#[derive(Clone, Copy, Debug)]
pub struct HostConfig {
    pub threads: usize,
    pub warm: Duration,
    /// The measured window after the warm-up.
    pub window: Duration,
    /// Record spans through the shim, or drive the bare system.
    pub traced: bool,
    /// `global`: ops between slice remaps.
    pub remap_every: u64,
}

/// What a host run measured.
pub struct HostResult {
    pub window_s: f64,
    /// Page writes completed in the window.
    pub writes: u64,
    /// Latencies of the non-idle ops completed in the window, ns, sorted.
    pub lat: Vec<u64>,
    pub delta: Counters,
    pub spans: Vec<Vec<Span>>,
    pub tally: Tally,
    pub checks: Checks,
}

impl HostResult {
    /// Page writes per second.
    pub fn rate(&self) -> f64 {
        self.writes as f64 / self.window_s
    }
}

/// Runs `kind` on `cfg.threads` host threads, one per core of a machine
/// with that many cores.
pub fn run_host(kind: Kind, seed: u64, cfg: HostConfig) -> HostResult {
    let n = cfg.threads;
    let mode = cfg.traced.then_some(Mode::Spans);
    let sys = System::new(kind, n, mode, false, cfg.remap_every);
    let mut cores: Vec<CoreState> = (0..n).map(|c| CoreState::new(&sys.env, c, seed)).collect();

    let barrier = Barrier::new(n + 1);
    let start: Mutex<Option<Instant>> = Mutex::new(None);
    let warm_end = Instant::now() + cfg.warm;
    let mut before = Counters::default();
    let mut after = Counters::default();
    let mut spans = Vec::new();
    let per_thread: Vec<(u64, Vec<u64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = cores
            .iter_mut()
            .enumerate()
            .map(|(c, st)| {
                let (sys, barrier, start) = (&sys, &barrier, &start);
                s.spawn(move || {
                    while Instant::now() < warm_end {
                        sys.op(st, c);
                    }
                    barrier.wait(); // warm-up done
                    barrier.wait(); // counters read, clock started
                    let t_start = start
                        .lock()
                        .expect("start time")
                        .expect("set before release");
                    let (mut writes, mut lat) = (0, Vec::new());
                    let mut prev = Instant::now();
                    loop {
                        let step = sys.op(st, c);
                        let now = Instant::now();
                        if now - t_start >= cfg.window {
                            break;
                        }
                        if !step.idle {
                            writes += step.writes;
                            lat.push((now - prev).as_nanos() as u64);
                        }
                        prev = now;
                    }
                    barrier.wait(); // window over
                    barrier.wait(); // counters read
                    (writes, lat)
                })
            })
            .collect();
        barrier.wait();
        if let Some(t) = &sys.env.tracer {
            t.reset();
        }
        before = Counters::read(&sys.machine, &*sys.bare);
        *start.lock().expect("start time") = Some(Instant::now());
        barrier.wait();
        barrier.wait();
        after = Counters::read(&sys.machine, &*sys.bare);
        if let Some(t) = &sys.env.tracer {
            spans = t.take_spans();
        }
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("host worker panicked"))
            .collect()
    });
    let writes = per_thread.iter().map(|t| t.0).sum();
    let mut lat: Vec<u64> = per_thread.into_iter().flat_map(|t| t.1).collect();
    lat.sort_unstable();
    let (tally, checks) = sys.finish(&mut cores);
    HostResult {
        window_s: cfg.window.as_secs_f64(),
        writes,
        lat,
        delta: after.since(&before),
        spans,
        tally,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Final op, machine and pool counters, and the summed virtual
    /// clocks, of a simulator run in which the cores take turns, each
    /// doing exactly `ops` ops, with or without the shim. A fixed turn
    /// order (not lowest clock first) makes the op sequence independent
    /// of virtual time.
    fn fixed_ops(kind: Kind, shim: bool, ncores: usize, ops: u64) -> ([String; 3], u64) {
        let guard = sim::install(ncores, CostModel::default());
        let sys = System::new(kind, ncores, shim.then_some(Mode::Latency), true, 16);
        let mut cores: Vec<CoreState> = (0..ncores)
            .map(|c| {
                sim::switch(c);
                CoreState::new(&sys.env, c, 3)
            })
            .collect();
        for _ in 0..ops {
            for (c, st) in cores.iter_mut().enumerate() {
                sim::switch(c);
                sys.op(st, c);
            }
        }
        let clocks: u64 = (0..ncores).map(sim::clock).sum();
        let (tally, checks) = sys.finish(&mut cores);
        assert_eq!(tally.failed, 0, "{:?}", tally.notes);
        assert!(checks.failures(kind, &tally, true).is_empty());
        let counters = [
            format!("{:?}", sys.bare.op_stats()),
            format!("{:?}", sys.machine.stats()),
            format!("{:?}", sys.machine.pool().stats()),
        ];
        drop(cores);
        drop(sys);
        let _ = guard.finish();
        (counters, clocks)
    }

    #[test]
    fn shim_leaves_counters_unchanged() {
        for kind in Kind::ALL {
            // Three full superpage cycles, or a few hundred small ops.
            let ops = if kind == Kind::Huge { 3 * 19 } else { 300 };
            let (bare, bare_ns) = fixed_ops(kind, false, 4, ops);
            let (shimmed, shimmed_ns) = fixed_ops(kind, true, 4, ops);
            assert_eq!(bare, shimmed, "{kind:?}");
            // The shim charges nothing; what differs between two runs of
            // the same ops is the simulator's address-keyed drift, which
            // stays far below 1%.
            let drift = bare_ns.abs_diff(shimmed_ns) as f64 / bare_ns as f64;
            assert!(drift < 0.01, "{kind:?}: virtual time moved {drift}");
        }
    }
}
