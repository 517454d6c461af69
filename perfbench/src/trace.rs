//! In-memory spans on two clocks, and the self-time arithmetic over
//! them.
//!
//! A span is one call at a layer boundary: its name, the core and op it
//! belongs to, the span that caused it, and its start and end on the
//! simulator's virtual clock (`sim::clock(core)`, 0 off the simulator)
//! and on the host's monotonic clock. The tracer keeps one buffer per
//! core; a core only ever touches its own buffer, so recording takes an
//! uncontended lock. Spans stay in memory until the run ends.
//!
//! In [`Mode::Latency`] nothing but per-name virtual durations is kept:
//! that is how the untraced simulator runs read call latencies through
//! the shim without the memory of a full trace.

use std::sync::Mutex;
use std::time::Instant;

use rvm_sync::sim;

/// The layer boundaries a span can mark.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanName {
    /// One workload op (the root of every span tree).
    Op,
    /// A user memory access through the machine (`touch_page`,
    /// `read_u64`): TLB lookup, and the fault it may take.
    Access,
    /// `VmSystem::pagefault`, as the machine calls it on a TLB miss.
    Pagefault,
    /// `VmSystem::mmap` / `mmap_flags`.
    Mmap,
    /// `VmSystem::munmap` (its shootdown included).
    Munmap,
    /// `VmSystem::mprotect`.
    Mprotect,
    /// `VmSystem::maintain`: the Refcache tick.
    Maintain,
}

/// Number of [`SpanName`]s.
pub const NAMES: usize = 7;

impl SpanName {
    /// Every name, in index order.
    pub const ALL: [SpanName; NAMES] = [
        SpanName::Op,
        SpanName::Access,
        SpanName::Pagefault,
        SpanName::Mmap,
        SpanName::Munmap,
        SpanName::Mprotect,
        SpanName::Maintain,
    ];

    /// The span's name as recorded.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Op => "bench.op",
            SpanName::Access => "hw.access",
            SpanName::Pagefault => "core.pagefault",
            SpanName::Mmap => "core.mmap",
            SpanName::Munmap => "core.munmap",
            SpanName::Mprotect => "core.mprotect",
            SpanName::Maintain => "refcache.maintain",
        }
    }

    /// Index into per-name tables.
    pub fn idx(self) -> usize {
        self as usize
    }
}

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. `parent` indexes the same core's span buffer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: SpanName,
    pub core: u16,
    pub parent: u32,
    /// Op identifier, unique per core.
    pub op: u64,
    /// Start and end on the virtual clock, ns.
    pub sim: [u64; 2],
    /// Start and end on the host clock, ns since the tracer was made.
    pub host: [u64; 2],
}

/// Which clock a computation reads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clock {
    Sim,
    Host,
}

impl Span {
    fn interval(&self, clock: Clock) -> [u64; 2] {
        match clock {
            Clock::Sim => self.sim,
            Clock::Host => self.host,
        }
    }

    /// Duration on `clock`.
    pub fn dur(&self, clock: Clock) -> u64 {
        let [s, e] = self.interval(clock);
        e - s
    }
}

/// What a tracer keeps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Per-name virtual durations only.
    Latency,
    /// Full spans on both clocks.
    Spans,
}

#[derive(Default)]
struct CoreTrace {
    spans: Vec<Span>,
    /// Open spans: their index in `spans` (Spans mode) or their virtual
    /// start time (Latency mode).
    open: Vec<(SpanName, u64)>,
    /// Index of the current op's root span.
    op_start: usize,
    op: u64,
    samples: [Vec<u64>; NAMES],
}

/// Per-core span buffers.
pub struct Tracer {
    mode: Mode,
    t0: Instant,
    cores: Vec<Mutex<CoreTrace>>,
}

impl Tracer {
    /// A tracer for `ncores` cores.
    pub fn new(ncores: usize, mode: Mode) -> Tracer {
        Tracer {
            mode,
            t0: Instant::now(),
            cores: (0..ncores).map(|_| Mutex::default()).collect(),
        }
    }

    fn core(&self, core: usize) -> std::sync::MutexGuard<'_, CoreTrace> {
        self.cores[core]
            .lock()
            .expect("a core's trace buffer is only locked by that core")
    }

    fn host_now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` on `core`, as a child of the innermost
    /// open one. Opening [`SpanName::Op`] starts a new op.
    pub fn begin(&self, core: usize, name: SpanName) {
        let sim_now = sim::clock(core);
        let host_now = if self.mode == Mode::Spans {
            self.host_now()
        } else {
            0
        };
        let mut t = self.core(core);
        if name == SpanName::Op {
            debug_assert!(t.open.is_empty(), "op opened inside an open span");
            t.op += 1;
            t.op_start = t.spans.len();
        }
        match self.mode {
            Mode::Latency => t.open.push((name, sim_now)),
            Mode::Spans => {
                let parent = t.open.last().map_or(NO_PARENT, |&(_, i)| i as u32);
                let idx = t.spans.len() as u64;
                let op = t.op;
                t.spans.push(Span {
                    name,
                    core: core as u16,
                    parent,
                    op,
                    sim: [sim_now, sim_now],
                    host: [host_now, host_now],
                });
                t.open.push((name, idx));
            }
        }
    }

    /// Closes the innermost open span on `core`, which must be `name`.
    pub fn end(&self, core: usize, name: SpanName) {
        let sim_now = sim::clock(core);
        let host_now = if self.mode == Mode::Spans {
            self.host_now()
        } else {
            0
        };
        let mut t = self.core(core);
        let (open, v) = t.open.pop().expect("end without begin");
        assert_eq!(open, name, "spans must nest");
        match self.mode {
            Mode::Latency => t.samples[name.idx()].push(sim_now - v),
            Mode::Spans => {
                let s = &mut t.spans[v as usize];
                s.sim[1] = sim_now;
                s.host[1] = host_now;
            }
        }
    }

    /// Drops the op just closed on `core` (an idle poll that did no
    /// work): its spans and its latency sample.
    pub fn discard_op(&self, core: usize) {
        let mut t = self.core(core);
        let start = t.op_start;
        t.spans.truncate(start);
        t.samples[SpanName::Op.idx()].pop();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, core: usize, name: SpanName, f: impl FnOnce() -> R) -> R {
        self.begin(core, name);
        let r = f();
        self.end(core, name);
        r
    }

    /// Forgets everything recorded so far (the end of a warm-up).
    pub fn reset(&self) {
        for c in &self.cores {
            let mut t = c.lock().expect("trace buffer");
            assert!(t.open.is_empty(), "reset with open spans");
            t.spans.clear();
            t.op_start = 0;
            for s in t.samples.iter_mut() {
                s.clear();
            }
        }
    }

    /// Latency-mode durations per name, all cores merged and sorted.
    pub fn take_samples(&self) -> [Vec<u64>; NAMES] {
        let mut out: [Vec<u64>; NAMES] = Default::default();
        for c in &self.cores {
            let mut t = c.lock().expect("trace buffer");
            for (o, s) in out.iter_mut().zip(t.samples.iter_mut()) {
                o.append(s);
            }
        }
        for o in out.iter_mut() {
            o.sort_unstable();
        }
        out
    }

    /// Spans-mode buffers, one per core.
    pub fn take_spans(&self) -> Vec<Vec<Span>> {
        self.cores
            .iter()
            .map(|c| std::mem::take(&mut c.lock().expect("trace buffer").spans))
            .collect()
    }
}

/// Self time of every span in one core's buffer: its duration minus the
/// part of its interval that its children cover.
pub fn self_times(spans: &[Span], clock: Clock) -> Vec<u64> {
    // (parent, start, end) of every child, grouped by parent in start
    // order, so each parent's covered length is one merge pass.
    let mut kids: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != NO_PARENT)
        .map(|s| {
            let [a, b] = s.interval(clock);
            (s.parent, a, b)
        })
        .collect();
    kids.sort_unstable();
    let mut selfs: Vec<u64> = spans.iter().map(|s| s.dur(clock)).collect();
    let mut i = 0;
    while i < kids.len() {
        let parent = kids[i].0;
        let [ps, pe] = spans[parent as usize].interval(clock);
        let (mut covered, mut cur_s, mut cur_e) = (0u64, 0u64, 0u64);
        let mut open = false;
        while i < kids.len() && kids[i].0 == parent {
            let (a, b) = (kids[i].1.clamp(ps, pe), kids[i].2.clamp(ps, pe));
            if open && a <= cur_e {
                cur_e = cur_e.max(b);
            } else {
                if open {
                    covered += cur_e - cur_s;
                }
                (cur_s, cur_e, open) = (a, b, true);
            }
            i += 1;
        }
        if open {
            covered += cur_e - cur_s;
        }
        selfs[parent as usize] -= covered;
    }
    selfs
}

/// Checks the conservation identity on one core's buffer: for every op,
/// the self times of all its spans sum to its root span's duration.
pub fn check_conservation(spans: &[Span], selfs: &[u64], clock: Clock) -> Result<u64, String> {
    let mut ops = 0u64;
    let mut i = 0;
    while i < spans.len() {
        let root = &spans[i];
        if root.parent != NO_PARENT {
            return Err(format!("span {i} ({}) has no root", root.name.as_str()));
        }
        let mut sum = selfs[i];
        let mut j = i + 1;
        while j < spans.len() && spans[j].parent != NO_PARENT {
            if spans[j].op != root.op {
                return Err(format!("span {j} belongs to another op than its root"));
            }
            sum += selfs[j];
            j += 1;
        }
        if sum != root.dur(clock) {
            return Err(format!(
                "op {} on core {}: self times sum to {sum} ns on the {clock:?} clock, \
                 its root span lasts {} ns",
                root.op,
                root.core,
                root.dur(clock)
            ));
        }
        ops += 1;
        i = j;
    }
    Ok(ops)
}

/// Count, total duration and total self time of spans per name.
#[derive(Clone, Copy, Default, Debug)]
pub struct NameTotals {
    pub count: u64,
    pub dur: u64,
    pub self_time: u64,
}

impl NameTotals {
    /// Mean duration per span.
    pub fn mean_dur(&self) -> f64 {
        crate::stats::ratio(self.dur, self.count)
    }

    /// Mean self time per span.
    pub fn mean_self(&self) -> f64 {
        crate::stats::ratio(self.self_time, self.count)
    }
}

/// Per-name totals over every core's buffer on `clock`, after checking
/// conservation on each. Returns the totals and the number of ops.
pub fn summarize(cores: &[Vec<Span>], clock: Clock) -> Result<([NameTotals; NAMES], u64), String> {
    let mut totals = [NameTotals::default(); NAMES];
    let mut ops = 0;
    for spans in cores {
        let selfs = self_times(spans, clock);
        ops += check_conservation(spans, &selfs, clock)?;
        for (s, &st) in spans.iter().zip(&selfs) {
            let t = &mut totals[s.name.idx()];
            t.count += 1;
            t.dur += s.dur(clock);
            t.self_time += st;
        }
    }
    Ok((totals, ops))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: SpanName, parent: u32, op: u64, a: u64, b: u64) -> Span {
        Span {
            name,
            core: 0,
            parent,
            op,
            sim: [a, b],
            host: [a * 3, b * 3],
        }
    }

    /// Two ops: op 1 = access(pagefault) + munmap + self gaps; op 2 =
    /// a bare op.
    fn tree() -> Vec<Span> {
        vec![
            span(SpanName::Op, NO_PARENT, 1, 100, 200),
            span(SpanName::Access, 0, 1, 110, 150),
            span(SpanName::Pagefault, 1, 1, 115, 140),
            span(SpanName::Munmap, 0, 1, 160, 190),
            span(SpanName::Op, NO_PARENT, 2, 200, 230),
        ]
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = tree();
        let selfs = self_times(&t, Clock::Sim);
        assert_eq!(selfs, vec![100 - 40 - 30, 40 - 25, 25, 30, 30]);
        assert_eq!(check_conservation(&t, &selfs, Clock::Sim), Ok(2));
        let selfs = self_times(&t, Clock::Host);
        assert_eq!(check_conservation(&t, &selfs, Clock::Host), Ok(2));
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let t = vec![
            span(SpanName::Op, NO_PARENT, 1, 0, 100),
            span(SpanName::Mmap, 0, 1, 10, 50),
            span(SpanName::Munmap, 0, 1, 40, 60),
        ];
        // The parent's covered interval is the union [10, 60).
        assert_eq!(self_times(&t, Clock::Sim)[0], 50);
    }

    #[test]
    fn conservation_catches_a_child_outside_its_parent() {
        let mut t = tree();
        t[3].sim[1] = 260; // munmap ends after its op
        let selfs = self_times(&t, Clock::Sim);
        assert!(check_conservation(&t, &selfs, Clock::Sim).is_err());
    }

    #[test]
    fn tracer_records_nested_spans() {
        let tr = Tracer::new(2, Mode::Spans);
        tr.begin(1, SpanName::Op);
        tr.span(1, SpanName::Access, || {
            tr.span(1, SpanName::Pagefault, || ());
        });
        tr.end(1, SpanName::Op);
        tr.begin(1, SpanName::Op);
        tr.end(1, SpanName::Op);
        tr.discard_op(1);
        let spans = tr.take_spans();
        assert!(spans[0].is_empty());
        let s = &spans[1];
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[2].parent), (0, 1));
        assert!(s.iter().all(|x| x.op == 1));
        let (totals, ops) = summarize(&spans, Clock::Host).unwrap();
        assert_eq!(ops, 1);
        assert_eq!(totals[SpanName::Pagefault.idx()].count, 1);
        let sum: u64 = totals.iter().map(|t| t.self_time).sum();
        assert_eq!(sum, totals[SpanName::Op.idx()].dur);
    }
}
