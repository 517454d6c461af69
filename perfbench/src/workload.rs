//! The four workloads, as per-core closed-loop state machines.
//!
//! A core issues its next op when the previous one returns. Work is
//! counted in page writes (Fig. 5's y-axis). The same code runs on the
//! simulator, where one host thread steps every virtual core, and on host
//! threads, one per core; cross-core state is therefore `Sync`. Every
//! random choice comes from a per-core generator derived from the seed.
//!
//! * `local` — Fig. 5 local: mmap, write and munmap a private 4 KiB page.
//! * `pipeline` — Fig. 5 pipeline: map and write a page, hand it to the
//!   next core, which checks the byte, writes it and munmaps it.
//! * `global` — Fig. 5 global: random writes over a region of 16-page
//!   slices, one per core; each core remaps its slice every
//!   [`GLOBAL_REMAP_EVERY`] ops so munmap and its broadcast shootdowns
//!   stay in every window.
//! * `huge` — the superpage lifecycle on private 2 MiB slots: hinted
//!   mmap, write every page, an 8-page protection round trip (demote),
//!   rewrite (promote), check and munmap.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use rvm_hw::{Backing, Machine, MapFlags, Prot, Vaddr, VmError, VmResult, VmSystem, PAGE_SIZE};
use rvm_sync::sim;

use crate::trace::{SpanName, Tracer};

/// Ops between Refcache maintenance ticks, as a kernel timer would (the
/// cadence of the repository's Fig. 5 closures: a tick every ~0.3 ms of
/// virtual time at 80 cores).
pub const MAINTAIN_EVERY: u64 = 128;
/// The same tick for `huge`: every 256 pages written is again ~0.3 ms,
/// and a freed block returns within its cycle.
const HUGE_MAINTAIN_EVERY: u64 = 256 / HUGE_CHUNK;

/// Region bases keep the workloads' address ranges apart.
const LOCAL_BASE: Vaddr = 0x200_0000_0000;
const PIPE_BASE: Vaddr = 0x300_0000_0000;
const GLOBAL_BASE: Vaddr = 0x400_0000_0000;
const HUGE_BASE: Vaddr = 0x800_0000_0000;

/// Private page slots a `local` or `pipeline` core cycles through.
const SLOTS: u64 = 64;
/// Bounded handoff queue depth, so the pipeline stays coupled.
const PIPE_CAP: usize = 4;
/// Pages per core slice of the `global` region (64 KiB).
pub const SLICE_PAGES: u64 = 16;
/// Ops between remaps of a core's own `global` slice: every page is
/// written many times between remaps (the fill-fault-dominated shape of
/// Fig. 5 global), yet every 80-core window holds munmaps with broadcast
/// shootdowns (the repository's Fig. 5 closure remaps every
/// 64 x ncores ops, which leaves none in a short window).
pub const GLOBAL_REMAP_EVERY: u64 = 4096;
/// Aligned 2 MiB slots a `huge` core rotates through.
const HUGE_SLOTS: u64 = 4;
/// Pages of one superpage block.
pub const BLOCK_PAGES: u64 = rvm_hw::BLOCK_PAGES;
/// Pages written per `huge` write step. Short steps keep the simulator's
/// interleaving fine: a core that runs one long op ahead in virtual time
/// makes every core that next touches a line it wrote wait for it, and
/// with 64-page steps those waits swung mmap/munmap latencies by tens of
/// percent from one seed to the next.
const HUGE_CHUNK: u64 = 4;
/// Pages revoked and restored to demote the block.
const HUGE_PROTECT_PAGES: u64 = 8;
/// Steps of one `huge` cycle: mmap, the write chunks, the protection
/// round trip, the rewrite chunks, check and munmap.
const HUGE_STEPS: u64 = 2 + 2 * (BLOCK_PAGES / HUGE_CHUNK) + 1;

/// The workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Local,
    Pipeline,
    Global,
    Huge,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 4] = [Kind::Local, Kind::Pipeline, Kind::Global, Kind::Huge];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Local => "local",
            Kind::Pipeline => "pipeline",
            Kind::Global => "global",
            Kind::Huge => "huge",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// SplitMix64 step.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The word a page filled with `byte` reads back as.
fn pattern(byte: u8) -> u64 {
    u64::from_ne_bytes([byte; 8])
}

/// Cross-core state of one workload instance.
pub struct Shared {
    kind: Kind,
    ncores: usize,
    /// `pipeline`: each core's inbound handoff queue of (page, byte).
    queues: Vec<Mutex<VecDeque<(Vaddr, u8)>>>,
    /// `global`: per-slice remap sequence, odd while the owner remaps.
    slice_seq: Vec<AtomicU64>,
    /// `global`: last byte written to each page (0: demand-zero).
    last_byte: Vec<AtomicU8>,
    /// `global`: ops between remaps of a core's own slice.
    remap_every: u64,
}

impl Shared {
    /// State for `kind` on `ncores` cores; `global` cores remap their
    /// slice every `remap_every` ops.
    pub fn new(kind: Kind, ncores: usize, remap_every: u64) -> Shared {
        let pages = if kind == Kind::Global {
            ncores as u64 * SLICE_PAGES
        } else {
            0
        };
        Shared {
            kind,
            ncores,
            queues: (0..ncores).map(|_| Mutex::default()).collect(),
            slice_seq: (0..ncores).map(|_| AtomicU64::new(0)).collect(),
            last_byte: (0..pages).map(|_| AtomicU8::new(0)).collect(),
            remap_every,
        }
    }

    fn queue(&self, core: usize) -> std::sync::MutexGuard<'_, VecDeque<(Vaddr, u8)>> {
        self.queues[core]
            .lock()
            .expect("no thread panics while holding a handoff queue")
    }
}

/// What one run of a workload needs: the machine, the address space
/// (the shim or the bare system), the tracer when spans are recorded.
pub struct Env {
    pub machine: Arc<Machine>,
    pub vm: Arc<dyn VmSystem>,
    pub tracer: Option<Arc<Tracer>>,
    pub shared: Shared,
    /// Whether writes are ordered (one thread drives every core), so
    /// `global` contents can be checked against the last write.
    pub ordered: bool,
}

impl Env {
    fn span<R>(&self, core: usize, name: SpanName, f: impl FnOnce() -> R) -> R {
        match &self.tracer {
            Some(t) => t.span(core, name, f),
            None => f(),
        }
    }
}

/// One core's outcome counts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally {
    /// VM calls and accesses issued.
    pub attempted: u64,
    /// Of those, the ones that returned an error.
    pub failed: u64,
    /// `global` accesses that lost a race with the remap of their slice
    /// (the page was unmapped while the access was in flight); retried
    /// by the next op, not failures.
    pub raced: u64,
    /// Pages that did not read back the last value written.
    pub mismatches: u64,
    /// `huge` cycles completed.
    pub cycles: u64,
    /// The first few errors, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    fn note(&mut self, msg: String) {
        if self.notes.len() < 8 {
            self.notes.push(msg);
        }
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.raced += other.raced;
        self.mismatches += other.mismatches;
        self.cycles += other.cycles;
        for n in &other.notes {
            self.note(n.clone());
        }
    }
}

/// What one op did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    /// Page writes completed.
    pub writes: u64,
    /// The op found nothing to do (a pipeline poll on a full queue).
    pub idle: bool,
}

impl Step {
    const fn work(writes: u64) -> Step {
        Step {
            writes,
            idle: false,
        }
    }
}

/// One core's workload state.
pub struct CoreState {
    core: usize,
    rng: u64,
    i: u64,
    pub tally: Tally,
    /// `pipeline`: pages produced; slot = (start + produced·stride) mod
    /// [`SLOTS`] with an odd stride visits every slot before reuse, so a
    /// slot is never remapped while its page is still queued.
    produced: u64,
    start: u64,
    stride: u64,
    /// `huge`: step within the cycle, the slot in use and its bytes.
    phase: u64,
    slot: Vaddr,
    bytes: [u8; 2],
}

impl CoreState {
    /// Attaches `core` and maps what the workload keeps mapped (the
    /// `global` slice). On the simulator the caller has switched to
    /// `core`, so the set-up is charged to that core's clock.
    pub fn new(env: &Env, core: usize, seed: u64) -> CoreState {
        env.vm.attach_core(core);
        let mut rng = splitmix(seed ^ splitmix(core as u64 + 1));
        rng = splitmix(rng);
        let mut st = CoreState {
            core,
            rng,
            i: 0,
            tally: Tally::default(),
            produced: 0,
            start: rng % SLOTS,
            stride: (rng >> 8) % (SLOTS / 2) * 2 + 1,
            phase: 0,
            slot: 0,
            bytes: [0; 2],
        };
        if env.shared.kind == Kind::Global {
            st.map(env, st.slice_base(core), SLICE_PAGES, "mmap slice");
        }
        st
    }

    fn next(&mut self) -> u64 {
        self.rng = splitmix(self.rng);
        self.rng
    }

    /// A non-zero byte, so a written page never reads as demand-zero.
    fn next_byte(&mut self) -> u8 {
        (self.next() % 255) as u8 + 1
    }

    /// Counts one VM call and its outcome.
    fn check<T>(&mut self, r: VmResult<T>, what: &str) -> Option<T> {
        self.tally.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.tally.failed += 1;
                self.tally
                    .note(format!("core {}: {what} failed: {e}", self.core));
                None
            }
        }
    }

    fn touch(&mut self, env: &Env, addr: Vaddr, byte: u8) -> VmResult<()> {
        let core = self.core;
        env.span(core, SpanName::Access, || {
            env.machine.touch_page(core, &*env.vm, addr, byte)
        })
    }

    /// Reads `addr` back and counts a mismatch against `byte`.
    fn verify(&mut self, env: &Env, addr: Vaddr, byte: u8) {
        let core = self.core;
        let r = env.span(core, SpanName::Access, || {
            env.machine.read_u64(core, &*env.vm, addr)
        });
        if let Some(v) = self.check(r, "read back") {
            if v != pattern(byte) {
                self.tally.mismatches += 1;
                self.tally.note(format!(
                    "core {}: page {addr:#x} read {v:#x}, expected byte {byte:#x}",
                    self.core
                ));
            }
        }
    }

    fn map(&mut self, env: &Env, addr: Vaddr, pages: u64, what: &str) -> bool {
        let r = env
            .vm
            .mmap(self.core, addr, pages * PAGE_SIZE, Prot::RW, Backing::Anon);
        self.check(r, what).is_some()
    }

    fn unmap(&mut self, env: &Env, addr: Vaddr, pages: u64, what: &str) {
        let r = env.vm.munmap(self.core, addr, pages * PAGE_SIZE);
        self.check(r, what);
    }

    fn tick(&mut self, env: &Env) {
        self.i += 1;
        let every = if env.shared.kind == Kind::Huge {
            HUGE_MAINTAIN_EVERY
        } else {
            MAINTAIN_EVERY
        };
        if self.i.is_multiple_of(every) {
            env.vm.maintain(self.core);
        }
    }

    fn slice_base(&self, core: usize) -> Vaddr {
        GLOBAL_BASE + core as u64 * SLICE_PAGES * PAGE_SIZE
    }

    /// Runs one op.
    pub fn step(&mut self, env: &Env) -> Step {
        match env.shared.kind {
            Kind::Local => self.local(env),
            Kind::Pipeline => self.pipeline(env),
            Kind::Global => self.global(env),
            Kind::Huge => self.huge(env),
        }
    }

    fn local(&mut self, env: &Env) -> Step {
        self.tick(env);
        let addr = LOCAL_BASE + ((self.core as u64) << 30) + self.next() % SLOTS * PAGE_SIZE;
        let byte = self.next_byte();
        if !self.map(env, addr, 1, "mmap") {
            return Step::work(0);
        }
        let r = self.touch(env, addr, byte);
        let wrote = self.check(r, "write").is_some();
        if wrote {
            self.verify(env, addr, byte);
        }
        self.unmap(env, addr, 1, "munmap");
        Step::work(wrote as u64)
    }

    fn pipeline(&mut self, env: &Env) -> Step {
        self.tick(env);
        let core = self.core;
        let handed = env.shared.queue(core).pop_front();
        if let Some((addr, byte)) = handed {
            return Step::work(self.consume(env, addr, byte));
        }
        // Only this core pushes to the next core's queue, so the room
        // seen here cannot shrink before the push.
        let next = (core + 1) % env.shared.ncores;
        if env.shared.queue(next).len() >= PIPE_CAP {
            // Downstream is backed up: a brief poll.
            sim::charge(200);
            std::hint::spin_loop();
            return Step {
                writes: 0,
                idle: true,
            };
        }
        self.produced += 1;
        let slot = (self.start + self.produced * self.stride) % SLOTS;
        let addr = PIPE_BASE + ((core as u64) << 30) + slot * PAGE_SIZE;
        let byte = self.next_byte();
        if !self.map(env, addr, 1, "mmap") {
            return Step::work(0);
        }
        let r = self.touch(env, addr, byte);
        if self.check(r, "write").is_none() {
            self.unmap(env, addr, 1, "munmap");
            return Step::work(0);
        }
        env.shared.queue(next).push_back((addr, byte));
        Step::work(1)
    }

    /// Checks the producer's byte, writes the page and unmaps it.
    fn consume(&mut self, env: &Env, addr: Vaddr, byte: u8) -> u64 {
        self.verify(env, addr, byte);
        let mine = self.next_byte();
        let r = self.touch(env, addr, mine);
        let wrote = self.check(r, "write").is_some();
        self.unmap(env, addr, 1, "munmap");
        wrote as u64
    }

    fn global(&mut self, env: &Env) -> Step {
        self.tick(env);
        let core = self.core;
        let sh = &env.shared;
        if self.i.is_multiple_of(sh.remap_every) {
            // Remap the own slice: munmap (a broadcast-sized shootdown
            // to every core that wrote it) and a fresh demand-zero map.
            let slice = self.slice_base(core);
            sh.slice_seq[core].fetch_add(1, Ordering::AcqRel);
            self.unmap(env, slice, SLICE_PAGES, "munmap slice");
            let first = core * SLICE_PAGES as usize;
            for b in &sh.last_byte[first..first + SLICE_PAGES as usize] {
                b.store(0, Ordering::Relaxed);
            }
            self.map(env, slice, SLICE_PAGES, "mmap slice");
            sh.slice_seq[core].fetch_add(1, Ordering::AcqRel);
            return Step::work(0);
        }
        let page = self.next() % (sh.ncores as u64 * SLICE_PAGES);
        let owner = (page / SLICE_PAGES) as usize;
        let byte = self.next_byte();
        let seq = sh.slice_seq[owner].load(Ordering::Acquire);
        let r = self.touch(env, GLOBAL_BASE + page * PAGE_SIZE, byte);
        match r {
            Ok(()) => {
                sh.last_byte[page as usize].store(byte, Ordering::Relaxed);
                self.tally.attempted += 1;
                Step::work(1)
            }
            Err(VmError::NoMapping)
                if seq % 2 == 1 || sh.slice_seq[owner].load(Ordering::Acquire) != seq =>
            {
                // The owner remapped the slice under this access.
                self.tally.attempted += 1;
                self.tally.raced += 1;
                Step::work(0)
            }
            Err(e) => {
                self.check::<()>(Err(e), "write");
                Step::work(0)
            }
        }
    }

    fn huge(&mut self, env: &Env) -> Step {
        self.tick(env);
        let core = self.core;
        let chunks = BLOCK_PAGES / HUGE_CHUNK;
        let phase = self.phase;
        self.phase = (self.phase + 1) % HUGE_STEPS;
        let bytes = BLOCK_PAGES * PAGE_SIZE;
        match phase {
            0 => {
                let region = HUGE_BASE + ((core as u64) << 32);
                self.slot = region + self.next() % HUGE_SLOTS * bytes;
                self.bytes = [self.next_byte(), self.next_byte()];
                let r = env.vm.mmap_flags(
                    core,
                    self.slot,
                    bytes,
                    Prot::RW,
                    Backing::Anon,
                    MapFlags::HUGE,
                );
                self.check(r, "mmap huge");
                Step::work(0)
            }
            p if p <= chunks => Step::work(self.write_chunk(env, p - 1, self.bytes[0])),
            p if p == chunks + 1 => {
                let len = HUGE_PROTECT_PAGES * PAGE_SIZE;
                let r = env.vm.mprotect(core, self.slot, len, Prot::READ);
                self.check(r, "mprotect revoke");
                let r = env.vm.mprotect(core, self.slot, len, Prot::RW);
                self.check(r, "mprotect restore");
                Step::work(0)
            }
            p if p <= 2 * chunks + 1 => {
                Step::work(self.write_chunk(env, p - chunks - 2, self.bytes[1]))
            }
            _ => {
                for page in 0..BLOCK_PAGES {
                    self.verify(env, self.slot + page * PAGE_SIZE, self.bytes[1]);
                }
                self.unmap(env, self.slot, BLOCK_PAGES, "munmap huge");
                self.tally.cycles += 1;
                Step::work(0)
            }
        }
    }

    fn write_chunk(&mut self, env: &Env, chunk: u64, byte: u8) -> u64 {
        let mut wrote = 0;
        for p in chunk * HUGE_CHUNK..(chunk + 1) * HUGE_CHUNK {
            let r = self.touch(env, self.slot + p * PAGE_SIZE, byte);
            wrote += self.check(r, "write").is_some() as u64;
        }
        wrote
    }

    /// Finishes what this core has in flight and unmaps what it keeps,
    /// after every core has stopped: the rest of a `huge` cycle, the
    /// pages queued to this core, the `global` slice (whose contents are
    /// checked first when writes were ordered).
    pub fn drain(&mut self, env: &Env) {
        match env.shared.kind {
            Kind::Local => {}
            Kind::Pipeline => loop {
                let handed = env.shared.queue(self.core).pop_front();
                match handed {
                    Some((addr, byte)) => {
                        self.consume(env, addr, byte);
                    }
                    None => break,
                }
            },
            Kind::Global => {
                let slice = self.slice_base(self.core);
                if env.ordered {
                    for p in 0..SLICE_PAGES {
                        let page = self.core as u64 * SLICE_PAGES + p;
                        let byte = env.shared.last_byte[page as usize].load(Ordering::Relaxed);
                        self.verify(env, slice + p * PAGE_SIZE, byte);
                    }
                }
                self.unmap(env, slice, SLICE_PAGES, "munmap slice");
            }
            Kind::Huge => {
                while self.phase != 0 {
                    self.huge(env);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_slots_visit_all_before_reuse() {
        let shared_env_free = |seed: u64| {
            let rng = splitmix(splitmix(seed ^ splitmix(1)));
            let (start, stride) = (rng % SLOTS, (rng >> 8) % (SLOTS / 2) * 2 + 1);
            let mut seen: Vec<u64> = (1..=SLOTS).map(|p| (start + p * stride) % SLOTS).collect();
            seen.sort_unstable();
            seen.dedup();
            seen.len() as u64
        };
        for seed in 0..50 {
            assert_eq!(shared_env_free(seed), SLOTS);
        }
    }

    #[test]
    fn names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("metis"), None);
        assert_eq!(HUGE_STEPS, 2 + 2 * BLOCK_PAGES / HUGE_CHUNK + 1);
    }
}
