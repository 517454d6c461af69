//! The tracing shim: a [`VmSystem`] that forwards every call to the
//! system under test and records a span around the calls that cross
//! into `rvm_core`.
//!
//! The machine calls `pagefault` on whatever `VmSystem` the access
//! names, so handing the shim to `Machine::touch_page` is enough to see
//! faults from outside the program. The shim itself touches no
//! instrumented memory: it costs 0 virtual ns, so virtual-time
//! latencies read through it are the program's own.

use std::sync::Arc;

use rvm_hw::{
    AccessKind, Asid, Backing, MapFlags, OpStats, Prot, SpaceUsage, Translation, Vaddr, VmResult,
    VmSystem,
};

use crate::trace::{SpanName, Tracer};

/// Forwards to `inner`, recording spans in `tracer`.
pub struct TracedVm {
    inner: Arc<dyn VmSystem>,
    tracer: Arc<Tracer>,
}

impl TracedVm {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn VmSystem>, tracer: Arc<Tracer>) -> TracedVm {
        TracedVm { inner, tracer }
    }
}

impl VmSystem for TracedVm {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn asid(&self) -> Asid {
        self.inner.asid()
    }

    fn attach_core(&self, core: usize) {
        self.inner.attach_core(core)
    }

    fn mmap(
        &self,
        core: usize,
        addr: Vaddr,
        len: u64,
        prot: Prot,
        backing: Backing,
    ) -> VmResult<Vaddr> {
        self.tracer.span(core, SpanName::Mmap, || {
            self.inner.mmap(core, addr, len, prot, backing)
        })
    }

    fn mmap_flags(
        &self,
        core: usize,
        addr: Vaddr,
        len: u64,
        prot: Prot,
        backing: Backing,
        flags: MapFlags,
    ) -> VmResult<Vaddr> {
        self.tracer.span(core, SpanName::Mmap, || {
            self.inner.mmap_flags(core, addr, len, prot, backing, flags)
        })
    }

    fn munmap(&self, core: usize, addr: Vaddr, len: u64) -> VmResult<()> {
        self.tracer.span(core, SpanName::Munmap, || {
            self.inner.munmap(core, addr, len)
        })
    }

    fn pagefault(&self, core: usize, va: Vaddr, kind: AccessKind) -> VmResult<Translation> {
        self.tracer.span(core, SpanName::Pagefault, || {
            self.inner.pagefault(core, va, kind)
        })
    }

    fn mprotect(&self, core: usize, addr: Vaddr, len: u64, prot: Prot) -> VmResult<()> {
        self.tracer.span(core, SpanName::Mprotect, || {
            self.inner.mprotect(core, addr, len, prot)
        })
    }

    fn maintain(&self, core: usize) {
        self.tracer
            .span(core, SpanName::Maintain, || self.inner.maintain(core))
    }

    fn fork(&self, core: usize) -> VmResult<Arc<dyn VmSystem>> {
        self.inner.fork(core)
    }

    fn op_stats(&self) -> OpStats {
        self.inner.op_stats()
    }

    fn quiesce(&self) {
        self.inner.quiesce()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn space_usage(&self) -> SpaceUsage {
        self.inner.space_usage()
    }
}
