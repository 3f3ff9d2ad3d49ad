//! The [`Platform`] abstraction: one STM source tree, two execution
//! substrates.
//!
//! All transactional-memory code in this workspace is generic over
//! `Platform`. The two implementations are:
//!
//! * [`Native`] — real threads, wall-clock time, every hook is (nearly)
//!   free. This is the "Rock machine" configuration used for Figure 4:
//!   the STM algorithms execute with genuine hardware concurrency.
//! * [`SimPlatform`] — the deterministic simulated multiprocessor
//!   ([`Machine`]): hooks charge cycles, memory
//!   accesses go through the cache model, and yields drive the cooperative
//!   scheduler. This is the "Simics/GEMS" configuration used for Figure 3.
//!
//! Calls are monomorphized, so on `Native` the cost hooks compile to
//! almost nothing — the STM's native performance is not distorted by the
//! abstraction.

use crate::cache::AccessKind;
use crate::sched::Machine;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Allocator for **synthetic addresses** used by the cache model.
///
/// Host heap addresses are unsuitable for a deterministic timing model:
/// they vary with ASLR and allocator state, and freed lines get recycled
/// at different times in different runs. Instead, every charged object
/// takes a unique, never-recycled synthetic line range at construction;
/// [`Machine`] then maps those lines densely in
/// first-access order, making cache behaviour a pure function of the
/// simulated execution.
static SYNTH_NEXT_LINE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(16);

/// Reserve `bytes` of synthetic address space (whole cache lines) and
/// return its base address. Never reused; cheap (one fetch_add).
pub fn synth_alloc(bytes: usize) -> usize {
    let lines = (bytes.max(1) as u64).div_ceil(crate::cache::LINE_BYTES);
    let base = SYNTH_NEXT_LINE.fetch_add(lines, Ordering::Relaxed);
    (base << crate::cache::LINE_SHIFT) as usize
}

/// Execution substrate abstraction. See module docs.
pub trait Platform: Send + Sync + 'static {
    /// Charge `cycles` of straight-line compute.
    fn work(&self, cycles: u64);

    /// Charge a data memory access at `addr` covering `bytes` bytes.
    fn mem(&self, addr: usize, bytes: usize, kind: AccessKind);

    /// Like [`Platform::mem`] but guaranteed not to yield to other
    /// simulated cores. Used for bulk data movement (backup copies,
    /// buffer writes) so the simulator interleaves at protocol events,
    /// not at every word.
    fn mem_nb(&self, addr: usize, bytes: usize, kind: AccessKind) {
        self.mem(addr, bytes, kind);
    }

    /// Cooperative yield point. Simulated: may switch cores. Native: a
    /// spin-loop hint.
    fn yield_now(&self);

    /// A bounded busy-wait step used inside waiting loops (charges a few
    /// cycles, then yields).
    fn spin_wait(&self) {
        self.work(8);
        self.yield_now();
    }

    /// Monotonic time in cycles (simulated) or nanoseconds (native). Only
    /// used for timeouts and statistics, never for correctness.
    fn now(&self) -> u64;

    /// Identifier of the calling core/thread, in `0..n_cores()`.
    fn core_id(&self) -> usize;

    /// Number of cores/threads participating in the run.
    fn n_cores(&self) -> usize;

    /// Execute `f` atomically with respect to other *simulated* cores and
    /// charge `extra_cycles` for it. This models a "short hardware
    /// transaction" (the SCSS primitive of §2.3.2).
    ///
    /// On the simulated platform atomicity is free: nothing interleaves
    /// between yields. On native platforms the *caller* must provide real
    /// atomicity (e.g. a striped seqlock) and only use this hook for cost
    /// accounting; the default implementation simply runs `f`.
    fn atomic_section<R>(&self, extra_cycles: u64, f: impl FnOnce() -> R) -> R
    where
        Self: Sized,
    {
        self.work(extra_cycles);
        f()
    }
}

// ---------------------------------------------------------------------------
// Native platform
// ---------------------------------------------------------------------------

thread_local! {
    static NATIVE_ID: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Real-machine platform: no cost model, wall-clock time.
pub struct Native {
    n_cores: usize,
    next_id: AtomicUsize,
    epoch: Instant,
}

impl Native {
    pub fn new(n_cores: usize) -> Arc<Self> {
        Arc::new(Native {
            n_cores,
            next_id: AtomicUsize::new(0),
            epoch: Instant::now(),
        })
    }

    /// Register the calling thread as a core. Each participating thread
    /// must call this exactly once before using the platform.
    pub fn register_thread(&self) -> usize {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        assert!(id < self.n_cores, "more threads registered than cores");
        NATIVE_ID.with(|c| c.set(id));
        id
    }

    /// Assign a specific core id to the calling thread (used when a thread
    /// pool re-runs workloads).
    pub fn register_thread_as(&self, id: usize) {
        assert!(id < self.n_cores);
        NATIVE_ID.with(|c| c.set(id));
    }
}

impl Platform for Native {
    #[inline]
    fn work(&self, _cycles: u64) {}

    #[inline]
    fn mem(&self, _addr: usize, _bytes: usize, _kind: AccessKind) {}

    #[inline]
    fn yield_now(&self) {
        std::hint::spin_loop();
    }

    #[inline]
    fn spin_wait(&self) {
        std::thread::yield_now();
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn core_id(&self) -> usize {
        let id = NATIVE_ID.with(|c| c.get());
        assert!(id != usize::MAX, "thread not registered with Native platform");
        id
    }

    fn n_cores(&self) -> usize {
        self.n_cores
    }
}

// ---------------------------------------------------------------------------
// Simulated platform
// ---------------------------------------------------------------------------

/// Simulated-machine platform; a thin façade over [`Machine`].
pub struct SimPlatform {
    machine: Arc<Machine>,
}

impl SimPlatform {
    pub fn new(machine: Arc<Machine>) -> Arc<Self> {
        Arc::new(SimPlatform { machine })
    }

    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Charge an access per cache line covered by `[addr, addr+bytes)`,
    /// without yielding (for use inside atomic sections).
    pub fn mem_atomic(&self, addr: usize, bytes: usize, kind: AccessKind) {
        for line_addr in line_span(addr, bytes) {
            self.machine.mem_access_atomic(line_addr, kind);
        }
    }
}

/// Iterate one representative byte address per line covered.
fn line_span(addr: usize, bytes: usize) -> impl Iterator<Item = usize> {
    let first = addr >> crate::cache::LINE_SHIFT;
    let last = (addr + bytes.max(1) - 1) >> crate::cache::LINE_SHIFT;
    (first..=last).map(|l| l << crate::cache::LINE_SHIFT)
}

impl Platform for SimPlatform {
    fn work(&self, cycles: u64) {
        self.machine.work(cycles);
    }

    fn mem(&self, addr: usize, bytes: usize, kind: AccessKind) {
        for line_addr in line_span(addr, bytes) {
            self.machine.mem_access(line_addr, kind);
        }
    }

    fn mem_nb(&self, addr: usize, bytes: usize, kind: AccessKind) {
        for line_addr in line_span(addr, bytes) {
            self.machine.mem_access_atomic(line_addr, kind);
        }
    }

    fn yield_now(&self) {
        self.machine.yield_now();
    }

    fn now(&self) -> u64 {
        self.machine.now()
    }

    fn core_id(&self) -> usize {
        self.machine.core_id()
    }

    fn n_cores(&self) -> usize {
        self.machine.config().n_cores
    }

    fn atomic_section<R>(&self, extra_cycles: u64, f: impl FnOnce() -> R) -> R {
        // Publish pending time first so the atomic section is ordered at
        // this core's current logical time, then run without yielding.
        self.machine.yield_now();
        self.machine.work(extra_cycles);
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::costs::CostModel;
    use crate::sched::MachineConfig;

    #[test]
    fn line_span_single_word() {
        let v: Vec<usize> = line_span(0x40, 8).collect();
        assert_eq!(v, vec![0x40]);
    }

    #[test]
    fn line_span_straddles_lines() {
        let v: Vec<usize> = line_span(0x7c, 8).collect();
        assert_eq!(v, vec![0x40, 0x80]);
    }

    #[test]
    fn line_span_zero_bytes_touches_one_line() {
        let v: Vec<usize> = line_span(0x100, 0).collect();
        assert_eq!(v, vec![0x100]);
    }

    #[test]
    fn native_registration_assigns_sequential_ids() {
        let p = Native::new(2);
        let p2 = Arc::clone(&p);
        let h = std::thread::spawn(move || p2.register_thread());
        let other = h.join().unwrap();
        let mine = p.register_thread();
        assert_ne!(mine, other);
        assert_eq!(p.core_id(), mine);
        assert_eq!(p.n_cores(), 2);
    }

    #[test]
    fn native_now_is_monotonic() {
        let p = Native::new(1);
        let a = p.now();
        let b = p.now();
        assert!(b >= a);
    }

    #[test]
    fn sim_platform_charges_through_cache() {
        let m = Machine::new(MachineConfig {
            n_cores: 1,
            hw_cores: 0,
            costs: CostModel::default(),
            l1: CacheConfig::tiny(64, 4),
            l2: CacheConfig::tiny(1024, 8),
            max_cycles: u64::MAX,
        });
        let p = SimPlatform::new(Arc::clone(&m));
        let pc = Arc::clone(&p);
        let r = m.run(vec![Box::new(move || {
            pc.mem(0x1000, 8, AccessKind::Read);
            pc.mem(0x1000, 8, AccessKind::Read);
        })]);
        // First access: memory (200); second: L1 hit (1).
        assert_eq!(r.clocks[0], 201);
    }

    #[test]
    fn sim_atomic_section_runs_and_charges() {
        let m = Machine::new(MachineConfig {
            n_cores: 1,
            hw_cores: 0,
            costs: CostModel::uniform(),
            l1: CacheConfig::tiny(64, 4),
            l2: CacheConfig::tiny(1024, 8),
            max_cycles: u64::MAX,
        });
        let p = SimPlatform::new(Arc::clone(&m));
        let pc = Arc::clone(&p);
        let r = m.run(vec![Box::new(move || {
            let v = pc.atomic_section(25, || 7);
            assert_eq!(v, 7);
        })]);
        assert_eq!(r.clocks[0], 25);
    }
}
