//! Best-effort HTM: the ATMTP model of Sun Rock (§4.1).
//!
//! Versioning is a **write buffer**: transactional stores are buffered
//! (one word per entry, at most `store_buffer_entries` of them) and
//! drained to memory atomically at commit. Read sets are bounded by the
//! L1: when a line in the transaction's read set is evicted from the
//! executing core's L1 (size/associativity pressure), the transaction
//! takes a *capacity* abort — exactly ATMTP's rule. Conflict resolution
//! is **requester wins**: whichever core touches a line second kills the
//! other transaction's claim, the policy the paper blames for NZTM's gap
//! to LogTM-SE under contention (§4.4.1). Environmental aborts (TLB
//! miss, interrupt, context switch) are modelled as deterministic
//! pseudo-random "spurious" aborts with a configurable rate.
//!
//! Conflicts with *software* memory traffic arrive through the machine's
//! coherence snoop: any write by another core to a tracked line — or any
//! access to a buffered-store line — dooms the transaction.

use crate::cps::CpsReason;
use nztm_core::util::PerCore;
use nztm_sim::{AccessKind, DetRng, Machine, Platform, SimPlatform};
use nztm_sim::sync::Mutex;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    /// Set while this thread executes an HTM-internal memory charge, so
    /// the snoop skips self-traffic (the HTM resolves its own conflicts
    /// in `track`).
    static IN_HTM_OP: Cell<bool> = const { Cell::new(false) };
}

/// Sentinel error unwinding a doomed hardware transaction out of user
/// code (the reason lives in the CPS flag). Produced by the tracked
/// [`HwTxn`] operations when the attempt is doomed and by
/// [`HwTxn::explicit_abort`]; consumed by [`BestEffortHtm::attempt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwAbort;

/// ATMTP configuration (§4.1 defaults).
#[derive(Clone, Debug)]
pub struct AtmtpConfig {
    /// Write-buffer capacity; "the size of the ATMTP write buffer \[is\]
    /// 256 entries; each entry represents a single store and is
    /// typically one word".
    pub store_buffer_entries: usize,
    /// Per-access probability (numerator/denominator) of an
    /// environmental abort (TLB miss / interrupt / context switch).
    pub spurious_num: u64,
    pub spurious_den: u64,
    /// Seed for the deterministic spurious-abort draws.
    pub seed: u64,
}

impl Default for AtmtpConfig {
    fn default() -> Self {
        AtmtpConfig { store_buffer_entries: 256, spurious_num: 1, spurious_den: 20_000, seed: 0xA7A7 }
    }
}

/// Which transactions currently claim a line.
#[derive(Default)]
struct LineUse {
    readers: u64, // core bitmask
    writers: u64, // core bitmask (buffered stores)
}

struct CoreTxn {
    active: bool,
    read_lines: HashSet<u64>,
    write_lines: HashSet<u64>,
    /// Buffered stores in program order: (host word ptr, synth addr, value).
    wbuf: Vec<(usize, usize, u64)>,
    /// host word ptr -> index in `wbuf` (own-read forwarding).
    wmap: HashMap<usize, usize>,
    rng: DetRng,
}

impl CoreTxn {
    fn new(tid: usize, seed: u64) -> Self {
        CoreTxn {
            active: false,
            read_lines: HashSet::new(),
            write_lines: HashSet::new(),
            wbuf: Vec::new(),
            wmap: HashMap::new(),
            rng: DetRng::new(seed).split(tid as u64),
        }
    }
}

/// The best-effort HTM device. One per machine; register its snoop with
/// [`BestEffortHtm::install`].
pub struct BestEffortHtm {
    platform: Arc<SimPlatform>,
    cfg: AtmtpConfig,
    /// Line claim table (shared; guards `readers`/`writers` masks only).
    table: Mutex<HashMap<u64, LineUse>>,
    /// Per-core doom flags (CPS encoding; 0 = healthy). Written by any
    /// core (requester wins, snoop), read by the owner.
    doomed: Vec<AtomicU64>,
    /// Per-core transaction state (owner thread only).
    cores: PerCore<CoreTxn>,
}

impl BestEffortHtm {
    pub fn new(platform: Arc<SimPlatform>, cfg: AtmtpConfig) -> Arc<Self> {
        let n = platform.n_cores();
        let seed = cfg.seed;
        Arc::new(BestEffortHtm {
            platform,
            cfg,
            table: Mutex::new(HashMap::new()),
            doomed: (0..n).map(|_| AtomicU64::new(0)).collect(),
            cores: PerCore::new(n, |tid| CoreTxn::new(tid, seed)),
        })
    }

    /// Register this HTM's conflict snoop with the machine. Call once
    /// after construction (and pair with [`BestEffortHtm::uninstall`]
    /// when tearing down, since the machine holds the closure).
    pub fn install(self: &Arc<Self>) {
        let htm = Arc::downgrade(self);
        self.machine().set_snoop(Some(Arc::new(move |core, line, is_write| {
            if IN_HTM_OP.with(|c| c.get()) {
                return;
            }
            if let Some(htm) = htm.upgrade() {
                htm.snoop(core, line, is_write);
            }
        })));
    }

    pub fn uninstall(&self) {
        self.machine().set_snoop(None);
    }

    pub fn machine(&self) -> &Arc<Machine> {
        self.platform.machine()
    }

    pub fn platform(&self) -> &Arc<SimPlatform> {
        &self.platform
    }

    /// Software traffic observed on the coherence fabric: doom hardware
    /// transactions per the requester-wins rule.
    fn snoop(&self, core: usize, line: u64, is_write: bool) {
        let table = self.table.lock();
        let Some(u) = table.get(&line) else { return };
        let me = 1u64 << core;
        // A software *write* kills every transactional claim on the
        // line; a software *read* kills buffered writers (their commit
        // would retroactively invalidate the read).
        let victims = if is_write { u.readers | u.writers } else { u.writers };
        let victims = victims & !me;
        drop(table);
        for v in BitIter(victims) {
            self.doom(v, CpsReason::Conflict);
        }
    }

    fn doom(&self, core: usize, reason: CpsReason) {
        let _ = self.doomed[core].compare_exchange(
            0,
            reason.encode(),
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    fn my_doom(&self, core: usize) -> Option<CpsReason> {
        CpsReason::decode(self.doomed[core].load(Ordering::SeqCst))
    }

    /// Run `f` as one hardware transaction attempt.
    ///
    /// `Ok(v)` ⇒ committed (buffered stores drained atomically).
    /// `Err(reason)` ⇒ aborted; reason from the CPS model.
    pub fn attempt<R>(
        &self,
        f: impl FnOnce(&mut HwTxn) -> Result<R, HwAbort>,
    ) -> Result<R, CpsReason> {
        let core = self.platform.core_id();
        // Safety: `core` is this thread's own slot.
        let st = unsafe { self.cores.get(core) };
        assert!(!st.active, "hardware transactions do not nest");
        st.active = true;
        st.read_lines.clear();
        st.write_lines.clear();
        st.wbuf.clear();
        st.wmap.clear();
        self.doomed[core].store(0, Ordering::SeqCst);
        self.platform.work(self.machine().config().costs.htm_begin);

        let mut tx = HwTxn { htm: self as *const BestEffortHtm, core, st: st as *mut CoreTxn };
        let result = f(&mut tx);

        match result {
            Ok(v) => match self.commit(core) {
                Ok(()) => Ok(v),
                Err(reason) => Err(reason),
            },
            Err(HwAbort) => {
                let reason = self.my_doom(core).unwrap_or(CpsReason::Explicit);
                self.rollback(core);
                Err(reason)
            }
        }
    }

    fn commit(&self, core: usize) -> Result<(), CpsReason> {
        let st = unsafe { self.cores.get(core) };
        let costs = self.machine().config().costs.clone();
        // Decide-then-drain without yielding: the check and the drain
        // form one atomic step with respect to other simulated cores.
        if let Some(reason) = self.my_doom(core) {
            self.rollback(core);
            return Err(reason);
        }
        self.platform.work(costs.htm_commit);
        IN_HTM_OP.with(|c| c.set(true));
        for &(word_ptr, addr, value) in &st.wbuf {
            // Safety: tracked words belong to objects the caller keeps
            // alive for the duration of the attempt (pool/Arc-owned).
            unsafe { (*(word_ptr as *const AtomicU64)).store(value, Ordering::SeqCst) };
            self.platform.mem_atomic(addr, 8, AccessKind::Write);
            self.platform.work(costs.htm_commit_per_store);
        }
        IN_HTM_OP.with(|c| c.set(false));
        self.release(core);
        st.active = false;
        Ok(())
    }

    fn rollback(&self, core: usize) {
        let st = unsafe { self.cores.get(core) };
        self.platform.work(self.machine().config().costs.htm_abort);
        self.release(core);
        st.active = false;
    }

    fn release(&self, core: usize) {
        let st = unsafe { self.cores.get(core) };
        let mut table = self.table.lock();
        let me = 1u64 << core;
        for line in st.read_lines.iter().chain(&st.write_lines) {
            if let Some(u) = table.get_mut(line) {
                u.readers &= !me;
                u.writers &= !me;
                if u.readers == 0 && u.writers == 0 {
                    table.remove(line);
                }
            }
        }
    }
}

/// Handle used by code running inside a hardware transaction.
///
/// Holds raw pointers so it carries no lifetime parameter (the hybrid
/// wraps it in an enum). Only constructed by [`BestEffortHtm::attempt`],
/// only valid for the attempt closure's duration, and `!Send` — it never
/// leaves the owning core's thread.
pub struct HwTxn {
    htm: *const BestEffortHtm,
    core: usize,
    st: *mut CoreTxn,
}

impl HwTxn {
    fn htm(&self) -> &BestEffortHtm {
        // Safety: `attempt` keeps the device alive across the closure.
        unsafe { &*self.htm }
    }

    #[allow(clippy::mut_from_ref)]
    fn st(&self) -> &mut CoreTxn {
        // Safety: this core's slot, only touched from this thread.
        unsafe { &mut *self.st }
    }

    fn check(&self) -> Result<(), HwAbort> {
        if self.htm().my_doom(self.core).is_some() {
            Err(HwAbort)
        } else {
            Ok(())
        }
    }

    fn spurious(&mut self) -> Result<(), HwAbort> {
        let htm = self.htm();
        if htm.cfg.spurious_num > 0
            && self.st().rng.chance(htm.cfg.spurious_num, htm.cfg.spurious_den)
        {
            htm.doom(self.core, CpsReason::Other);
            return Err(HwAbort);
        }
        Ok(())
    }

    /// Charge + track a transactional read of `bytes` at `addr`.
    pub fn track_read(&mut self, addr: usize, bytes: usize) -> Result<(), HwAbort> {
        self.access(addr, bytes, false)
    }

    /// Charge + track a transactional write *claim* of `bytes` at `addr`
    /// (data still goes through [`HwTxn::buffered_store`]).
    pub fn track_write(&mut self, addr: usize, bytes: usize) -> Result<(), HwAbort> {
        self.access(addr, bytes, true)
    }

    fn access(&mut self, addr: usize, bytes: usize, is_write: bool) -> Result<(), HwAbort> {
        self.check()?;
        self.spurious()?;
        let me = 1u64 << self.core;
        let machine = Arc::clone(self.htm().machine());
        let first = addr >> 6;
        let last = (addr + bytes.max(1) - 1) >> 6;
        for l in first..=last {
            let host_line_addr = l << 6;
            // Charge through the cache (snoop skipped: self-traffic).
            IN_HTM_OP.with(|c| c.set(true));
            let res = machine.mem_access(
                host_line_addr,
                if is_write { AccessKind::Write } else { AccessKind::Read },
            );
            IN_HTM_OP.with(|c| c.set(false));
            let line = res.line.0;

            // ATMTP read-set capacity: a tracked line evicted from our
            // own L1 ends the transaction.
            if let Some(ev) = res.evicted {
                if self.st().read_lines.contains(&ev.0) || self.st().write_lines.contains(&ev.0)
                {
                    self.htm().doom(self.core, CpsReason::Capacity);
                    return Err(HwAbort);
                }
            }

            // Requester wins: claim the line, dooming whoever holds it.
            let mut table = self.htm().table.lock();
            let u = table.entry(line).or_default();
            let others = if is_write { u.readers | u.writers } else { u.writers } & !me;
            if is_write {
                u.writers |= me;
                self.st().write_lines.insert(line);
            } else {
                u.readers |= me;
                self.st().read_lines.insert(line);
            }
            drop(table);
            for v in BitIter(others) {
                self.htm().doom(v, CpsReason::Conflict);
            }
            // We might ourselves have been doomed while charging.
            self.check()?;
        }
        Ok(())
    }

    /// Read one word transactionally, forwarding from the write buffer
    /// when we already stored to it.
    pub fn read_word(&mut self, word: &AtomicU64, addr: usize) -> Result<u64, HwAbort> {
        self.track_read(addr, 8)?;
        if let Some(&i) = self.st().wmap.get(&(word as *const AtomicU64 as usize)) {
            return Ok(self.st().wbuf[i].2);
        }
        Ok(word.load(Ordering::SeqCst))
    }

    /// Buffer one word store (drained at commit). Fails with a capacity
    /// abort when the store buffer is full.
    pub fn buffered_store(
        &mut self,
        word: &AtomicU64,
        addr: usize,
        value: u64,
    ) -> Result<(), HwAbort> {
        self.track_write(addr, 8)?;
        let key = word as *const AtomicU64 as usize;
        let cap = self.htm().cfg.store_buffer_entries;
        let st = self.st();
        if let Some(&i) = st.wmap.get(&key) {
            st.wbuf[i].2 = value;
            return Ok(());
        }
        if st.wbuf.len() >= cap {
            self.htm().doom(self.core, CpsReason::Capacity);
            return Err(HwAbort);
        }
        let st = self.st();
        st.wbuf.push((key, addr, value));
        st.wmap.insert(key, st.wbuf.len() - 1);
        Ok(())
    }

    /// Abort this transaction explicitly (§2.4: on detecting a conflict
    /// with a software transaction).
    pub fn explicit_abort(&mut self) -> HwAbort {
        self.htm().doom(self.core, CpsReason::Explicit);
        HwAbort
    }

    /// Number of buffered stores so far.
    pub fn stores(&self) -> usize {
        self.st().wbuf.len()
    }
}

/// Iterate set bits.
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let i = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(i)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nztm_sim::{CacheConfig, CostModel, MachineConfig};

    fn setup(cores: usize) -> (Arc<Machine>, Arc<SimPlatform>, Arc<BestEffortHtm>) {
        let m = Machine::new(MachineConfig {
            n_cores: cores,
            hw_cores: 0,
            costs: CostModel::default(),
            l1: CacheConfig::tiny(64, 2),
            l2: CacheConfig::tiny(4096, 8),
            max_cycles: 1_000_000_000,
        });
        let p = SimPlatform::new(Arc::clone(&m));
        let htm = BestEffortHtm::new(
            Arc::clone(&p),
            AtmtpConfig { spurious_num: 0, ..AtmtpConfig::default() },
        );
        htm.install();
        (m, p, htm)
    }

    fn word() -> (Arc<AtomicU64>, usize) {
        (Arc::new(AtomicU64::new(0)), nztm_sim::synth_alloc(64))
    }

    #[test]
    fn commit_publishes_buffered_stores() {
        let (m, _p, htm) = setup(1);
        let (w, a) = word();
        let (w2, h) = (Arc::clone(&w), Arc::clone(&htm));
        m.run(vec![Box::new(move || {
            let r = h.attempt(|tx| {
                tx.buffered_store(&w2, a, 42)?;
                // Invisible before commit.
                assert_eq!(w2.load(Ordering::SeqCst), 0);
                // But forwarded to our own reads.
                assert_eq!(tx.read_word(&w2, a)?, 42);
                Ok(())
            });
            assert!(r.is_ok());
            assert_eq!(w2.load(Ordering::SeqCst), 42);
        })]);
        htm.uninstall();
    }

    #[test]
    fn aborted_txn_publishes_nothing() {
        let (m, _p, htm) = setup(1);
        let (w, a) = word();
        let (w2, h) = (Arc::clone(&w), Arc::clone(&htm));
        m.run(vec![Box::new(move || {
            let r: Result<(), CpsReason> = h.attempt(|tx| {
                tx.buffered_store(&w2, a, 42)?;
                Err(tx.explicit_abort())
            });
            assert_eq!(r, Err(CpsReason::Explicit));
            assert_eq!(w2.load(Ordering::SeqCst), 0);
        })]);
        htm.uninstall();
    }

    #[test]
    fn store_buffer_overflow_is_capacity() {
        let (m, p, _) = setup(1);
        let htm = BestEffortHtm::new(
            Arc::clone(&p),
            AtmtpConfig { store_buffer_entries: 4, spurious_num: 0, ..AtmtpConfig::default() },
        );
        htm.install();
        let words: Vec<(Arc<AtomicU64>, usize)> = (0..8).map(|_| word()).collect();
        let h = Arc::clone(&htm);
        m.run(vec![Box::new(move || {
            let r: Result<(), CpsReason> = h.attempt(|tx| {
                for (w, a) in &words {
                    tx.buffered_store(w, *a, 1)?;
                }
                Ok(())
            });
            assert_eq!(r, Err(CpsReason::Capacity));
        })]);
        htm.uninstall();
    }

    #[test]
    fn software_write_dooms_reader() {
        let (m, p, htm) = setup(2);
        let (w, a) = word();
        let flag = Arc::new(AtomicU64::new(0));
        let (w1, h1, f1, p1) = (Arc::clone(&w), Arc::clone(&htm), Arc::clone(&flag), Arc::clone(&p));
        let (f2, p2) = (Arc::clone(&flag), Arc::clone(&p));
        let r_holder = Arc::new(Mutex::new(None));
        let rh = Arc::clone(&r_holder);
        m.run(vec![
            Box::new(move || {
                let r: Result<(), CpsReason> = h1.attempt(|tx| {
                    tx.read_word(&w1, a)?;
                    // Signal the peer, then wait for its software write.
                    f1.store(1, Ordering::SeqCst);
                    while f1.load(Ordering::SeqCst) == 1 {
                        p1.work(5);
                        p1.yield_now();
                    }
                    tx.read_word(&w1, a)?;
                    Ok(())
                });
                *rh.lock() = Some(r);
            }),
            Box::new(move || {
                while f2.load(Ordering::SeqCst) == 0 {
                    p2.work(5);
                    p2.yield_now();
                }
                // Ordinary software write to the tracked line.
                p2.mem(a, 8, AccessKind::Write);
                f2.store(2, Ordering::SeqCst);
            }),
        ]);
        assert_eq!(*r_holder.lock(), Some(Err(CpsReason::Conflict)));
        htm.uninstall();
    }

    #[test]
    fn requester_wins_between_hw_txns() {
        let (m, p, htm) = setup(2);
        let (w, a) = word();
        let stage = Arc::new(AtomicU64::new(0));
        let results = Arc::new(Mutex::new(vec![None, None]));
        let mk = |tid: usize| {
            let htm = Arc::clone(&htm);
            let w = Arc::clone(&w);
            let stage = Arc::clone(&stage);
            let p = Arc::clone(&p);
            let results = Arc::clone(&results);
            Box::new(move || {
                let r: Result<(), CpsReason> = htm.attempt(|tx| {
                    if tid == 0 {
                        // Claim the line first, then wait for the peer.
                        tx.buffered_store(&w, a, 7)?;
                        stage.store(1, Ordering::SeqCst);
                        while stage.load(Ordering::SeqCst) == 1 {
                            p.work(5);
                            p.yield_now();
                            // Keep validating so we notice the doom.
                            tx.read_word(&w, a)?;
                        }
                    } else {
                        while stage.load(Ordering::SeqCst) == 0 {
                            p.work(5);
                            p.yield_now();
                        }
                        // Requester: touch the claimed line; we win.
                        tx.read_word(&w, a)?;
                        stage.store(2, Ordering::SeqCst);
                    }
                    Ok(())
                });
                results.lock()[tid] = Some(r);
            }) as Box<dyn FnOnce() + Send>
        };
        m.run(vec![mk(0), mk(1)]);
        let res = results.lock();
        assert_eq!(res[1], Some(Ok(())), "requester wins");
        assert_eq!(res[0], Some(Err(CpsReason::Conflict)), "holder is doomed");
        htm.uninstall();
    }

    #[test]
    fn read_set_eviction_is_capacity_abort() {
        // L1 = 64 lines: a read set of 100 distinct lines cannot fit, so
        // some tracked line must be evicted — ATMTP's capacity rule
        // ("read sets limited by the size and associativity of the L1").
        let (m, _p, htm) = setup(1);
        let h = Arc::clone(&htm);
        m.run(vec![Box::new(move || {
            let lines: Vec<usize> = (0..100).map(|_| nztm_sim::synth_alloc(64)).collect();
            let r: Result<(), CpsReason> = h.attempt(|tx| {
                for a in &lines {
                    tx.track_read(*a, 8)?;
                }
                Ok(())
            });
            assert_eq!(r, Err(CpsReason::Capacity));
        })]);
        htm.uninstall();
    }

    #[test]
    fn spurious_aborts_fire_at_configured_rate() {
        let (m, p, _) = setup(1);
        let htm = BestEffortHtm::new(
            Arc::clone(&p),
            AtmtpConfig { spurious_num: 1, spurious_den: 10, ..AtmtpConfig::default() },
        );
        htm.install();
        let h = Arc::clone(&htm);
        let aborts = Arc::new(AtomicU64::new(0));
        let ab = Arc::clone(&aborts);
        let (w, a) = word();
        m.run(vec![Box::new(move || {
            for _ in 0..200 {
                let r: Result<(), CpsReason> = h.attempt(|tx| {
                    tx.read_word(&w, a)?;
                    Ok(())
                });
                if r == Err(CpsReason::Other) {
                    ab.fetch_add(1, Ordering::Relaxed);
                }
            }
        })]);
        let n = aborts.load(Ordering::Relaxed);
        assert!(n > 2 && n < 80, "spurious abort count plausible: {n}");
        htm.uninstall();
    }
}
