//! LogTM-SE: unbounded eager HTM with perfect filters (§4.1/§4.3).
//!
//! * **Eager versioning**: transactional stores go straight to memory;
//!   the old value is appended to a per-transaction undo log, unrolled
//!   by a *software abort handler* on abort ("LogTM-SE transactions do
//!   not impose software overheads unless they abort, in which case a
//!   software abort handler is invoked").
//! * **Perfect filters**: conflict detection uses exact line sets — the
//!   paper's own upper-bound configuration ("perfect filters, which are
//!   not implementable in hardware ... represent an upper bound of how
//!   well LogTM-SE can perform").
//! * **Requester stalls**: on conflict the requester waits for the
//!   holder; deadlock is avoided by the LogTM rule — a transaction
//!   aborts only when it both could be part of a cycle (it is stalled
//!   and something stalls on it) and is the younger party. Timestamps
//!   are sticky across retries, so the oldest transaction always wins
//!   eventually (no starvation).
//!
//! Unlike the best-effort HTM, nothing here is bounded: no capacity
//! aborts, no environmental aborts — the paper's idealized comparator.

use nztm_core::data::{snapshot_words, write_words, TmData, WordArray};
use nztm_core::stats::{ThreadStats, TmStats};
use nztm_core::txn::Abort;
use nztm_core::util::PerCore;
use nztm_core::TmSys;
use nztm_sim::{AccessKind, DetRng, Machine, Platform, SimPlatform};
use nztm_sim::sync::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A transactional object under LogTM: plain data, **no TM metadata at
/// all** — conflict detection lives entirely in the (perfect) signatures.
pub struct LogObject<T: TmData> {
    data: T::Words,
    synth: usize,
}

impl<T: TmData> LogObject<T> {
    fn new(init: T) -> Arc<Self> {
        let obj: LogObject<T> = LogObject {
            data: T::Words::new_zeroed(),
            synth: nztm_sim::synth_alloc(T::n_words() * 8),
        };
        let mut scratch = vec![0u64; T::n_words()];
        init.encode(&mut scratch);
        write_words(obj.data.words(), &scratch);
        Arc::new(obj)
    }

    pub fn read_untracked(&self) -> T {
        let mut scratch = vec![0u64; T::n_words()];
        snapshot_words(self.data.words(), &mut scratch);
        T::decode(&scratch)
    }
}

struct CoreTxn {
    active: bool,
    /// Lines this transaction holds, with the access level (line, write).
    lines: HashSet<(u64, bool)>,
    /// Undo log: (host word ptr, synth addr, old value), program order.
    undo: Vec<(usize, usize, u64)>,
    rng: DetRng,
    backoff: nztm_core::util::Backoff,
    scratch: Vec<u64>,
}

impl CoreTxn {
    fn new(tid: usize) -> Self {
        CoreTxn {
            active: false,
            lines: HashSet::new(),
            undo: Vec::new(),
            rng: DetRng::new(0x106_0000 + tid as u64),
            backoff: nztm_core::util::Backoff::new(),
            scratch: Vec::new(),
        }
    }
}

/// Shared, cross-core view of each core's transaction (for the
/// stall/deadlock protocol).
struct CoreShared {
    /// Timestamp of the active transaction (0 = inactive).
    ts: AtomicU64,
    /// Raised while the core is stalled on a conflict.
    stalling: AtomicU64,
    /// Doom flag: another core decided we must abort (cycle avoidance).
    doomed: AtomicU64,
}

/// Per-core read/write line sets (perfect filters), shared for
/// cross-core checking.
#[derive(Default)]
struct SigPair {
    read: HashSet<u64>,
    write: HashSet<u64>,
}

/// The LogTM-SE device, usable directly as a [`TmSys`].
pub struct LogTmSe {
    platform: Arc<SimPlatform>,
    /// Per-core signatures (index = core id), guarded together because
    /// conflict checks scan all cores.
    sigs: Mutex<Vec<SigPair>>,
    shared: Vec<CoreShared>,
    cores: PerCore<CoreTxn>,
    /// Single-writer per-core counters, readable without quiescence.
    stats: Box<[ThreadStats]>,
    ts_counter: AtomicU64,
}

impl LogTmSe {
    /// Perfect filters — the paper's upper-bound configuration (§4.3).
    pub fn new(platform: Arc<SimPlatform>) -> Arc<Self> {
        let n = platform.n_cores();
        Arc::new(LogTmSe {
            platform,
            sigs: Mutex::new((0..n).map(|_| SigPair::default()).collect()),
            shared: (0..n)
                .map(|_| CoreShared {
                    ts: AtomicU64::new(0),
                    stalling: AtomicU64::new(0),
                    doomed: AtomicU64::new(0),
                })
                .collect(),
            cores: PerCore::new(n, CoreTxn::new),
            stats: (0..n).map(|_| ThreadStats::default()).collect(),
            ts_counter: AtomicU64::new(1),
        })
    }

    pub fn machine(&self) -> &Arc<Machine> {
        self.platform.machine()
    }

    fn doomed(&self, core: usize) -> bool {
        self.shared[core].doomed.load(Ordering::SeqCst) != 0
    }

    /// Acquire `line` for this core, stalling on conflicts per the LogTM
    /// protocol. Returns Err when this transaction must abort.
    ///
    /// Conflicts are detected against the other cores' signatures — with
    /// Bloom signatures this includes false positives, the cost the
    /// paper's "perfect filters" configuration deliberately excludes.
    fn acquire_line(&self, core: usize, line: u64, is_write: bool) -> Result<(), Abort> {
        let my_ts = self.shared[core].ts.load(Ordering::SeqCst);
        loop {
            if self.doomed(core) {
                return Err(Abort(nztm_core::AbortCause::Requested));
            }
            {
                let mut sigs = self.sigs.lock();
                let mut conflicters = 0u64;
                for (c, pair) in sigs.iter().enumerate() {
                    if c == core || self.shared[c].ts.load(Ordering::SeqCst) == 0 {
                        continue;
                    }
                    let hit = pair.write.contains(&line)
                        || (is_write && pair.read.contains(&line));
                    if hit {
                        conflicters |= 1 << c;
                    }
                }
                if conflicters == 0 {
                    let mine = &mut sigs[core];
                    if is_write {
                        mine.write.insert(line);
                    } else {
                        mine.read.insert(line);
                    }
                    self.shared[core].stalling.store(0, Ordering::SeqCst);
                    return Ok(());
                }
                // Requester stalls ("avoids aborts unless potential
                // deadlock is detected"). Possible-cycle rule: doom
                // stalled holders younger than us.
                self.shared[core].stalling.store(1, Ordering::SeqCst);
                for h in BitIter(conflicters) {
                    let h_ts = self.shared[h].ts.load(Ordering::SeqCst);
                    if h_ts > my_ts && self.shared[h].stalling.load(Ordering::SeqCst) != 0 {
                        self.shared[h].doomed.store(1, Ordering::SeqCst);
                    }
                }
            }
            self.platform.spin_wait();
            self.stats[core].wait_steps.bump();
        }
    }

    /// Software abort handler: unroll the undo log, release lines.
    fn abort_handler(&self, core: usize) {
        let st = unsafe { self.cores.get(core) };
        let costs = self.machine().config().costs.clone();
        self.platform.work(costs.htm_abort);
        for &(word_ptr, addr, old) in st.undo.iter().rev() {
            // Safety: object words outlive the run (pool/Arc-owned).
            unsafe { (*(word_ptr as *const AtomicU64)).store(old, Ordering::SeqCst) };
            self.platform.mem_nb(addr, 8, AccessKind::Write);
            self.platform.work(costs.logtm_unroll_per_word);
        }
        st.undo.clear();
        self.release(core);
        self.stats[core].htm_aborts.bump();
        self.stats[core].htm_conflict_aborts.bump();
    }

    fn release(&self, core: usize) {
        let st = unsafe { self.cores.get(core) };
        st.lines.clear();
        {
            let mut sigs = self.sigs.lock();
            sigs[core].read.clear();
            sigs[core].write.clear();
        }
        self.shared[core].stalling.store(0, Ordering::SeqCst);
        self.shared[core].ts.store(0, Ordering::SeqCst);
    }

    fn access_object(&self, core: usize, synth: usize, bytes: usize, is_write: bool) -> Result<(), Abort> {
        let st = unsafe { self.cores.get(core) };
        let first = synth >> 6;
        let last = (synth + bytes.max(1) - 1) >> 6;
        for l in first..=last {
            let host_addr = l << 6;
            let res = self.machine().mem_access(
                host_addr,
                if is_write { AccessKind::Write } else { AccessKind::Read },
            );
            let line = res.line.0;
            if st.lines.contains(&(line, is_write)) || st.lines.contains(&(line, true)) {
                continue; // already hold sufficient access
            }
            self.acquire_line(core, line, is_write)?;
            st.lines.insert((line, is_write));
        }
        Ok(())
    }
}

/// In-flight LogTM transaction handle.
pub struct LogTx<'s> {
    sys: &'s LogTmSe,
    core: usize,
}

impl<'s> LogTx<'s> {
    pub fn read<T: TmData>(&mut self, obj: &Arc<LogObject<T>>) -> Result<T, Abort> {
        let st = unsafe { self.sys.cores.get(self.core) };
        self.sys.stats[self.core].reads.bump();
        self.sys.access_object(self.core, obj.synth, T::n_words() * 8, false)?;
        let mut scratch = std::mem::take(&mut st.scratch);
        scratch.clear();
        scratch.resize(T::n_words(), 0);
        snapshot_words(obj.data.words(), &mut scratch);
        let v = T::decode(&scratch);
        st.scratch = scratch;
        Ok(v)
    }

    pub fn write<T: TmData>(&mut self, obj: &Arc<LogObject<T>>, v: &T) -> Result<(), Abort> {
        let st = unsafe { self.sys.cores.get(self.core) };
        self.sys.stats[self.core].acquires.bump();
        self.sys.access_object(self.core, obj.synth, T::n_words() * 8, true)?;
        let mut scratch = std::mem::take(&mut st.scratch);
        scratch.clear();
        scratch.resize(T::n_words(), 0);
        v.encode(&mut scratch);
        // Eager: log old values, then store new ones in place.
        for (i, w) in obj.data.words().iter().enumerate() {
            let old = w.load(Ordering::SeqCst);
            st.undo.push((w as *const AtomicU64 as usize, obj.synth + i * 8, old));
            w.store(scratch[i], Ordering::SeqCst);
        }
        self.sys.platform.mem_nb(obj.synth, T::n_words() * 8, AccessKind::Write);
        st.scratch = scratch;
        Ok(())
    }
}

impl TmSys for LogTmSe {
    type Obj<T: TmData> = Arc<LogObject<T>>;
    type Tx<'t> = LogTx<'t>;

    fn alloc<T: TmData>(&self, init: T) -> Self::Obj<T> {
        LogObject::new(init)
    }

    fn peek<T: TmData>(obj: &Self::Obj<T>) -> T {
        obj.read_untracked()
    }

    fn execute<R>(&self, mut f: impl FnMut(&mut Self::Tx<'_>) -> Result<R, Abort>) -> R {
        let core = self.platform.core_id();
        let st = unsafe { self.cores.get(core) };
        assert!(!st.active, "LogTM transactions do not nest");
        // Sticky timestamp: assigned once per logical transaction.
        let ts = self.ts_counter.fetch_add(1, Ordering::SeqCst);
        st.active = true;
        loop {
            self.shared[core].ts.store(ts, Ordering::SeqCst);
            self.shared[core].doomed.store(0, Ordering::SeqCst);
            self.shared[core].stalling.store(0, Ordering::SeqCst);
            st.undo.clear();
            self.platform.work(self.machine().config().costs.htm_begin);

            let mut tx = LogTx { sys: self, core };
            match f(&mut tx) {
                Ok(v) => {
                    // Commit: doom-check and cleanup form one atomic step
                    // (no yield between them).
                    if !self.doomed(core) {
                        let st = unsafe { self.cores.get(core) };
                        self.platform.work(self.machine().config().costs.htm_commit);
                        st.undo.clear();
                        self.release(core);
                        self.stats[core].commits.bump();
                        self.stats[core].htm_commits.bump();
                        st.active = false;
                        st.backoff.reset();
                        return v;
                    }
                    self.abort_handler(core);
                }
                Err(_) => self.abort_handler(core),
            }
            // Backoff between retries.
            let st = unsafe { self.cores.get(core) };
            let steps = st.backoff.steps(st.rng.next_u64());
            for _ in 0..steps {
                self.platform.spin_wait();
            }
        }
    }

    fn read<T: TmData>(tx: &mut Self::Tx<'_>, obj: &Self::Obj<T>) -> Result<T, Abort> {
        tx.read(obj)
    }

    fn write<T: TmData>(tx: &mut Self::Tx<'_>, obj: &Self::Obj<T>, v: &T) -> Result<(), Abort> {
        tx.write(obj, v)
    }

    fn stats_snapshot(&self) -> TmStats {
        ThreadStats::merge_all(self.stats.iter())
    }

    fn reset_stats(&self) {
        for s in self.stats.iter() {
            s.reset();
        }
    }

    fn name(&self) -> &'static str {
        "LogTM-SE"
    }
}

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

    fn setup(cores: usize) -> (Arc<Machine>, Arc<LogTmSe>) {
        let m = Machine::new(MachineConfig {
            n_cores: cores,
            hw_cores: 0,
            costs: CostModel::default(),
            l1: CacheConfig::tiny(1024, 4),
            l2: CacheConfig::tiny(8192, 8),
            max_cycles: 2_000_000_000,
        });
        let p = SimPlatform::new(Arc::clone(&m));
        let l = LogTmSe::new(p);
        (m, l)
    }

    #[test]
    fn read_write_commit() {
        let (m, l) = setup(1);
        let o = l.alloc(5u64);
        let (l2, o2) = (Arc::clone(&l), Arc::clone(&o));
        m.run(vec![Box::new(move || {
            let v = l2.execute(|tx| {
                let v = tx.read(&o2)?;
                tx.write(&o2, &(v + 1))?;
                Ok(v)
            });
            assert_eq!(v, 5);
        })]);
        assert_eq!(o.read_untracked(), 6);
        assert_eq!(l.stats_snapshot().htm_commits, 1);
    }

    #[test]
    fn concurrent_increments_conserve() {
        let (m, l) = setup(4);
        let o = l.alloc(0u64);
        let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..4)
            .map(|_| {
                let l = Arc::clone(&l);
                let o = Arc::clone(&o);
                Box::new(move || {
                    for _ in 0..100 {
                        l.execute(|tx| {
                            let v = tx.read(&o)?;
                            tx.write(&o, &(v + 1))
                        });
                    }
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        m.run(bodies);
        assert_eq!(o.read_untracked(), 400);
        let st = l.stats_snapshot();
        assert_eq!(st.htm_commits, 400);
    }

    #[test]
    fn bank_transfers_conserve_money() {
        let (m, l) = setup(3);
        let accounts: Arc<Vec<_>> = Arc::new((0..4).map(|_| l.alloc(100u64)).collect());
        let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..3)
            .map(|tid| {
                let l = Arc::clone(&l);
                let accounts = Arc::clone(&accounts);
                Box::new(move || {
                    let mut rng = DetRng::new(40 + tid as u64);
                    for _ in 0..100 {
                        let a = rng.next_below(4) as usize;
                        let b = rng.next_below(4) as usize;
                        if a == b {
                            continue;
                        }
                        l.execute(|tx| {
                            let va = tx.read(&accounts[a])?;
                            let vb = tx.read(&accounts[b])?;
                            if va > 0 {
                                tx.write(&accounts[a], &(va - 1))?;
                                tx.write(&accounts[b], &(vb + 1))?;
                            }
                            Ok(())
                        });
                    }
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        m.run(bodies);
        let total: u64 = accounts.iter().map(|a| a.read_untracked()).sum();
        assert_eq!(total, 400);
    }

    #[test]
    fn unbounded_large_write_sets_commit() {
        // No capacity aborts: write far more than any store buffer.
        let (m, l) = setup(1);
        let objs: Arc<Vec<_>> = Arc::new((0..600).map(|i| l.alloc(i as u64)).collect());
        let (l2, o2) = (Arc::clone(&l), Arc::clone(&objs));
        m.run(vec![Box::new(move || {
            l2.execute(|tx| {
                for o in o2.iter() {
                    let v = tx.read(o)?;
                    tx.write(o, &(v + 1))?;
                }
                Ok(())
            });
        })]);
        assert_eq!(objs[599].read_untracked(), 600);
        assert_eq!(l.stats_snapshot().htm_aborts, 0, "nothing to abort single-threaded");
    }

    #[test]
    fn deterministic_execution() {
        let run = || {
            let (m, l) = setup(3);
            let o = l.alloc(0u64);
            let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..3)
                .map(|_| {
                    let l = Arc::clone(&l);
                    let o = Arc::clone(&o);
                    Box::new(move || {
                        for _ in 0..50 {
                            l.execute(|tx| {
                                let v = tx.read(&o)?;
                                tx.write(&o, &(v + 1))
                            });
                        }
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            let r = m.run(bodies);
            (r.makespan, l.stats_snapshot().htm_aborts)
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod signature_ablation_tests {
    use super::*;
    use nztm_sim::{CacheConfig, CostModel, MachineConfig};

    fn run_counter_workload() -> u64 {
        let m = Machine::new(MachineConfig {
            n_cores: 4,
            hw_cores: 0,
            costs: CostModel::default(),
            l1: CacheConfig::tiny(1024, 4),
            l2: CacheConfig::tiny(8192, 8),
            max_cycles: 2_000_000_000,
        });
        let p = SimPlatform::new(Arc::clone(&m));
        let l = LogTmSe::new(p);
        // Disjoint objects per core: perfect filters see zero conflicts.
        let objs: Vec<Vec<_>> =
            (0..4).map(|c| (0..32).map(|i| l.alloc((c * 100 + i) as u64)).collect()).collect();
        let objs = Arc::new(objs);
        let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..4)
            .map(|tid| {
                let l = Arc::clone(&l);
                let objs = Arc::clone(&objs);
                Box::new(move || {
                    for round in 0..30 {
                        l.execute(|tx| {
                            for o in &objs[tid] {
                                let v = tx.read(o)?;
                                tx.write(o, &(v + 1))?;
                            }
                            Ok(())
                        });
                        let _ = round;
                    }
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        m.run(bodies);
        // Every increment landed.
        for (c, per_core) in objs.iter().enumerate() {
            for (i, o) in per_core.iter().enumerate() {
                assert_eq!(o.read_untracked(), (c * 100 + i) as u64 + 30);
            }
        }
        l.stats_snapshot().wait_steps
    }

    #[test]
    fn perfect_filters_see_no_conflicts_on_disjoint_sets() {
        let waits = run_counter_workload();
        assert_eq!(waits, 0, "disjoint write sets cannot conflict under perfect filters");
    }
}
