//! Stress harnesses for protocol testing.
//!
//! The benchmark drivers in [`crate::driver`] measure throughput; the
//! harnesses here exist to *provoke protocol races* and make them
//! checkable. The core workload is a bank of accounts with random
//! transfers — every transaction reads and writes two objects, so
//! write-write conflicts, abort handshakes, lazy restores, and (for
//! NZSTM under low patience) inflation/deflation all fire constantly —
//! plus periodic all-accounts audits that exercise the read path and
//! reader-bitmap aborts. Money conservation gives an end-to-end
//! serializability check independent of the sanitizer's per-step
//! invariants.
//!
//! Used by the `sanitizer_stress` suite across BZSTM, NZSTM, NZSTM+SCSS,
//! and the NZTM hybrid, on both native threads and the deterministic
//! simulated machine.

use nztm_core::{TmStats, TmSys};
use nztm_sim::{DetRng, Machine, Native, RunReport};
use std::sync::Arc;

/// A bank of transactional accounts; the sum is invariant under
/// transfers.
pub struct TransferBank<S: TmSys> {
    accounts: Vec<S::Obj<u64>>,
    expected_total: u64,
}

impl<S: TmSys> TransferBank<S> {
    pub fn new(sys: &S, n_accounts: usize, initial: u64) -> Self {
        assert!(n_accounts >= 2, "transfers need two distinct accounts");
        TransferBank {
            accounts: (0..n_accounts).map(|_| sys.alloc(initial)).collect(),
            expected_total: n_accounts as u64 * initial,
        }
    }

    pub fn n_accounts(&self) -> usize {
        self.accounts.len()
    }

    /// One transactional step: usually a two-account transfer, sometimes
    /// (1 in 8) a read-only audit of every account.
    pub fn one_op(&self, sys: &S, rng: &mut DetRng) {
        if rng.chance(1, 8) {
            let total = sys.execute(|tx| {
                let mut sum = 0u64;
                for a in &self.accounts {
                    sum += S::read(tx, a)?;
                }
                Ok(sum)
            });
            assert_eq!(total, self.expected_total, "audit read an unserializable state");
            return;
        }
        let n = self.accounts.len() as u64;
        let from = rng.next_u64() % n;
        let mut to = rng.next_u64() % (n - 1);
        if to >= from {
            to += 1;
        }
        let amount = rng.next_u64() % 5;
        let (from, to) = (&self.accounts[from as usize], &self.accounts[to as usize]);
        sys.execute(|tx| {
            let f = S::read(tx, from)?;
            let t = S::read(tx, to)?;
            let moved = amount.min(f);
            S::write(tx, from, &(f - moved))?;
            S::write(tx, to, &(t + moved))?;
            Ok(())
        });
    }

    /// Non-transactional sum (quiescent verification only).
    pub fn total_quiescent(&self) -> u64 {
        self.accounts.iter().map(|a| S::peek(a)).sum()
    }

    /// Assert money was conserved. Call only while no transactions run.
    pub fn assert_conserved(&self) {
        assert_eq!(
            self.total_quiescent(),
            self.expected_total,
            "transfer bank lost or created money — a protocol bug"
        );
    }
}

/// Configuration of one stress run.
#[derive(Clone, Debug)]
pub struct StressConfig {
    pub threads: usize,
    pub ops_per_thread: u64,
    pub seed: u64,
    pub accounts: usize,
    pub initial_balance: u64,
}

impl Default for StressConfig {
    fn default() -> Self {
        StressConfig {
            threads: 4,
            ops_per_thread: 400,
            seed: 0xD00D,
            accounts: 4,
            initial_balance: 100,
        }
    }
}

/// Run the transfer-bank stress on native threads. Returns the merged
/// statistics of the measured phase; conservation is asserted before
/// returning.
pub fn stress_native<S: TmSys>(platform: &Arc<Native>, sys: &Arc<S>, cfg: &StressConfig) -> TmStats {
    use nztm_sim::Platform;
    assert!(cfg.threads <= platform.n_cores());
    platform.register_thread_as(0);
    let bank = Arc::new(TransferBank::new(&**sys, cfg.accounts, cfg.initial_balance));
    sys.reset_stats();
    let barrier = Arc::new(std::sync::Barrier::new(cfg.threads));
    std::thread::scope(|scope| {
        for tid in 0..cfg.threads {
            let platform = Arc::clone(platform);
            let sys = Arc::clone(sys);
            let bank = Arc::clone(&bank);
            let barrier = Arc::clone(&barrier);
            let cfg = cfg.clone();
            scope.spawn(move || {
                platform.register_thread_as(tid);
                let mut rng = DetRng::new(cfg.seed).split(tid as u64 + 1);
                barrier.wait();
                for _ in 0..cfg.ops_per_thread {
                    bank.one_op(&*sys, &mut rng);
                }
            });
        }
    });
    platform.register_thread_as(0);
    bank.assert_conserved();
    sys.stats_snapshot()
}

/// Run the transfer-bank stress on the simulated machine (one thread per
/// core, `cfg.threads` must equal the machine's core count). Fully
/// deterministic; returns the merged statistics and the machine report
/// (whose schedule trace, when enabled, is the replay artifact).
pub fn stress_sim<S: TmSys>(
    machine: &Arc<Machine>,
    sys: &Arc<S>,
    cfg: &StressConfig,
) -> (TmStats, RunReport) {
    let threads = machine.config().n_cores;
    assert_eq!(threads, cfg.threads, "machine cores must equal cfg.threads");
    // Setup phase on core 0 (alloc charges the sim cache model).
    let bank = {
        let slot: Arc<nztm_sim::sync::Mutex<Option<TransferBank<S>>>> =
            Arc::new(nztm_sim::sync::Mutex::new(None));
        let slot2 = Arc::clone(&slot);
        let sys2 = Arc::clone(sys);
        let (n, init) = (cfg.accounts, cfg.initial_balance);
        let mut bodies: Vec<Box<dyn FnOnce() + Send>> =
            vec![Box::new(move || *slot2.lock() = Some(TransferBank::new(&*sys2, n, init)))];
        for _ in 1..threads {
            bodies.push(Box::new(|| {}));
        }
        machine.run(bodies);
        let built = slot.lock().take().expect("setup built the bank");
        Arc::new(built)
    };
    sys.reset_stats();
    let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..threads)
        .map(|tid| {
            let sys = Arc::clone(sys);
            let bank = Arc::clone(&bank);
            let cfg = cfg.clone();
            Box::new(move || {
                let mut rng = DetRng::new(cfg.seed).split(tid as u64 + 1);
                for _ in 0..cfg.ops_per_thread {
                    bank.one_op(&*sys, &mut rng);
                }
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    let report = machine.run(bodies);
    bank.assert_conserved();
    (sys.stats_snapshot(), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nztm_sim::{CacheConfig, CostModel, MachineConfig, SimPlatform};

    #[test]
    fn native_stress_conserves_money() {
        let p = Native::new(3);
        let s = nztm_core::NzBuilder::new(Arc::clone(&p)).build_nzstm();
        let cfg = StressConfig { threads: 3, ops_per_thread: 200, ..StressConfig::default() };
        let st = stress_native(&p, &s, &cfg);
        assert!(st.commits >= 600, "each op commits at least once");
    }

    #[test]
    fn sim_stress_is_deterministic() {
        let run = || {
            let m = Machine::new(MachineConfig {
                n_cores: 3,
                hw_cores: 0,
                costs: CostModel::default(),
                l1: CacheConfig::tiny(2048, 4),
                l2: CacheConfig::tiny(16384, 8),
                max_cycles: 4_000_000_000,
            });
            let p = SimPlatform::new(Arc::clone(&m));
            let s = nztm_core::NzBuilder::new(Arc::clone(&p)).build_bzstm();
            let cfg = StressConfig { threads: 3, ops_per_thread: 60, ..StressConfig::default() };
            let (st, report) = stress_sim(&m, &s, &cfg);
            (st.commits, st.aborts(), report.makespan)
        };
        assert_eq!(run(), run());
    }
}
