//! The three workloads on real threads, each an implementation of
//! [`NativeWorkload`] over `Nzstm<Native>` built through `NzBuilder`.

use crate::native::NativeWorkload;
use crate::run::{Metrics, RunCfg};
use crate::span::{Counters, C};
use nztm_core::{NzBuilder, Nzstm, TmSys};
use nztm_sim::{DetRng, Native};
use nztm_tds::{TdsHashMap, TdsQueue, TdsSkipList};
use nztm_workloads::kv::{KvOp, KvRet, KvTraceCfg, KvTraceGen, ShardedKv};
use std::sync::Arc;

pub type Sys = Nzstm<Native>;

/// The engine for `threads` workers plus the coordinator, which the
/// calling thread becomes.
fn native_system(threads: usize) -> Arc<Sys> {
    let platform = Native::new(threads + 1);
    platform.register_thread_as(threads);
    NzBuilder::new(platform).build_nzstm()
}

// ---------------------------------------------------------------------
// kv-zipf
// ---------------------------------------------------------------------

pub const KV_USERS: u64 = 131_072;
const KV_SHARDS: usize = 8;
const KV_BUCKETS: usize = 8_192;
const KV_BALANCE: u64 = 1_000;

pub fn kv_trace_cfg() -> KvTraceCfg {
    KvTraceCfg {
        users: KV_USERS,
        ..KvTraceCfg::million_users()
    }
}

pub const KV_KINDS: &[&str] = &["kv.get", "kv.put", "kv.transfer"];

/// Apply one trace operation; a get of a pre-populated user must hit.
pub fn kv_apply<S: TmSys>(kv: &ShardedKv<S>, sys: &S, op: &KvOp) -> (u8, bool) {
    let ret = kv.apply(sys, op);
    match op {
        KvOp::Get(_) => (0, ret != KvRet::Val(None)),
        KvOp::Put(..) => (1, true),
        KvOp::Transfer { .. } => (2, true),
    }
}

/// Give every user a session and a wallet, so the steady state allocates
/// no pool nodes.
pub fn kv_populate<S: TmSys>(kv: &ShardedKv<S>, sys: &S, users: u64) {
    for u in 0..users {
        kv.put_session(sys, u, u);
        kv.transfer(sys, u, u, 0);
    }
}

pub fn kv_layer_counts(delta: &Counters, ops: u64, m: &mut Metrics) {
    m.set("kv.reads_per_req", delta.per(C::Reads, ops));
    m.set("kv.acquires_per_req", delta.per(C::Acquires, ops));
    m.set("tds.reads_per_op", delta.per(C::Reads, delta[C::AdtOps]));
}

pub struct KvZipf {
    sys: Arc<Sys>,
    kv: ShardedKv<Sys>,
}

pub struct KvWorker {
    gen: KvTraceGen,
    /// `--break-oracle`: the next get asks for a user nobody populated.
    poisoned: bool,
}

impl NativeWorkload for KvZipf {
    const KINDS: &'static [&'static str] = KV_KINDS;
    type Worker = KvWorker;

    fn build(cfg: &RunCfg) -> Self {
        let sys = native_system(cfg.threads);
        // Users spread evenly over the shards; a fifth of headroom.
        let per_shard = KV_USERS as usize / KV_SHARDS * 6 / 5;
        let kv = ShardedKv::new(&*sys, KV_SHARDS, KV_BUCKETS, per_shard, KV_BALANCE);
        kv_populate(&kv, &*sys, KV_USERS);
        KvZipf { sys, kv }
    }

    fn worker(&self, cfg: &RunCfg, tid: usize) -> KvWorker {
        KvWorker {
            gen: KvTraceGen::new(kv_trace_cfg(), cfg.seed, tid as u64 + 1),
            poisoned: false,
        }
    }

    fn op(&self, w: &mut KvWorker) -> (u8, bool) {
        if std::mem::take(&mut w.poisoned) {
            return kv_apply(&self.kv, &*self.sys, &KvOp::Get(KV_USERS));
        }
        kv_apply(&self.kv, &*self.sys, &w.gen.next())
    }

    fn oracle(&self, _workers: &[&KvWorker]) -> Result<(), String> {
        self.kv.assert_conserved();
        Ok(())
    }

    fn sys(&self) -> &Sys {
        &self.sys
    }

    fn corrupt(&self, workers: &mut [&mut KvWorker]) {
        workers[0].poisoned = true;
    }

    fn layer_counts(&self, delta: &Counters, ops: u64, m: &mut Metrics) {
        kv_layer_counts(delta, ops, m);
    }
}

// ---------------------------------------------------------------------
// tds-mix
// ---------------------------------------------------------------------

/// Keys are `2..=4096`: the 2 048 even ones are always present, the odd
/// ones come and go.
const TDS_EVEN: u64 = 2_048;
const TDS_MAP_BUCKETS: usize = 1_024;
const TDS_QUEUE_CAP: usize = 1_024;
/// Pool nodes a worker may consume per second and structure. The current
/// code toggles about 3 400 keys a second per worker, half of them
/// inserts; this leaves more than tenfold room, and exhaustion panics.
const TDS_NODES_PER_WORKER_SECOND: usize = 25_000;

pub struct TdsMix {
    sys: Arc<Sys>,
    skip: TdsSkipList<Sys>,
    map: TdsHashMap<Sys>,
    queues: Vec<TdsQueue<Sys>>,
}

pub struct TdsWorker {
    tid: usize,
    rng: DetRng,
    /// Successful enqueues minus successful dequeues on this worker's queue.
    queued: u64,
}

/// One draw of the tds-mix stream (also what the self-tests compare).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TdsOp {
    SkipSucc(u64),
    SkipGet(u64),
    MapGet(u64),
    UpdateBoth(u64, u64),
    ToggleBoth(u64, u64),
    Enqueue(u64),
    Dequeue,
}

pub fn tds_draw(rng: &mut DetRng) -> TdsOp {
    let any_key = |rng: &mut DetRng| 2 + rng.next_below(2 * TDS_EVEN - 1);
    let even_key = |rng: &mut DetRng| 2 * (1 + rng.next_below(TDS_EVEN));
    let odd_key = |rng: &mut DetRng| 2 * (1 + rng.next_below(TDS_EVEN - 1)) + 1;
    match rng.next_below(100) {
        0..50 => TdsOp::SkipSucc(any_key(rng)),
        50..70 => TdsOp::SkipGet(any_key(rng)),
        70..80 => TdsOp::MapGet(any_key(rng)),
        80..88 => TdsOp::UpdateBoth(even_key(rng), rng.next_u64() >> 1),
        88..92 => TdsOp::ToggleBoth(odd_key(rng), rng.next_u64() >> 1),
        92..96 => TdsOp::Enqueue(rng.next_u64() >> 1),
        _ => TdsOp::Dequeue,
    }
}

impl NativeWorkload for TdsMix {
    const KINDS: &'static [&'static str] = &[
        "tds.skip_succ",
        "tds.skip_get",
        "tds.map_get",
        "tds.update_both",
        "tds.toggle_both",
        "tds.queue_enq",
        "tds.queue_deq",
    ];
    type Worker = TdsWorker;

    fn build(cfg: &RunCfg) -> Self {
        let sys = native_system(cfg.threads);
        // Warm-up, the window and the traced extras all consume nodes.
        let seconds = cfg.seconds as usize + 8;
        let capacity = 2 * TDS_EVEN as usize + cfg.threads * TDS_NODES_PER_WORKER_SECOND * seconds;
        let skip = TdsSkipList::new(&*sys, capacity);
        let map = TdsHashMap::new(&*sys, TDS_MAP_BUCKETS, capacity);
        let mut rng = DetRng::new(cfg.seed).split(0);
        for k in 2..=2 * TDS_EVEN {
            if k % 2 == 0 || rng.chance(1, 2) {
                skip.insert(&*sys, k, k);
                map.insert(&*sys, k, k);
            }
        }
        let queues = (0..cfg.threads)
            .map(|_| TdsQueue::new(&*sys, TDS_QUEUE_CAP))
            .collect();
        TdsMix {
            sys,
            skip,
            map,
            queues,
        }
    }

    fn worker(&self, cfg: &RunCfg, tid: usize) -> TdsWorker {
        TdsWorker {
            tid,
            rng: DetRng::new(cfg.seed).split(tid as u64 + 1),
            queued: 0,
        }
    }

    fn op(&self, w: &mut TdsWorker) -> (u8, bool) {
        let sys = &*self.sys;
        let (skip, map) = (&self.skip, &self.map);
        // An even key is always present; an odd one may be either.
        let hit_if_even = |k: u64, got: Option<u64>| k % 2 == 1 || got.is_some();
        match tds_draw(&mut w.rng) {
            TdsOp::SkipSucc(k) => {
                // The next even key at or after `k` bounds the answer.
                let ok = skip
                    .succ(sys, k)
                    .is_some_and(|(found, _)| (k..=k + k % 2).contains(&found));
                (0, ok)
            }
            TdsOp::SkipGet(k) => (1, hit_if_even(k, skip.get(sys, k))),
            TdsOp::MapGet(k) => (2, hit_if_even(k, map.get(sys, k))),
            TdsOp::UpdateBoth(k, v) => {
                let (a, b) = sys.execute(|tx| {
                    Ok((
                        skip.insert_tx(sys, tx, k, v)?,
                        map.insert_tx(sys, tx, k, v)?,
                    ))
                });
                (3, a.is_some() && a == b)
            }
            TdsOp::ToggleBoth(k, v) => {
                let agree = sys.execute(|tx| {
                    Ok(if skip.contains_tx(tx, k)? {
                        skip.remove_tx(tx, k)?.is_some() && map.remove_tx(tx, k)?.is_some()
                    } else {
                        skip.insert_tx(sys, tx, k, v)?.is_none()
                            && map.insert_tx(sys, tx, k, v)?.is_none()
                    })
                });
                (4, agree)
            }
            TdsOp::Enqueue(v) => {
                w.queued += self.queues[w.tid].enqueue(sys, v) as u64;
                (5, true)
            }
            TdsOp::Dequeue => {
                w.queued -= self.queues[w.tid].dequeue(sys).is_some() as u64;
                (6, true)
            }
        }
    }

    fn oracle(&self, workers: &[&TdsWorker]) -> Result<(), String> {
        let (skip, map) = (self.skip.snapshot(), self.map.snapshot());
        if skip != map {
            return Err(format!(
                "skiplist holds {} entries, map {}; they differ",
                skip.len(),
                map.len()
            ));
        }
        let evens = skip.iter().filter(|(k, _)| k % 2 == 0).count() as u64;
        if evens != TDS_EVEN {
            return Err(format!("{evens} even keys present, expected {TDS_EVEN}"));
        }
        for w in workers {
            let len = self.queues[w.tid].len(&*self.sys) as u64;
            if len != w.queued {
                return Err(format!(
                    "queue {} holds {len}, its worker enqueued {} net",
                    w.tid, w.queued
                ));
            }
        }
        Ok(())
    }

    fn sys(&self) -> &Sys {
        &self.sys
    }

    fn corrupt(&self, _workers: &mut [&mut TdsWorker]) {
        // An odd key beyond the key space, in one structure only.
        self.skip.insert(&*self.sys, 4 * TDS_EVEN + 1, 0);
    }

    fn layer_counts(&self, delta: &Counters, _ops: u64, m: &mut Metrics) {
        m.set("tds.reads_per_op", delta.per(C::Reads, delta[C::AdtOps]));
    }
}

// ---------------------------------------------------------------------
// txn-write
// ---------------------------------------------------------------------

/// 16 384 `u64` objects: 2 MiB of headers and data, L2-resident, and
/// enough that two workers rarely meet (256 objects made throughput
/// swing 12 % between runs).
const TXN_OBJECTS: u64 = 16_384;
const TXN_ACCESSES: usize = 4;

pub struct TxnWrite {
    sys: Arc<Sys>,
    objects: Vec<<Sys as TmSys>::Obj<u64>>,
}

pub struct TxnWorker {
    rng: DetRng,
    /// Transactions committed since the build, warm-up included.
    committed: u64,
}

pub fn txn_draw(rng: &mut DetRng) -> [usize; TXN_ACCESSES] {
    std::array::from_fn(|_| rng.next_below(TXN_OBJECTS) as usize)
}

impl NativeWorkload for TxnWrite {
    const KINDS: &'static [&'static str] = &["engine.rmw4"];
    type Worker = TxnWorker;

    fn build(cfg: &RunCfg) -> Self {
        let sys = native_system(cfg.threads);
        let objects = (0..TXN_OBJECTS).map(|i| sys.alloc(i)).collect();
        TxnWrite { sys, objects }
    }

    fn worker(&self, cfg: &RunCfg, tid: usize) -> TxnWorker {
        TxnWorker {
            rng: DetRng::new(cfg.seed).split(tid as u64 + 1),
            committed: 0,
        }
    }

    fn op(&self, w: &mut TxnWorker) -> (u8, bool) {
        let picks = txn_draw(&mut w.rng);
        self.sys.execute(|tx| {
            for &i in &picks {
                let v = Sys::read(tx, &self.objects[i])?;
                Sys::write(tx, &self.objects[i], &(v + 1))?;
            }
            Ok(())
        });
        w.committed += 1;
        (0, true)
    }

    fn oracle(&self, workers: &[&TxnWorker]) -> Result<(), String> {
        let sum: u64 = self.objects.iter().map(Sys::peek).sum();
        let committed: u64 = workers.iter().map(|w| w.committed).sum();
        let expect = TXN_OBJECTS * (TXN_OBJECTS - 1) / 2 + TXN_ACCESSES as u64 * committed;
        if sum != expect {
            return Err(format!(
                "objects sum to {sum}, expected {expect} after {committed} commits"
            ));
        }
        Ok(())
    }

    fn sys(&self) -> &Sys {
        &self.sys
    }

    fn corrupt(&self, _workers: &mut [&mut TxnWorker]) {
        // A store no transaction made.
        self.objects[0].data_words()[0].fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    }

    fn layer_counts(&self, _delta: &Counters, _ops: u64, _m: &mut Metrics) {}
}
