//! Randomized workload tests: seeded operation streams against the
//! reference model, across data structures and backends, plus STAMP
//! invariants under random seeds.

use nztm_core::{NzBuilder, Nzstm, TmSys};
use nztm_dstm::ShadowStm;
use nztm_sim::{DetRng, Native};
use nztm_workloads::linkedlist::LinkedListSet;
use nztm_workloads::redblack::RedBlackSet;
use nztm_workloads::set::{check_against_reference, Contention, TmSet};
use nztm_workloads::stamp::vacation::{Vacation, VacationConfig};
use std::sync::Arc;

fn nz() -> Arc<Nzstm<Native>> {
    let p = Native::new(1);
    p.register_thread_as(0);
    NzBuilder::new(p).build_nzstm()
}

/// Red-black tree: arbitrary seeds, reference equivalence and the
/// color/height invariants hold after every stream.
#[test]
fn redblack_random_streams() {
    let mut meta = DetRng::new(0x3E7_0001);
    for _ in 0..16 {
        let seed = meta.next_u64();
        let ops = meta.range_inclusive(200, 799) as usize;
        let s = nz();
        let t = RedBlackSet::new(&*s, ops * 2 + 512);
        check_against_reference(&t, &*s, seed, ops, Contention::High);
        t.check_invariants(&*s);
    }
}

/// Linked list: arbitrary seeds and both contention mixes.
#[test]
fn linkedlist_random_streams() {
    let mut meta = DetRng::new(0x3E7_0002);
    for _ in 0..16 {
        let seed = meta.next_u64();
        let high = meta.chance(1, 2);
        let s = nz();
        let t = LinkedListSet::new(&*s, 2_048);
        let c = if high { Contention::High } else { Contention::Low };
        check_against_reference(&t, &*s, seed, 500, c);
    }
}

/// Red-black tree over DSTM2-SF (shadow copies) and BZSTM: the same
/// streams must produce identical sets on every backend.
#[test]
fn backends_agree_on_random_streams() {
    fn run<S: TmSys>(s: &S, seed: u64) -> Vec<u64> {
        let t = RedBlackSet::new(s, 2_048);
        check_against_reference(&t, s, seed, 400, Contention::High);
        t.check_invariants(s);
        t.elements(s)
    }
    let mut meta = DetRng::new(0x3E7_0004);
    for _ in 0..16 {
        let seed = meta.next_u64();
        let p = Native::new(1);
        p.register_thread_as(0);
        let a = run(&*NzBuilder::new(Arc::clone(&p)).build_nzstm(), seed);
        let p = Native::new(1);
        p.register_thread_as(0);
        let b = run(&*NzBuilder::new(Arc::clone(&p)).build_bzstm(), seed);
        let p = Native::new(1);
        p.register_thread_as(0);
        let c = run(&*ShadowStm::with_defaults(Arc::clone(&p)), seed);
        assert_eq!(&a, &b, "seed {seed}");
        assert_eq!(&a, &c, "seed {seed}");
    }
}

/// Vacation conserves its bookkeeping for arbitrary seeds and both
/// parameterizations.
#[test]
fn vacation_conservation_random() {
    let mut meta = DetRng::new(0x3E7_0005);
    for _ in 0..16 {
        let seed = meta.next_u64();
        let high = meta.chance(1, 2);
        let p = Native::new(1);
        p.register_thread_as(0);
        let s = NzBuilder::new(p).build_nzstm();
        let mut cfg = if high { VacationConfig::high(16, 8) } else { VacationConfig::low(16, 8) };
        cfg.seed = seed;
        let v = Vacation::new(&*s, cfg);
        let mut rng = DetRng::new(seed ^ 1);
        for _ in 0..300 {
            v.one_transaction(&*s, &mut rng);
        }
        v.check_conservation(&*s);
    }
}
