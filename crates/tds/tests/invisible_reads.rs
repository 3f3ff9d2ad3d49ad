//! Recycled nodes under invisible reads, on real threads.
//!
//! With `ReadMode::Invisible` an attempt validates its reads only at
//! commit, so until then it may see a node that was removed and reused
//! for another key — a *zombie* attempt. Without the structures'
//! strictly-rising-key guard such an attempt can follow links round a
//! cycle forever. Two threads hammer an 8-key universe, toggling each
//! key in both structures inside one transaction and cross-checking
//! `get` / `succ`; the run must finish, every transaction must see the
//! two structures agree, and the final snapshots must be equal.

use nztm_core::{NzBuilder, Nzstm, ReadMode, TmSys};
use nztm_sim::Native;
use nztm_tds::{TdsHashMap, TdsSkipList};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

type Sys = Nzstm<Native>;

const KEYS: u64 = 8;
const THREADS: usize = 2;
const RUN_FOR: Duration = Duration::from_millis(1500);
/// Far beyond `RUN_FOR`: a worker still running then is stuck.
const HANG_AFTER: Duration = Duration::from_secs(60);

struct Shared {
    sys: Arc<Sys>,
    skip: TdsSkipList<Sys>,
    map: TdsHashMap<Sys>,
}

fn worker(sh: &Shared, tid: usize) -> u64 {
    let sys = &*sh.sys;
    let (skip, map) = (&sh.skip, &sh.map);
    let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ tid as u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let start = Instant::now();
    let mut ops = 0;
    while start.elapsed() < RUN_FOR {
        let r = next();
        let k = 1 + r % KEYS;
        match (r >> 8) % 4 {
            0 | 1 => {
                let agree = sys.execute(|tx| {
                    Ok(if skip.contains_tx(tx, k)? {
                        skip.remove_tx(tx, k)?.is_some() && map.remove_tx(tx, k)?.is_some()
                    } else {
                        let v = r >> 16;
                        skip.insert_tx(sys, tx, k, v)?.is_none()
                            && map.insert_tx(sys, tx, k, v)?.is_none()
                    })
                });
                assert!(agree, "toggle of {k}: the structures disagreed");
            }
            2 => {
                let (a, b) = sys.execute(|tx| Ok((skip.get_tx(tx, k)?, map.get_tx(tx, k)?)));
                assert_eq!(a, b, "get {k}");
            }
            _ => {
                let (s, m) = sys.execute(|tx| {
                    let s = skip.succ_tx(tx, k)?;
                    let m = match s {
                        Some((sk, _)) => map.get_tx(tx, sk)?.map(|v| (sk, v)),
                        None => None,
                    };
                    Ok((s, m))
                });
                assert_eq!(s, m, "succ {k}");
            }
        }
        ops += 1;
    }
    ops
}

#[test]
fn zombie_attempts_over_recycled_nodes_terminate() {
    let platform = Native::new(THREADS);
    platform.register_thread_as(0);
    let sys = NzBuilder::new(Arc::clone(&platform)).read_mode(ReadMode::Invisible).build_nzstm();
    // Two buckets: chains are long enough to walk, and a recycled map
    // node usually comes back under another key.
    let sh = Arc::new(Shared {
        skip: TdsSkipList::new(&*sys, 4096),
        map: TdsHashMap::new(&*sys, 2, 4096),
        sys,
    });
    for k in (1..=KEYS).step_by(2) {
        sh.skip.insert(&*sh.sys, k, k);
        sh.map.insert(&*sh.sys, k, k);
    }

    // Workers report through a channel so a stuck one is caught by a
    // timeout; a panicking one drops its sender unsent, which ends the
    // wait at once.
    let (done_tx, done_rx) = mpsc::channel();
    let workers: Vec<_> = (0..THREADS)
        .map(|tid| {
            let (sh, platform, done_tx) =
                (Arc::clone(&sh), Arc::clone(&platform), done_tx.clone());
            thread::spawn(move || {
                platform.register_thread_as(tid);
                done_tx.send(worker(&sh, tid)).expect("the test thread waits for every worker");
            })
        })
        .collect();
    drop(done_tx);
    let deadline = Instant::now() + HANG_AFTER;
    let mut ops = 0;
    for _ in 0..THREADS {
        let left = deadline.saturating_duration_since(Instant::now());
        match done_rx.recv_timeout(left) {
            Ok(n) => ops += n,
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("a worker is stuck"),
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    for w in workers {
        w.join().expect("worker panicked");
    }
    assert!(ops > 0);

    let (skip, map) = (sh.skip.snapshot(), sh.map.snapshot());
    assert_eq!(skip, map, "final snapshots");
    assert!(skip.iter().all(|&(k, _)| (1..=KEYS).contains(&k)));
}
