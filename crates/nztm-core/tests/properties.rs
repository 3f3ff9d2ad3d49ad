//! Randomized property tests on the core data layer and the
//! single-threaded transactional semantics.
//!
//! Formerly proptest-based; now driven by the workspace's own seeded
//! `DetRng` so the whole test suite builds with no external crates. Every
//! case derives from a fixed seed — failures reproduce exactly, and the
//! printed seed pins the offending case.

use nztm_core::data::TmData;
use nztm_core::{tm_data_struct, NzBuilder, Nzstm};
use nztm_sim::{DetRng, Native};
use std::sync::Arc;

fn sys() -> Arc<Nzstm<Native>> {
    let p = Native::new(1);
    p.register_thread_as(0);
    NzBuilder::new(p).build_nzstm()
}

#[derive(Clone, Debug, PartialEq)]
struct Mixed {
    a: u64,
    b: i64,
    c: bool,
    d: Option<u32>,
    e: f64,
}
tm_data_struct!(Mixed { a: u64, b: i64, c: bool, d: Option<u32>, e: f64 });

fn arb_mixed(rng: &mut DetRng) -> Mixed {
    let e = loop {
        let bits = rng.next_u64();
        let f = f64::from_bits(bits);
        if !f.is_nan() {
            break f; // NaN breaks PartialEq
        }
    };
    Mixed {
        a: rng.next_u64(),
        b: rng.next_u64() as i64,
        c: rng.chance(1, 2),
        d: if rng.chance(1, 2) { Some(rng.next_u64() as u32) } else { None },
        e,
    }
}

/// encode/decode is the identity for arbitrary field values.
#[test]
fn tm_data_round_trips() {
    let mut rng = DetRng::new(0xDA7A_0001);
    for case in 0..256 {
        let v = arb_mixed(&mut rng);
        let mut buf = vec![0u64; Mixed::n_words()];
        v.encode(&mut buf);
        assert_eq!(Mixed::decode(&buf), v, "case {case}");
    }
}

/// A written value is exactly what a later transaction reads, for
/// arbitrary values (no truncation through the word encoding).
#[test]
fn stm_write_read_identity() {
    let mut rng = DetRng::new(0xDA7A_0002);
    for case in 0..256 {
        let v = arb_mixed(&mut rng);
        let w = arb_mixed(&mut rng);
        let s = sys();
        let obj = s.new_obj(v.clone());
        assert_eq!(s.run(|tx| tx.read(&obj)), v, "case {case}");
        s.run(|tx| tx.write(&obj, &w));
        assert_eq!(s.run(|tx| tx.read(&obj)), w.clone(), "case {case}");
        assert_eq!(obj.read_untracked(), w, "case {case}");
    }
}

/// An aborted attempt leaves no trace: after N explicit aborts the
/// committed value reflects only the committed writes.
#[test]
fn aborted_attempts_invisible() {
    let mut rng = DetRng::new(0xDA7A_0003);
    for case in 0..256 {
        let init = rng.next_u64();
        let bump = rng.range_inclusive(1, 999);
        let aborts = rng.range_inclusive(1, 4) as usize;
        let s = sys();
        let obj = s.new_obj(init);
        let mut remaining = aborts;
        s.run(|tx| {
            tx.write(&obj, &(init.wrapping_add(bump)))?;
            if remaining > 0 {
                remaining -= 1;
                return Err(tx.abort());
            }
            Ok(())
        });
        assert_eq!(obj.read_untracked(), init.wrapping_add(bump), "case {case}");
        assert_eq!(s.stats_snapshot().aborts_explicit as usize, aborts, "case {case}");
    }
}

mod sequences {
    use super::*;

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Write(usize, u64),
        Read(usize),
    }

    fn arb_ops(rng: &mut DetRng, n_objs: usize) -> Vec<Op> {
        let len = rng.range_inclusive(1, 119) as usize;
        (0..len)
            .map(|_| {
                if rng.chance(1, 2) {
                    Op::Write(rng.next_below(n_objs as u64) as usize, rng.next_u64())
                } else {
                    Op::Read(rng.next_below(n_objs as u64) as usize)
                }
            })
            .collect()
    }

    /// Single-threaded transactional execution of arbitrary op
    /// sequences matches a plain array ("sequential specification").
    #[test]
    fn matches_sequential_spec() {
        let mut rng = DetRng::new(0xDA7A_0004);
        for case in 0..64 {
            let ops = arb_ops(&mut rng, 6);
            let s = sys();
            let objs: Vec<_> = (0..6).map(|i| s.new_obj(i as u64)).collect();
            let mut spec: Vec<u64> = (0..6).map(|i| i as u64).collect();
            for op in ops {
                match op {
                    Op::Write(i, v) => {
                        s.run(|tx| tx.write(&objs[i], &v));
                        spec[i] = v;
                    }
                    Op::Read(i) => {
                        let got = s.run(|tx| tx.read(&objs[i]));
                        assert_eq!(got, spec[i], "case {case}");
                    }
                }
            }
            for (i, o) in objs.iter().enumerate() {
                assert_eq!(o.read_untracked(), spec[i], "case {case}");
            }
        }
    }

    /// Multi-object transactions are all-or-nothing under random
    /// abort points.
    #[test]
    fn multi_object_atomicity() {
        let mut rng = DetRng::new(0xDA7A_0005);
        for case in 0..64 {
            let n_writes = rng.range_inclusive(1, 7) as usize;
            let writes: Vec<(usize, u64)> = (0..n_writes)
                .map(|_| (rng.next_below(4) as usize, rng.next_u64()))
                .collect();
            let abort_first = rng.chance(1, 2);
            let s = sys();
            let objs: Vec<_> = (0..4).map(|_| s.new_obj(0u64)).collect();
            let mut first = abort_first;
            s.run(|tx| {
                for (i, v) in &writes {
                    tx.write(&objs[*i], v)?;
                }
                if first {
                    first = false;
                    return Err(tx.abort());
                }
                Ok(())
            });
            // Final state equals applying all writes in order, once.
            let mut spec = [0u64; 4];
            for (i, v) in &writes {
                spec[*i] = *v;
            }
            for (i, o) in objs.iter().enumerate() {
                assert_eq!(o.read_untracked(), spec[i], "case {case}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Backoff (§2.2: randomized exponential backoff between abort retries)
// ---------------------------------------------------------------------------

use nztm_core::util::Backoff;

/// The wait window doubles per attempt but never exceeds 2^12 = 4096
/// steps, for arbitrary entropy streams.
#[test]
fn backoff_window_doubles_and_caps() {
    let mut rng = DetRng::new(0xBAC0_0001);
    for case in 0..64 {
        let mut bo = Backoff::new();
        for attempt in 0..40u32 {
            let window = 1u64 << attempt.min(Backoff::CAP_EXP);
            let s = bo.steps(rng.next_u64());
            assert!(s < window, "case {case}, attempt {attempt}: {s} >= {window}");
            assert!(s < 4096, "case {case}: window escaped the cap");
        }
    }
}

/// Attempts count monotonically (saturating) and `reset` restarts the
/// schedule: the first post-reset window is 2^0, i.e. zero steps.
#[test]
fn backoff_attempt_counting_and_reset() {
    let mut rng = DetRng::new(0xBAC0_0002);
    let mut bo = Backoff::new();
    for i in 0..100 {
        assert_eq!(bo.attempt(), i);
        bo.steps(rng.next_u64());
    }
    bo.reset();
    assert_eq!(bo.attempt(), 0);
    assert_eq!(bo.steps(rng.next_u64()), 0, "first window is a single step");
    assert_eq!(bo.attempt(), 1);
}

/// The reset contract: the window persists (keeps widening) across
/// successive aborts and resets only on commit. Simulates random
/// commit/abort outcome streams the way the engine drives `Backoff` —
/// `steps` after every attempt, `reset` only after commits — and checks
/// the window exponent always equals the abort streak length since the
/// last commit (capped), i.e. aborts never shrink the window.
#[test]
fn backoff_window_persists_across_aborts_resets_on_commit() {
    let mut rng = DetRng::new(0xBAC0_0004);
    for case in 0..64 {
        let mut bo = Backoff::new();
        let mut streak = 0u32; // attempts since the last commit
        for step in 0..200 {
            let committed = rng.chance(1, 3);
            if committed {
                bo.reset();
                streak = 0;
            }
            let window = 1u64 << streak.min(Backoff::CAP_EXP);
            let s = bo.steps(rng.next_u64());
            assert!(
                s < window,
                "case {case}, step {step}: drew {s} from a window that must be {window}"
            );
            streak += 1;
            assert_eq!(bo.attempt(), streak, "case {case}: attempt count tracks the streak");
        }
    }
}

/// Given the same entropy sequence, two instances produce identical
/// step sequences (replayability); the re-seeding actually consumes the
/// entropy, so a different sequence diverges once windows are wide.
#[test]
fn backoff_is_deterministic_in_its_entropy() {
    let mut meta = DetRng::new(0xBAC0_0003);
    for case in 0..32 {
        let seed = meta.next_u64();
        let mut ra = DetRng::new(seed);
        let mut rb = DetRng::new(seed);
        let mut a = Backoff::new();
        let mut b = Backoff::new();
        for step in 0..64 {
            assert_eq!(a.steps(ra.next_u64()), b.steps(rb.next_u64()), "case {case}, step {step}");
        }

        let mut c = Backoff::new();
        let mut d = Backoff::new();
        let mut rc = DetRng::new(seed);
        let mut rd = DetRng::new(seed ^ 0xDEAD_BEEF);
        let diverged = (0..64).filter(|_| c.steps(rc.next_u64()) != d.steps(rd.next_u64())).count();
        // The first attempts share tiny windows; wide-window attempts
        // must split on different entropy well over half the time.
        assert!(diverged > 32, "case {case}: only {diverged}/64 draws diverged");
    }
}
