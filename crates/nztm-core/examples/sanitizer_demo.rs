//! Demo of the protocol sanitizer on the real engine.
//!
//! Run with:
//!
//! ```text
//! cargo run -p nztm-core --example sanitizer_demo [seed]
//! ```
//!
//! First drives BZSTM through an adversarial schedule with the
//! invariant checks armed (expected: clean), then re-runs the same
//! workload with the `inject_handshake_bug` fault enabled and prints
//! the violation plus the replayable schedule dump the sanitizer emits.

use nztm_core::cm::Aggressive;
use nztm_core::{Bzstm, NzConfig};
use nztm_sim::Native;
use std::sync::Arc;

fn drive(stm: &Arc<Bzstm<Native>>, p: &Arc<Native>) -> u64 {
    p.register_thread_as(0);
    let obj = stm.new_obj(0u64);
    let barrier = Arc::new(std::sync::Barrier::new(2));
    std::thread::scope(|scope| {
        for tid in 0..2usize {
            let p = Arc::clone(p);
            let stm = Arc::clone(stm);
            let obj = Arc::clone(&obj);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                p.register_thread_as(tid);
                barrier.wait();
                for _ in 0..100 {
                    stm.run(|tx| tx.update(&obj, |v| *v += 1));
                }
            });
        }
    });
    obj.read_untracked()
}

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(1);

    println!("== clean engine, adversarial schedule (seed {seed}) ==");
    let p = Native::new(2);
    let stm: Arc<Bzstm<Native>> =
        Bzstm::new(Arc::clone(&p), Arc::new(Aggressive), NzConfig::default());
    stm.sanitizer().set_schedule(seed, 5);
    let v = drive(&stm, &p);
    println!(
        "final value {v} (expected 200), decision points hit: {}, digest {:#018x}",
        stm.sanitizer().decision_log().len(),
        stm.sanitizer().schedule_digest(),
    );
    let violations = stm.sanitizer().violations();
    println!("violations: {}", violations.len());
    assert!(violations.is_empty(), "clean engine must sanitize clean: {violations:?}");

    println!("\n== engine with injected handshake bug (requester forces victim status) ==");
    for s in seed.. {
        let p = Native::new(2);
        let stm: Arc<Bzstm<Native>> =
            Bzstm::new(Arc::clone(&p), Arc::new(Aggressive), NzConfig::default());
        stm.sanitizer().arm(true);
        stm.sanitizer().set_schedule(s, 5);
        drive(&stm, &p);
        let violations = stm.sanitizer().violations();
        if let Some(first) = violations.first() {
            println!("caught at schedule seed {s}: rule `{}`", first.rule);
            println!("  {}", first.detail);
            println!("\n--- replay dump ---\n{}", stm.sanitizer().replay_dump());
            return;
        }
        println!("seed {s}: not triggered, advancing");
    }
}
