//! Replay a failure artifact produced by `nztm-check`.
//!
//! ```text
//! check_replay results/nztm_check_linearizability_NZSTM_transfer_seed1_len12.txt
//! check_replay --timeline artifact.txt
//! check_replay --perfetto trace.json artifact.txt
//! ```
//!
//! `--timeline` re-runs the schedule with the engine flight recorder
//! armed and prints an annotated timeline naming the conflicting
//! transactions and objects. `--perfetto <out.json>` additionally
//! writes the trace in Chrome `trace_event` format (load it at
//! <https://ui.perfetto.dev>).
//!
//! Exit status: 0 if the artifact's failure reproduces, 1 if the run
//! passes or fails differently, 2 on usage or parse errors.

use nztm_check::{read_artifact, render_artifact, replay};

fn usage() -> ! {
    eprintln!("usage: check_replay [--timeline] [--perfetto <out.json>] <artifact.txt>");
    std::process::exit(2);
}

fn main() {
    let mut timeline = false;
    let mut perfetto: Option<String> = None;
    let mut path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--timeline" => timeline = true,
            "--perfetto" => match args.next() {
                Some(p) => perfetto = Some(p),
                None => usage(),
            },
            _ if path.is_none() => path = Some(arg),
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };
    let art = match read_artifact(std::path::Path::new(&path)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("check_replay: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "replaying {} {} ({} forced choices), expecting {}",
        art.cfg.backend.name(),
        art.cfg.workload.name(),
        art.choices.len(),
        art.kind
    );
    let (reproduced, kind, detail) = if timeline || perfetto.is_some() {
        let rep = render_artifact(&art);
        if timeline {
            print!("{}", rep.timeline);
        }
        if let Some(out) = perfetto {
            match std::fs::write(&out, rep.outcome.trace.to_chrome_trace()) {
                Ok(()) => println!("wrote Chrome trace to {out}"),
                Err(e) => {
                    eprintln!("check_replay: write {out}: {e}");
                    std::process::exit(2);
                }
            }
        }
        (rep.reproduced, rep.kind, rep.detail)
    } else {
        let rep = replay(&art);
        (rep.reproduced, rep.kind, rep.detail)
    };
    if reproduced {
        println!("REPRODUCED: {kind} — {detail}");
    } else {
        println!("NOT reproduced: got {kind} — {detail}");
        std::process::exit(1);
    }
}
