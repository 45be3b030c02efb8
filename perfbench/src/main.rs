use std::process::ExitCode;

use perfbench::{Params, END_TO_END, PER_LAYER, THREADS, USAGE};

fn main() -> ExitCode {
    let p = match Params::parse(std::env::args().skip(1)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}, {} load threads, {} CPUs",
        p.workload.name(),
        p.seed,
        p.seconds,
        p.trace as u8,
        THREADS,
        ebr::cores()
    );
    let rep = perfbench::run(&p);
    print!("{}", rep.lines());
    println!(
        "{}",
        rep.result_json(if p.trace { &PER_LAYER } else { &END_TO_END })
    );
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
