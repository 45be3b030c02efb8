//! The repository benchmark: three named workloads against BAT-EagerDel,
//! a correctness gate after each run, and an outside-in traced run that
//! attributes the time to the layers below. See `perfbench/README.md`.

pub mod gate;
pub mod hist;
pub mod host;
pub mod report;
pub mod serve_mixed;
pub mod structure;
pub mod trace;

use std::path::PathBuf;
use std::time::Duration;

pub use report::{Report, END_TO_END, PER_LAYER};

/// Load threads: closed-loop workers, and the prefill's inserters; sized
/// for a 2-CPU host.
pub const THREADS: usize = 2;

/// The measured window is cut into this many slices; a rate is reported as
/// the median over its slices.
pub const SLICES: usize = 10;

pub const USAGE: &str = "usage: perfbench --workload <update-heavy|query-heavy|serve-mixed> \
--seed <n> --seconds <s> --trace <0|1> [--tiny] [--trace-dir <dir>]";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    UpdateHeavy,
    QueryHeavy,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::UpdateHeavy,
        Workload::QueryHeavy,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::UpdateHeavy => "update-heavy",
            Workload::QueryHeavy => "query-heavy",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

/// One run's settings, from the command line.
#[derive(Clone, Debug)]
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Small key ranges, for the benchmark's own tests.
    pub tiny: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Where a traced run writes its raw spans (none when unset).
    pub trace_dir: Option<PathBuf>,
}

impl Params {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Params, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut tiny = false;
        let mut trace_dir =
            std::env::var_os("CARGO_TARGET_DIR").map(|d| PathBuf::from(d).join("perfbench-trace"));
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            let mut val = || args.next().ok_or(format!("{a} needs a value"));
            match a.as_str() {
                "--workload" => {
                    let v = val()?;
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == v)
                            .ok_or(format!("unknown workload {v}"))?,
                    );
                }
                "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = val()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 60.0) {
                        return Err(format!("--seconds {s} outside (0, 60]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match val()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace {v}: expected 0 or 1")),
                    })
                }
                "--tiny" => tiny = true,
                "--trace-dir" => trace_dir = Some(PathBuf::from(val()?)),
                _ => return Err(format!("unknown argument {a}")),
            }
        }
        Ok(Params {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            tiny,
            setup_reps: if tiny { 2 } else { 3 },
            trace_dir,
        })
    }

    /// Warm-up before the measured window.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64(if self.tiny {
            0.05
        } else {
            (0.05 * self.seconds).max(0.5)
        })
    }

    pub fn measure(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Write a traced run's raw spans as JSON lines (when a directory is set).
    pub fn write_trace(&self, tr: &trace::Tracer) {
        let Some(dir) = &self.trace_dir else {
            return;
        };
        let path = dir.join(format!("{}-seed{}.jsonl", self.workload.name(), self.seed));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.raw_jsonl())) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
}

/// Run the selected workload end to end.
pub fn run(p: &Params) -> Report {
    let mut rep = match p.workload {
        Workload::UpdateHeavy => structure::run(structure::Shape::update_heavy(p.tiny), p),
        Workload::QueryHeavy => structure::run(structure::Shape::query_heavy(p.tiny), p),
        Workload::ServeMixed => serve_mixed::run(p),
    };
    rep.add("host.ref_mops", host::reference_mops(), "Mop/s");
    rep
}
