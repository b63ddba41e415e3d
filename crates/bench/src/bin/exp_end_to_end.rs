//! E11: the end-to-end device-life comparison — TLC vs QLC vs SOS over a
//! simulated phone life: carbon, loss, quality, latency.
//!
//! Usage: `exp_end_to_end [days] [heavy] [replicas]`
//!
//! Every (profile × replica × design) arm runs as an independent task
//! on the deterministic parallel runner; `SOS_THREADS` sets the worker
//! count and the stdout report is byte-identical whatever it is.
//! Timing diagnostics go to stderr. An unparsable `days` or `replicas`
//! exits with status 2.

use sos_analyze::arg_or;
use sos_bench::{end_to_end_report, thread_count, EndToEndOptions};

fn main() {
    let mut options = EndToEndOptions::default();
    options.days = arg_or(1, "days", options.days);
    // Heavy usage takes ~3x longer to simulate; opt in with a second arg.
    options.heavy = std::env::args().nth(2).as_deref() == Some("heavy");
    options.replicas = arg_or(3, "replicas", options.replicas);
    let output = end_to_end_report(&options, thread_count());
    print!("{}", output.report);
    eprint!("{}", output.diagnostics);
}
