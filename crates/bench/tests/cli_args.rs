//! A malformed seed or positional argument must stop an experiment
//! binary with status 2 and a message naming the culprit, before any
//! simulation runs — never silently fall back to the default run.

use std::process::{Command, Output};

fn run(binary: &str, args: &[&str], seed: Option<&str>) -> Output {
    let mut command = Command::new(binary);
    command.args(args).env_remove("SOS_SEED");
    if let Some(seed) = seed {
        command.env("SOS_SEED", seed);
    }
    command.output().expect("experiment binary runs")
}

fn assert_usage_error(output: &Output, name: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(output.stdout.is_empty(), "a report was printed");
    assert!(stderr.contains(name), "{name} not named in: {stderr}");
}

#[test]
fn unparsable_seed_exits_2() {
    for binary in [
        env!("CARGO_BIN_EXE_exp_crash_sweep"),
        env!("CARGO_BIN_EXE_exp_flash_cache"),
    ] {
        assert_usage_error(&run(binary, &[], Some("0x2a")), "SOS_SEED");
    }
}

#[test]
fn unparsable_positional_args_exit_2() {
    let crash = env!("CARGO_BIN_EXE_exp_crash_sweep");
    assert_usage_error(&run(crash, &["ten"], None), "days");
    assert_usage_error(&run(crash, &["2", "5", "-1"], None), "shards");
    let cache = env!("CARGO_BIN_EXE_exp_flash_cache");
    assert_usage_error(&run(cache, &["2", "lots"], None), "gets_per_day");
    let life = env!("CARGO_BIN_EXE_exp_end_to_end");
    assert_usage_error(&run(life, &["1.5"], None), "days");
    assert_usage_error(&run(life, &["2", "typical", "x"], None), "replicas");
}
