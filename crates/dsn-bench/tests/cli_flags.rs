//! The simulation binaries reject what they do not consume: a value flag
//! with no value, or a flag they do not know (such as the retired
//! routing-table mode flag), exits with status 2 before any simulation
//! starts.

use std::process::Command;

fn exit_code(exe: &str, args: &[&str]) -> Option<i32> {
    Command::new(exe)
        .args(args)
        .output()
        .expect("run binary")
        .status
        .code()
}

#[test]
fn trailing_value_flag_without_value_exits_2() {
    for flag in ["--sizes", "--flaps"] {
        assert_eq!(
            exit_code(env!("CARGO_BIN_EXE_flow_suite"), &["--quick", flag]),
            Some(2),
            "flow_suite {flag}"
        );
    }
}

#[test]
fn retired_table_mode_flag_exits_2() {
    assert_eq!(
        exit_code(
            env!("CARGO_BIN_EXE_switching_ablation"),
            &["--routing-tables", "flat"]
        ),
        Some(2)
    );
}
