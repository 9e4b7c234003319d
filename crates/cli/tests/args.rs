//! Argument handling of the one-shot CLI, run as a subprocess.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sygraph-cli"))
        .args(args)
        .env("SYG_SCALE", "test")
        .output()
        .expect("run sygraph-cli")
}

#[test]
fn non_integer_k_is_a_usage_error() {
    for k in ["2.5", "-1", "two"] {
        let out = cli(&["kcore", "gen:kron", "--k", k]);
        assert_eq!(out.status.code(), Some(2), "--k {k}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with("usage: sygraph-cli <bfs|"),
            "--k {k}: {err}"
        );
    }
}

#[test]
fn k_defaults_to_two_and_is_not_delta() {
    let run = |extra: &[&str]| {
        let mut args = vec!["kcore", "gen:kron", "--json"];
        args.extend_from_slice(extra);
        let out = cli(&args);
        assert!(out.status.success(), "{extra:?}");
        out.stdout
    };
    let default = run(&[]);
    assert_eq!(default, run(&["--k", "2"]));
    assert_eq!(default, run(&["--delta", "5"]));
    assert_ne!(default, run(&["--k", "5"]));
}

#[test]
fn unknown_algorithm_and_device_are_usage_errors() {
    for args in [
        &["tarjan", "gen:ca"][..],
        &["bfs", "gen:ca", "--device", "tpu"],
    ] {
        assert_eq!(cli(args).status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn mode_errors_list_the_registry_names() {
    let out = cli(&["sssp", "gen:ca", "--sources", "0,1"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("--sources supports bfs|bc|closeness|reach, not sssp"));
    let out = cli(&["bc", "gen:ca", "--devices", "2"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("--devices supports bfs|sssp|cc, not bc"));
}
