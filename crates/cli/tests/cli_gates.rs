//! Gates that must hold at the binary's surface, not just in the library:
//! every subcommand rejects flags it does not accept (a typo, or a script
//! still passing a removed flag, fails loudly with the flag named on
//! stderr instead of being silently ignored), and the perf-history trend
//! gate exits nonzero on a regression.

use std::path::PathBuf;
use std::process::Command;

fn hswx(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hswx"))
        .args(args)
        .output()
        .expect("run hswx")
}

#[test]
fn removed_and_misspelled_flags_exit_nonzero_naming_the_flag() {
    for (args, flag) in [
        (&["soak", "--threads", "2"][..], "--threads"),
        (
            &["soak", "--budget", "0", "--scenario", "mixed"][..],
            "--scenario",
        ),
        (&["info", "--mdoe", "cod"][..], "--mdoe"),
        (
            &["faultcheck", "--quick", "--threads", "2"][..],
            "--threads",
        ),
    ] {
        let out = hswx(args);
        assert!(!out.status.success(), "`hswx {}` must fail", args.join(" "));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "`hswx {}` must name {flag}: {stderr}",
            args.join(" ")
        );
    }
}

#[test]
fn removed_explain_form_is_an_error() {
    let out = hswx(&["explain", "shard"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown explain form `shard`"));
}

#[test]
fn accepted_flags_still_parse() {
    let out = hswx(&["info", "--mode", "cod"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hswx-gates-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn check_history_gates_a_regressed_kernel_and_passes_a_healthy_one() {
    let dir = fresh_dir("hist");
    let line = |v: f64| {
        format!(
            "{{\"date\": \"2026-08-08\", \"git_sha\": \"abc\", \"mode\": \"full\", \
             \"kernels\": {{\"mem_walk\": {v:.1}}}}}\n"
        )
    };
    let healthy = dir.join("healthy.jsonl");
    std::fs::write(
        &healthy,
        [100.0, 110.0, 90.0, 105.0, 98.0].map(line).concat(),
    )
    .unwrap();
    let ok = hswx(&[
        "perfbench",
        "--check-history",
        "--history",
        healthy.to_str().unwrap(),
    ]);
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    assert!(
        String::from_utf8_lossy(&ok.stdout).contains("ok"),
        "no ok lines"
    );

    let regressed = dir.join("regressed.jsonl");
    std::fs::write(
        &regressed,
        [100.0, 110.0, 90.0, 105.0, 40.0].map(line).concat(),
    )
    .unwrap();
    let bad = hswx(&[
        "perfbench",
        "--check-history",
        "--history",
        regressed.to_str().unwrap(),
    ]);
    assert!(!bad.status.success(), "a 60% drop must gate");
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(stderr.contains("below their trailing median"), "{stderr}");

    // Missing history file: typed error naming the path, not a panic.
    let gone = dir.join("absent.jsonl");
    let missing = hswx(&[
        "perfbench",
        "--check-history",
        "--history",
        gone.to_str().unwrap(),
    ]);
    assert!(!missing.status.success());
    assert!(
        String::from_utf8_lossy(&missing.stderr).contains("absent.jsonl"),
        "error must name the path"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
