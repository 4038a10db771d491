//! Integration tests for the `star-rings` CLI binary, driven through the
//! real executable (`CARGO_BIN_EXE_star-rings`).

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_star-rings"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn info_reports_topology() {
    let out = run(&["info", "6"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("720"));
    assert!(text.contains("fault budget (n-3)  3"));
}

#[test]
fn embed_verify_roundtrip() {
    let dir = std::env::temp_dir().join("star-rings-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let ring_path = dir.join("ring.txt");

    let out = run(&["embed", "5", "--random", "2", "--seed", "9", "--print"]);
    assert!(out.status.success(), "embed failed: {}", stderr(&out));
    assert!(stderr(&out).contains("116 / 120"));
    std::fs::write(&ring_path, stdout(&out)).unwrap();

    // Verifying against no faults still checks structure.
    let out = run(&["verify", "5", ring_path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("valid healthy ring of 116"));
}

#[test]
fn verify_rejects_corrupted_ring() {
    let dir = std::env::temp_dir().join("star-rings-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.txt");
    // Two non-adjacent vertices.
    std::fs::write(&path, "12345\n54321\n21345\n").unwrap();
    let out = run(&["verify", "5", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("INVALID"));
}

#[test]
fn explicit_faults_are_avoided() {
    let out = run(&["embed", "5", "--fault", "21345", "--print"]);
    assert!(out.status.success());
    assert!(!stdout(&out).lines().any(|l| l.trim() == "21345"));
    assert!(stderr(&out).contains("118 / 120"));
}

#[test]
fn budget_violation_is_a_clean_error() {
    let out = run(&["embed", "5", "--random", "5"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("exceed"));
}

#[test]
fn malformed_inputs_error_without_panicking() {
    for bad in [
        vec!["embed"],
        vec!["embed", "99"],
        vec!["embed", "5", "--fault", "11111"],
        vec!["embed", "5", "--fault", "123"],
        vec!["embed", "5", "--bogus"],
        vec!["verify", "5"],
        vec!["frobnicate"],
    ] {
        let out = run(&bad);
        assert!(!out.status.success(), "{bad:?} should fail");
        let err = stderr(&out);
        assert!(
            err.contains("error:") || err.contains("USAGE"),
            "{bad:?} -> {err}"
        );
        assert!(!err.contains("panicked"), "{bad:?} panicked: {err}");
    }
}

#[test]
fn degrade_prints_timeline() {
    let out = run(&["degrade", "5", "--failures", "2", "--seed", "1"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("boot: ring of 120"));
    assert_eq!(text.matches("fail ").count(), 2);
    assert!(text.contains("ring 116"));
}

#[test]
fn certificate_roundtrip_and_tamper_detection() {
    let dir = std::env::temp_dir().join("star-rings-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let cert_path = dir.join("ring.cert");

    let out = run(&["certify", "5", "--random", "2", "--seed", "3"]);
    assert!(out.status.success());
    std::fs::write(&cert_path, stdout(&out)).unwrap();

    let out = run(&["verify-cert", cert_path.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("certificate OK: ring of 116 in S_5"));
    assert!(stdout(&out).contains("at paper guarantee: true"));

    // Tamper with the checksum line.
    let tampered = std::fs::read_to_string(&cert_path)
        .unwrap()
        .lines()
        .map(|l| {
            if l.starts_with("checksum") {
                "checksum 0000000000000000".to_string()
            } else {
                l.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    let bad_path = dir.join("bad.cert");
    std::fs::write(&bad_path, tampered).unwrap();
    let out = run(&["verify-cert", bad_path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("checksum"));
}

#[test]
fn dot_output_is_graphviz() {
    let out = run(&["dot", "4", "--fault", "2134"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.starts_with("graph ring4 {"));
    assert!(text.contains("penwidth=2.5"));
    assert!(text.contains("fillcolor=\"#d62728\""));
    assert!(text.trim_end().ends_with('}'));
}

#[test]
fn help_is_shown_without_args() {
    let out = run(&[]);
    assert!(out.status.success());
    assert!(stderr(&out).contains("USAGE"));
}

#[test]
fn help_snapshot_lists_every_subcommand_with_its_flags() {
    for invocation in [&["--help"][..], &["-h"][..]] {
        let out = run(invocation);
        assert_eq!(out.status.code(), Some(0), "{invocation:?}");
        let text = stderr(&out);
        for cmd in [
            "info",
            "embed",
            "profile",
            "stats",
            "verify",
            "degrade",
            "certify",
            "verify-cert",
            "dot",
            "serve",
            "loadgen",
            "obs-overhead",
        ] {
            assert!(
                text.contains(&format!("star-rings {cmd}")),
                "--help must list `{cmd}`"
            );
        }
        // The serving flags are documented where users will look for them.
        for flag in [
            "--addr",
            "--queue",
            "--cache-mb",
            "--deadline-ms",
            "--conns",
            "--rps",
            "--duration",
            "--mix",
            "--arrivals",
            "--trace-out",
            "--slo-ms",
            "--slo-budget",
            "--slo-dump",
            "--max-pct",
        ] {
            assert!(text.contains(flag), "--help must document `{flag}`");
        }
        assert!(text.contains("overloaded"), "backpressure is documented");
        // The closed-loop measurement bias is called out where the mode
        // is chosen.
        assert!(
            text.contains("coordinated omission"),
            "--help must explain the closed-loop caveat"
        );
    }
}

#[test]
fn every_subcommand_exits_one_on_bad_arguments() {
    for bad in [
        &["info"][..],
        &["info", "nope"][..],
        &["embed"][..],
        &["profile", "5", "--stats"][..],
        &["stats", "5", "--format", "xml"][..],
        &["verify", "5"][..],
        &["degrade", "5", "--failures", "x"][..],
        &["certify"][..],
        &["verify-cert"][..],
        &["dot"][..],
        &["serve", "--bogus"][..],
        &["serve", "--queue"][..],
        &["serve", "--addr", "not-an-address"][..],
        &["serve", "--cache-mb", "17592186044416"][..],
        &["serve", "--proto", "v1"][..],
        &["loadgen", "--conns", "0"][..],
        &["loadgen", "--mix", "chaotic"][..],
        &["loadgen", "--duration", "forever"][..],
        &["loadgen", "--rps"][..],
        &["loadgen", "--arrivals", "uniform"][..],
        &["serve", "--slo-ms", "0"][..],
        &["serve", "--slo-budget", "2", "--slo-ms", "5"][..],
        &["serve", "--slo-budget", "0.5"][..],
        &["obs-overhead", "--n", "99"][..],
        &["obs-overhead", "--samples", "0"][..],
        // Open-loop arrivals have no self-limiting feedback: an offered
        // rate is mandatory, and the run refuses to start without one.
        &["loadgen", "--arrivals", "poisson"][..],
    ] {
        let out = run(bad);
        assert_eq!(out.status.code(), Some(1), "{bad:?} must exit 1");
        assert!(
            stderr(&out).contains("error:"),
            "{bad:?} -> {}",
            stderr(&out)
        );
    }
}

#[test]
fn loadgen_exits_nonzero_when_the_server_is_unreachable() {
    // Grab a port that nothing listens on by binding and dropping it.
    let port = {
        let sock = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        sock.local_addr().unwrap().port()
    };
    let out = run(&[
        "loadgen",
        "--addr",
        &format!("127.0.0.1:{port}"),
        "--conns",
        "1",
        "--duration",
        "0.2",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("protocol errors"), "{}", stderr(&out));
}

#[test]
fn obs_overhead_reports_interleaved_medians() {
    // A generous bound: this test checks the report plumbing, not the
    // machine's performance (the CI gate runs with the real bound).
    let out = run(&[
        "obs-overhead",
        "--n",
        "6",
        "--samples",
        "3",
        "--max-pct",
        "1000",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("untraced median"), "{text}");
    assert!(text.contains("traced median"), "{text}");
    assert!(text.contains("median overhead"), "{text}");
    assert!(text.contains("bound 1000%"), "{text}");
}

#[test]
fn profile_emits_collapsed_stacks() {
    let out = run(&["profile", "6", "--worst", "2"]);
    assert!(out.status.success(), "profile failed: {}", stderr(&out));
    let collapsed = stdout(&out);
    assert!(!collapsed.trim().is_empty());
    for line in collapsed.lines() {
        // Collapsed-stack grammar: `frame(;frame)* <integer>`.
        let (path, value) = line.rsplit_once(' ').expect("two fields");
        assert!(!path.is_empty() && !path.starts_with(';'));
        assert!(value.parse::<u64>().is_ok(), "bad sample value: {line}");
    }
    assert!(collapsed.lines().any(|l| l.starts_with("embed ")));
    assert!(collapsed.contains("embed;embed.expand "));
    // The human attribution table goes to stderr.
    let table = stderr(&out);
    assert!(table.contains("phase"));
    assert!(table.contains("self%"));
}

#[test]
fn profile_out_writes_file_and_conflicts_with_stats() {
    let dir = std::env::temp_dir().join("star-rings-cli-profile");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("embed.collapsed");
    let out = run(&["embed", "5", "--profile-out", path.to_str().unwrap()]);
    assert!(out.status.success(), "embed failed: {}", stderr(&out));
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.lines().any(|l| l.starts_with("embed ")));
    std::fs::remove_dir_all(&dir).unwrap();

    let out = run(&["embed", "5", "--stats", "--profile-out", "/tmp/x.collapsed"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("mutually exclusive"));
}

#[test]
fn stats_watch_prints_frames() {
    let out = run(&["stats", "5", "--watch", "0", "--frames", "2"]);
    assert!(
        out.status.success(),
        "stats --watch failed: {}",
        stderr(&out)
    );
    let err = stderr(&out);
    assert!(err.contains("[watch frame 1 of 2, every 0s]"));
    assert!(err.contains("[watch frame 2 of 2, every 0s]"));
    // Pretty mode clears the screen between frames.
    assert!(stdout(&out).contains("\x1b[2J\x1b[H"));
    // --frames without --watch is rejected.
    let out = run(&["stats", "5", "--frames", "2"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--frames requires --watch"));
}

#[test]
fn flightrec_flag_dumps_on_failure() {
    let dir = std::env::temp_dir().join("star-rings-cli-flightrec");
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("rec.jsonl");
    // An embed over the fault budget fails; the failure path must leave
    // the dump behind, with the error itself as the final event.
    let out = run(&[
        "embed",
        "5",
        "--worst",
        "4",
        "--flightrec-out",
        dump.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let text = std::fs::read_to_string(&dump).expect("failure dump written");
    assert!(text.starts_with("{\"type\":\"flightrec\",\"reason\":\"cli.error\""));
    assert!(text.contains("\"kind\":\"cli.error\""));
    assert!(text.contains("budget"));
    std::fs::remove_dir_all(&dir).unwrap();

    // A successful run under --flightrec records events but dumps
    // nothing.
    let dir2 = std::env::temp_dir().join("star-rings-cli-flightrec-ok");
    std::fs::create_dir_all(&dir2).unwrap();
    let dump2 = dir2.join("rec.jsonl");
    let out = run(&["embed", "5", "--flightrec-out", dump2.to_str().unwrap()]);
    assert!(out.status.success(), "embed failed: {}", stderr(&out));
    assert!(!dump2.exists(), "no dump on success");
    std::fs::remove_dir_all(&dir2).unwrap();
}
