//! Multi-process tracing integration: every `eclat` invocation here is
//! a real subprocess, so the process-global tracer state of one command
//! cannot leak into another. The centerpiece pins the acceptance path:
//! a `dmine --spawn-local` fleet with `--trace` leaves ONE merged
//! cluster timeline showing all four protocol phases on every worker.

use std::path::PathBuf;
use std::process::Command;

fn eclat(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_eclat"))
        .args(args)
        .output()
        .expect("spawn eclat");
    assert!(
        out.status.success(),
        "eclat {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 report")
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("eclat-tracetest-{}-{name}", std::process::id()))
}

fn generate(db: &std::path::Path) {
    let report = eclat(&[
        "generate",
        "--out",
        db.to_str().unwrap(),
        "--transactions",
        "2000",
        "--seed",
        "7",
    ]);
    assert!(report.contains("generated"), "{report}");
}

#[test]
fn mine_trace_roundtrips_to_chrome() {
    let db = temp("mine.ech");
    let trace = temp("mine.jsonl");
    let chrome = temp("mine.json");
    generate(&db);

    // With `--stats` and without it: both run the one pipeline body, so
    // both trace its phases.
    for stats in [&["--stats"][..], &[]] {
        let mut args = vec![
            "mine",
            "--input",
            db.to_str().unwrap(),
            "--support",
            "0.5",
            "--algorithm",
            "parallel",
            "--trace",
            trace.to_str().unwrap(),
        ];
        args.extend_from_slice(stats);
        let mined = eclat(&args);
        assert!(mined.contains("trace: "), "{mined}");

        let report = eclat(&[
            "trace",
            "--input",
            trace.to_str().unwrap(),
            "--chrome",
            chrome.to_str().unwrap(),
        ]);
        assert!(report.contains("valid trace"), "{report}");
        // The pipeline spans its phases; the kernels span their scans;
        // phase 3 spans each equivalence class.
        for name in ["init", "transform", "async", "scan:count_pairs", "class"] {
            assert!(
                report.contains(name),
                "missing span '{name}' with {stats:?}: {report}"
            );
        }

        let cj = std::fs::read_to_string(&chrome).unwrap();
        assert!(cj.starts_with("{\"traceEvents\":["), "{cj}");
        assert!(
            cj.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"),
            "{cj}"
        );
    }

    for p in [&db, &trace, &chrome] {
        std::fs::remove_file(p).unwrap();
    }
}

#[test]
fn dmine_spawn_local_traces_merge_into_one_timeline() {
    let db = temp("dmine.ech");
    let trace = temp("dmine.jsonl");
    generate(&db);

    let report = eclat(&[
        "dmine",
        "--input",
        db.to_str().unwrap(),
        "--support",
        "0.5",
        "--spawn-local",
        "2",
        "--threads",
        "2",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(report.contains("frequent itemsets"), "{report}");
    assert!(report.contains("trace: 3 processes"), "{report}");

    // The per-worker partials were merged and removed.
    for i in 0..2 {
        let partial = format!("{}.w{i}", trace.display());
        assert!(
            !std::path::Path::new(&partial).exists(),
            "partial {partial} survived the merge"
        );
    }

    // One timeline: three meta lines that agree on a single run id.
    let doc = std::fs::read_to_string(&trace).unwrap();
    let run_id_of = |l: &str| {
        l.split("\"run_id\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .map(str::to_string)
    };
    let metas: Vec<&str> = doc
        .lines()
        .filter(|l| l.contains("\"type\":\"meta\""))
        .collect();
    assert_eq!(metas.len(), 3, "{doc}");
    let first = run_id_of(metas[0]).expect("run id");
    assert!(
        metas.iter().all(|m| run_id_of(m).as_ref() == Some(&first)),
        "run ids diverge across processes"
    );

    // Timestamps are globally monotone after the merge rebase.
    let mut last = 0u64;
    for line in doc.lines().filter(|l| l.contains("\"type\":\"event\"")) {
        let t: u64 = line
            .split("\"t_us\":")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.parse().ok())
            .expect("t_us");
        assert!(t >= last, "t_us goes backwards at: {line}");
        last = t;
    }

    // All four protocol phases open on BOTH workers, and the
    // coordinator (logical pid u32::MAX) drove its own four phases.
    for pid in ["0", "1", "4294967295"] {
        for phase in ["init", "transform", "async", "reduce"] {
            assert!(
                doc.lines().any(|l| l.contains("\"ph\":\"B\"")
                    && l.contains(&format!("\"pid\":{pid},"))
                    && l.contains(&format!("\"name\":\"{phase}\""))),
                "missing phase '{phase}' for pid {pid}"
            );
        }
    }

    // The trace subcommand agrees it is one valid merged document.
    let validated = eclat(&["trace", "--input", trace.to_str().unwrap()]);
    assert!(validated.contains("valid trace"), "{validated}");
    assert!(validated.contains("3 process(es)"), "{validated}");
    assert!(validated.contains("[0, 1, 4294967295]"), "{validated}");

    std::fs::remove_file(&db).unwrap();
    std::fs::remove_file(&trace).unwrap();
}
